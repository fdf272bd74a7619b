//! The HTTP boundary of both route sets on the shared stack
//! (`ldmo_obs::http`): a live `ldmo_serve::Server` and a live
//! `ldmo_obs::serve` metrics endpoint receive generated requests, each
//! written in random chunks or cut off partway, and the client always
//! half-closes its side afterwards.
//!
//! - A complete request gets one well-formed typed response: a status
//!   line with the canonical reason phrase, an exact `Content-Length`,
//!   `Connection: close`, and (from the daemon) a JSON body whose status
//!   matches the line.
//! - A cut-off request gets a closed connection and no bytes.
//! - After every case the endpoint still answers its health route 200.
//!
//! The generated requests never reach ILT: health and metrics routes,
//! unknown routes and methods, malformed JSON, unparsable and oversize
//! layouts, a `Content-Length` over the 4 MiB cap, and random bytes.

use ldmo::obs::http::{reason_phrase, MAX_REQUEST_BYTES};
use ldmo::obs::json;
use ldmo::serve::{OptimizeResponse, ServeConfig, Server};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// One generated request: its bytes, how many of them the server needs
/// before it can answer, and the statuses a complete send may get.
struct Case {
    bytes: Vec<u8>,
    decisive: usize,
    statuses: &'static [u16],
}

impl Case {
    fn new(head: &str, body: &str, statuses: &'static [u16]) -> Case {
        let bytes = format!("{head}{body}").into_bytes();
        Case {
            decisive: bytes.len(),
            bytes,
            statuses,
        }
    }

    /// A request the server answers from its head alone.
    fn head_only(head: String, statuses: &'static [u16]) -> Case {
        Case::new(&head, "", statuses)
    }
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.0\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
}

fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.0\r\n\r\n")
}

/// `noise` as a request line: no CR or LF, so the line never ends early.
fn noise_line(noise: &[u8]) -> Vec<u8> {
    noise
        .iter()
        .map(|&b| if b == b'\r' || b == b'\n' { b'_' } else { b })
        .collect()
}

fn noise_hex(noise: &[u8]) -> String {
    noise.iter().map(|b| format!("{b:02x}")).collect()
}

fn random_bytes(noise: &[u8]) -> Case {
    let mut bytes = noise_line(noise);
    bytes.extend_from_slice(b"\r\n\r\n");
    Case {
        decisive: bytes.len(),
        bytes,
        statuses: &[404, 405],
    }
}

fn oversize_content_length(path: &str) -> Case {
    Case::head_only(
        format!(
            "POST {path} HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_BYTES + 1
        ),
        &[400],
    )
}

fn daemon_case(kind: usize, noise: &[u8]) -> Case {
    let method = ["PUT", "DELETE", "HEAD", "PATCH"][noise.len() % 4];
    let optimize = |layout: &str| {
        let body = format!(
            "{{\"id\":\"prop\",\"layout\":\"{}\"}}",
            json::escape(layout)
        );
        Case::new(&post("/optimize", &body), &body, &[422])
    };
    match kind {
        0 => Case::head_only(get("/healthz"), &[200]),
        1 => {
            let body = format!("not json {}", noise_hex(noise));
            Case::new(&post("/optimize", &body), &body, &[400])
        }
        // 200000² px at 2 nm/px: refused before anything rasterizes it
        2 => optimize("ldmo-layout v1\nwindow 0 0 400000 400000\npattern 80 80 144 144\n"),
        3 => optimize(&format!("not a layout {}", noise_hex(noise))),
        4 => oversize_content_length("/optimize"),
        5 => Case::head_only(get(&format!("/x{}", noise_hex(noise))), &[404]),
        6 => Case::head_only(format!("{method} /optimize HTTP/1.0\r\n\r\n"), &[405]),
        _ => random_bytes(noise),
    }
}

fn metrics_case(kind: usize, noise: &[u8]) -> Case {
    match kind {
        0 => Case::head_only(get("/metrics"), &[200]),
        1 => Case::head_only(get("/spans"), &[200]),
        2 => Case::head_only(get("/"), &[200]),
        3 => Case::head_only(get(&format!("/x{}", noise_hex(noise))), &[404]),
        4 => Case::new(&post("/metrics", "{}"), "{}", &[405]),
        5 => oversize_content_length("/metrics"),
        _ => random_bytes(noise),
    }
}

/// Sends `bytes` in chunks of the given sizes (the rest in one chunk),
/// half-closes, and returns whatever arrived before the server closed. A
/// server that closes early ends the sending, and a reset after the
/// response keeps the bytes that came before it.
fn exchange(addr: SocketAddr, bytes: &[u8], chunks: &[usize]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut rest = bytes;
    for size in chunks.iter().copied().chain([bytes.len()]) {
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        if stream.write_all(chunk).is_err() {
            break;
        }
        rest = tail;
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

/// Checks the framing of a raw response and returns its status and body.
fn parse_response(raw: &[u8]) -> Result<(u16, String), String> {
    let text = std::str::from_utf8(raw).map_err(|e| format!("not UTF-8: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header end in {text:?}"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let (status, reason) = status_line
        .strip_prefix("HTTP/1.0 ")
        .and_then(|rest| rest.split_once(' '))
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let status: u16 = status
        .parse()
        .map_err(|_| format!("bad status {status:?}"))?;
    if reason != reason_phrase(status) {
        return Err(format!("status {status} with reason {reason:?}"));
    }
    let header = |name: &str| {
        head.split("\r\n")
            .skip(1)
            .filter_map(|l| l.split_once(": "))
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.to_owned())
    };
    if header("Content-Length") != Some(body.len().to_string()) {
        return Err(format!(
            "Content-Length does not match a {}-byte body",
            body.len()
        ));
    }
    if header("Connection").as_deref() != Some("close") {
        return Err("missing Connection: close".into());
    }
    Ok((status, body.to_owned()))
}

/// Sends `case` chunked or cut off, checks the reply, then checks that
/// `health` still answers 200. `typed` validates a complete reply's body.
fn check_case(
    addr: SocketAddr,
    case: &Case,
    cut: u64,
    chunks: &[usize],
    health: &str,
    typed: impl Fn(u16, &str) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    if cut.is_multiple_of(3) {
        let at = (cut / 3) as usize % case.decisive;
        let raw = exchange(addr, &case.bytes[..at], chunks);
        prop_assert!(
            raw.is_empty(),
            "cut at {at} of {:?} got {:?}",
            String::from_utf8_lossy(&case.bytes),
            String::from_utf8_lossy(&raw)
        );
    } else {
        let raw = exchange(addr, &case.bytes, chunks);
        let sent = String::from_utf8_lossy(&case.bytes);
        let (status, body) = parse_response(&raw).map_err(|e| {
            TestCaseError::fail(format!(
                "{sent:?}: {e} in {:?}",
                String::from_utf8_lossy(&raw)
            ))
        })?;
        prop_assert!(
            case.statuses.contains(&status),
            "{sent:?} got {status}, expected one of {:?}",
            case.statuses
        );
        typed(status, &body).map_err(|e| TestCaseError::fail(format!("{sent:?}: {e}")))?;
    }
    let raw = exchange(addr, get(health).as_bytes(), &[]);
    let (status, _) = parse_response(&raw).map_err(TestCaseError::fail)?;
    prop_assert_eq!(status, 200);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn the_daemon_types_every_complete_request_and_survives_the_rest(
        kind in 0usize..8,
        cut in 0u64..u64::MAX,
        chunks in collection::vec(1usize..48, 0..5),
        noise in collection::vec(0u8..=255, 0..40),
    ) {
        static SERVER: std::sync::OnceLock<Server> = std::sync::OnceLock::new();
        let addr = SERVER
            .get_or_init(|| Server::start(ServeConfig::default()).expect("server starts"))
            .addr();
        check_case(addr, &daemon_case(kind, &noise), cut, &chunks, "/healthz", |status, body| {
            if kind == 0 {
                let value = json::parse(body)?;
                return match value.get("code").and_then(json::Value::as_str) {
                    Some("ok") => Ok(()),
                    code => Err(format!("/healthz code {code:?}")),
                };
            }
            let response = OptimizeResponse::from_json(body)?;
            if response.status != status {
                return Err(format!("body status {} on a {status} line", response.status));
            }
            Ok(())
        })?;
    }

    #[test]
    fn the_metrics_endpoint_types_every_complete_request_and_survives_the_rest(
        kind in 0usize..7,
        cut in 0u64..u64::MAX,
        chunks in collection::vec(1usize..48, 0..5),
        noise in collection::vec(0u8..=255, 0..40),
    ) {
        static ENDPOINT: std::sync::OnceLock<ldmo::obs::serve::MetricsServer> =
            std::sync::OnceLock::new();
        let addr = ENDPOINT
            .get_or_init(|| ldmo::obs::serve::start("127.0.0.1:0").expect("bind"))
            .addr();
        check_case(addr, &metrics_case(kind, &noise), cut, &chunks, "/metrics", |_, _| Ok(()))?;
    }
}
