//! The workspace's one HTTP stack (DESIGN.md §14): a blocking accept
//! loop, a `Content-Length`-aware request reader and a response writer, on
//! `std` alone. The live-ops routes ([`crate::serve`]) and the
//! `ldmo-serve` daemon's routes mount on it; an exchange is one HTTP/1.0
//! request and one response with `Connection: close`.
//!
//! [`HttpServer`]'s accept thread blocks in `accept`, so a connection is
//! handled as soon as it arrives, one at a time. To stop, the guard sets a
//! flag and wakes the blocked `accept` by connecting to the server's own
//! address (through loopback when bound to `0.0.0.0` or `::`). The loop
//! checks the flag before a connection takes an index, so the wake
//! connection never reaches a handler.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A head or body larger than this is refused with
/// [`io::ErrorKind::InvalidData`] before it is buffered: an unbounded read
/// would let one client exhaust the process.
pub const MAX_REQUEST_BYTES: usize = 4 * 1024 * 1024;

/// Bytes asked of the reader per call while the head is incomplete.
const READ_CHUNK: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as sent.
    pub method: String,
    /// Request target (`/metrics`, `/optimize`, ...), as sent.
    pub path: String,
    /// The body: exactly `Content-Length` bytes, empty without the header.
    pub body: String,
}

fn invalid(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn cut_off(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what)
}

/// Reads one request: the head up to its blank line, then exactly
/// `Content-Length` body bytes, however the peer splits them into reads.
///
/// Each search for the blank line resumes 3 bytes before the end of the
/// previous one, so a head arriving in many small reads costs linear time.
///
/// # Errors
///
/// A head or body over [`MAX_REQUEST_BYTES`] and a malformed
/// `Content-Length` are [`io::ErrorKind::InvalidData`]; a peer that closes
/// before the request is complete is [`io::ErrorKind::UnexpectedEof`];
/// socket errors and timeouts propagate.
pub fn read_request<R: Read>(reader: &mut R) -> io::Result<Request> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    // no terminator starts before this offset of `buf`
    let mut searched = 0;
    let head_end = loop {
        if let Some(i) = buf[searched..].windows(4).position(|w| w == b"\r\n\r\n") {
            break searched + i;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(invalid("headers too large"));
        }
        searched = buf.len().saturating_sub(3);
        let n = match reader.read(&mut chunk) {
            Ok(0) => return Err(cut_off("connection closed mid-request")),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err(invalid("body too large"));
    }
    let mut body = buf.split_off(head_end + 4);
    body.truncate(content_length);
    let missing = (content_length - body.len()) as u64;
    Read::take(&mut *reader, missing).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(cut_off("connection closed mid-body"));
    }
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Writes one HTTP/1.0 response — status line, `Content-Type`, exact
/// `Content-Length`, `Connection: close` — in a single write.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: close\r\n\r\n",
        reason = reason_phrase(status),
        len = body.len(),
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    writer.write_all(&out)?;
    writer.flush()
}

/// Canonical reason phrase for the status codes the two route sets use.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A running server: one accept thread handing each connection to a
/// handler. Dropping the guard stops the loop and joins the thread.
#[must_use = "the server stops when this guard drops"]
#[derive(Debug)]
pub struct HttpServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (port 0 for an OS-assigned port) and starts the accept
    /// thread. Each accepted connection gets `timeout` as its read and
    /// write timeout and goes to `handler` with its index, counting client
    /// connections from 0. A handler error is logged under `[name]`.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn start<H>(addr: &str, name: &str, timeout: Duration, mut handler: H) -> io::Result<Self>
    where
        H: FnMut(TcpStream, usize) -> io::Result<()> + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let label = name.to_owned();
        let thread = std::thread::Builder::new()
            .name(format!("ldmo-{name}-accept"))
            .spawn(move || {
                let mut index = 0;
                loop {
                    let accepted = listener.accept();
                    // before the connection takes an index: the wake
                    // connection from `Drop` must never reach the handler
                    if flag.load(Ordering::SeqCst) {
                        return;
                    }
                    let (stream, _) = match accepted {
                        Ok(conn) => conn,
                        Err(e) => {
                            // e.g. out of file descriptors: back off, not spin
                            eprintln!("[{label}] accept error: {e}");
                            std::thread::sleep(Duration::from_millis(50));
                            continue;
                        }
                    };
                    index += 1;
                    let served = stream
                        .set_read_timeout(Some(timeout))
                        .and_then(|()| stream.set_write_timeout(Some(timeout)))
                        .and_then(|()| handler(stream, index - 1));
                    if let Err(e) = served {
                        eprintln!("[{label}] connection error: {e}");
                    }
                }
            })?;
        Ok(HttpServer {
            local,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.local
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let wake = wake_addr(self.local);
        if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(2)) {
            eprintln!("[http] wake connection to {wake} failed: {e}");
        }
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                eprintln!("[http] accept thread on {} panicked", self.local);
            }
        }
    }
}

/// Where a stopping server connects to wake its own accept: the bound
/// address, with an unspecified IP replaced by the loopback of its family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields its bytes in the given nonzero piece sizes
    /// (the rest in one piece), then EOF.
    struct Pieces<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let want = if self.sizes.is_empty() {
                self.bytes.len()
            } else {
                self.sizes.remove(0)
            };
            let n = want.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    const POST: &[u8] = b"POST /optimize HTTP/1.0\r\nContent-Type: application/json\r\n\
                          Content-Length: 10\r\nConnection: close\r\n\r\n{\"id\":\"x\"}";

    fn expected_post() -> Request {
        Request {
            method: "POST".into(),
            path: "/optimize".into(),
            body: "{\"id\":\"x\"}".into(),
        }
    }

    #[test]
    fn a_terminator_split_across_two_reads_is_found_at_every_offset() {
        for split in 1..=POST.len() {
            let mut reader = Pieces {
                bytes: POST,
                sizes: vec![split],
            };
            let request = read_request(&mut reader)
                .unwrap_or_else(|e| panic!("split at {split} fails to parse: {e}"));
            assert_eq!(request, expected_post(), "split at {split}");
        }
    }

    #[test]
    fn a_request_arriving_one_byte_per_read_parses() {
        let mut reader = Pieces {
            bytes: POST,
            sizes: vec![1; POST.len()],
        };
        assert_eq!(read_request(&mut reader).expect("parses"), expected_post());
        let get = b"GET /metrics HTTP/1.0\r\n\r\n";
        let mut reader = Pieces {
            bytes: get,
            sizes: vec![1; get.len()],
        };
        let request = read_request(&mut reader).expect("parses");
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("GET", "/metrics")
        );
        assert!(request.body.is_empty());
    }

    #[test]
    fn a_head_over_the_cap_without_a_terminator_is_invalid_data() {
        let mut reader = io::repeat(b'a').take(MAX_REQUEST_BYTES as u64 + 1);
        let err = read_request(&mut reader).expect_err("oversize head");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // exactly at the cap the reader keeps waiting, and EOF is a cut-off
        let mut reader = io::repeat(b'a').take(MAX_REQUEST_BYTES as u64);
        let err = read_request(&mut reader).expect_err("cut off");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn bad_framing_is_typed() {
        let kind = |raw: &[u8]| {
            read_request(&mut Pieces {
                bytes: raw,
                sizes: Vec::new(),
            })
            .map(|_| ())
            .map_err(|e| e.kind())
        };
        let over = format!(
            "POST / HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_REQUEST_BYTES + 1
        );
        assert_eq!(kind(over.as_bytes()), Err(io::ErrorKind::InvalidData));
        assert_eq!(
            kind(b"POST / HTTP/1.0\r\nContent-Length: ten\r\n\r\n"),
            Err(io::ErrorKind::InvalidData)
        );
        assert_eq!(
            kind(b"POST / HTTP/1.0\r\nContent-Length: 10\r\n\r\nshort"),
            Err(io::ErrorKind::UnexpectedEof)
        );
        assert_eq!(
            kind(b"GET / HTTP/1.0\r\n"),
            Err(io::ErrorKind::UnexpectedEof)
        );
        // bytes past Content-Length are not part of the body
        let request = read_request(&mut Pieces {
            bytes: b"POST / HTTP/1.0\r\ncontent-length: 2\r\n\r\nokEXTRA",
            sizes: Vec::new(),
        })
        .expect("parses");
        assert_eq!(request.body, "ok");
    }

    #[test]
    fn a_response_is_one_framed_write() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "text/plain", "not found\n").expect("write");
        assert_eq!(
            String::from_utf8(out).expect("utf-8"),
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 10\r\n\
             Connection: close\r\n\r\nnot found\n"
        );
    }

    #[test]
    fn an_unspecified_bind_is_woken_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:9184".parse().expect("addr");
        assert_eq!(wake_addr(v4), "127.0.0.1:9184".parse().expect("addr"));
        let v6: SocketAddr = "[::]:9184".parse().expect("addr");
        assert_eq!(wake_addr(v6), "[::1]:9184".parse().expect("addr"));
        let bound: SocketAddr = "192.0.2.7:80".parse().expect("addr");
        assert_eq!(wake_addr(bound), bound);
    }

    #[test]
    fn an_idle_server_stops_and_a_client_connection_takes_index_zero() {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = HttpServer::start(
            "127.0.0.1:0",
            "test",
            Duration::from_secs(2),
            move |mut stream, index| {
                let request = read_request(&mut stream)?;
                tx.send(index).expect("send");
                write_response(&mut stream, 200, "text/plain", &request.path)
            },
        )
        .expect("bind");
        let mut client = TcpStream::connect(server.addr()).expect("connect");
        client
            .write_all(b"GET /first HTTP/1.0\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        client.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.ends_with("\r\n\r\n/first"), "{response}");
        drop(server);
        // the wake connection reached no handler
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![0]);
    }
}
