//! The live-ops export endpoint: the collector's state, served over HTTP
//! while a run is in flight.
//!
//! Routes (DESIGN.md §14):
//!
//! - `GET /metrics` — Prometheus text exposition (version 0.0.4):
//!   counters as `ldmo_<name>_total`, gauges as `ldmo_<name>`, histograms
//!   rendered from the log2 buckets with integer-exact `le` bounds.
//!   Unregistered metrics are *omitted*, never zero-reported — a gauge
//!   nothing ever set does not appear. The body renders one
//!   [`MetricsSnapshot::take`], the same read the trace's metric lines
//!   render.
//! - `GET /spans` — the flight dump as JSONL (`Trace::parse`
//!   compatible): the collector's newest span closes and convergence
//!   rows, span metadata included ([`crate::flight::dump_to`]).
//! - `GET /` — a plain-text index of the routes.
//!
//! The routes mount on the workspace's one HTTP stack ([`crate::http`]):
//! one accept thread, blocked in `accept` until a scrape arrives, serves
//! connections one at a time with 2-second socket timeouts, which is
//! exactly right for a scrape endpoint. The thread stops and joins when
//! the [`MetricsServer`] guard drops. A `/metrics` scrape reads atomics
//! and never blocks the optimization hot path; a `/spans` scrape copies
//! its window under the collector's store locks, so a span close or
//! convergence row may wait for that one copy.

use crate::http::{self, HttpServer};
use crate::metrics::{HistogramSnapshot, HISTOGRAM_BINS};
use crate::snapshot::MetricsSnapshot;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Read and write timeout of a scrape connection.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

const INDEX: &str = "ldmo live-ops endpoint\n/metrics  Prometheus text exposition\n\
                     /spans    newest spans and rows (JSONL)\n";

/// A running metrics server. The accept loop stops (and the thread joins)
/// when this guard drops, so binaries hold it for the duration of `main`.
pub type MetricsServer = HttpServer;

/// Binds `addr` (e.g. `127.0.0.1:9184`, port 0 for an OS-assigned port)
/// and starts serving. Enables the collector — an ops feed over a
/// disabled collector would be an empty lie.
///
/// # Errors
///
/// Propagates bind and thread-spawn failures.
pub fn start(addr: &str) -> io::Result<MetricsServer> {
    crate::enable();
    HttpServer::start(addr, "metrics", IO_TIMEOUT, |mut stream, _| {
        handle_conn(&mut stream)
    })
}

fn handle_conn(stream: &mut TcpStream) -> io::Result<()> {
    let request = match http::read_request(stream) {
        Ok(request) => request,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return http::write_response(stream, 400, "text/plain", &format!("{e}\n"));
        }
        Err(e) => return Err(e),
    };
    if request.method != "GET" {
        return http::write_response(stream, 405, "text/plain", "GET only\n");
    }
    let (content_type, body) = match request.path.as_str() {
        "/metrics" => (
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus_text(),
        ),
        "/spans" => {
            let mut body = Vec::new();
            crate::flight::dump_to(&mut body, "live")?;
            (
                "application/x-ndjson",
                String::from_utf8_lossy(&body).into_owned(),
            )
        }
        "/" => ("text/plain", INDEX.to_owned()),
        _ => return http::write_response(stream, 404, "text/plain", "not found\n"),
    };
    http::write_response(stream, 200, content_type, &body)
}

/// Sanitizes a metric name for Prometheus: `[a-zA-Z0-9_]` pass through,
/// everything else (the `.` of `layer.metric` in particular) becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Upper bound of log2 bucket `b` as a Prometheus `le` label. Bucket 0
/// holds exact zeros (`le="0"`); bucket `b ≥ 1` covers `[2^(b-1), 2^b)`,
/// and since every observation is an integer `u64` the inclusive bound is
/// exactly `2^b − 1`. The saturating last bucket has no finite bound.
fn le_label(bucket: usize) -> Option<u64> {
    match bucket {
        0 => Some(0),
        b if b + 1 >= HISTOGRAM_BINS => None,
        b => Some((1u64 << b) - 1),
    }
}

fn render_hist(out: &mut String, name: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    let highest = h.bins.iter().rposition(|&c| c > 0);
    for (b, &c) in h.bins.iter().enumerate() {
        cumulative += c;
        // only emit up to the highest occupied bucket — 64 lines of
        // trailing repeats per histogram would drown the exposition
        if highest.is_some_and(|hi| b > hi) {
            break;
        }
        if let Some(le) = le_label(b) {
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count));
}

/// Renders every registered metric in the Prometheus text exposition
/// format. Only *registered* metrics appear: a gauge nothing ever set is
/// omitted entirely rather than exported as a phantom zero.
pub fn prometheus_text() -> String {
    let snapshot = MetricsSnapshot::take();
    let mut out = String::from("# TYPE ldmo_up gauge\nldmo_up 1\n");
    for (name, value) in snapshot.counters {
        let name = format!("ldmo_{}_total", sanitize(name));
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in snapshot.gauges {
        let name = format!("ldmo_{}", sanitize(name));
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, h) in snapshot.hists {
        render_hist(&mut out, &format!("ldmo_{}", sanitize(name)), &h);
    }
    out
}
