//! Live-ops layer tests: the counter difference between two registry
//! reads under concurrent increments, Prometheus rendering of point-mass
//! and saturated histograms, and an end-to-end `/metrics` smoke test over
//! a real TCP socket (including the gauge-omission rule: nothing registers
//! a `mem.*` gauge, so none may appear).

use ldmo_obs as obs;
use ldmo_obs::snapshot::MetricsSnapshot;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn snapshot_delta_counts_concurrent_increments(per_thread in 1u64..2_000) {
        obs::enable();
        let before = MetricsSnapshot::take();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        obs::counter("liveops.prop").incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementer thread");
        }
        let after = MetricsSnapshot::take();
        let prop = |snapshot: &MetricsSnapshot| {
            snapshot
                .counters
                .iter()
                .find(|(name, _)| *name == "liveops.prop")
                .map_or(0, |(_, v)| *v)
        };
        prop_assert_eq!(prop(&after) - prop(&before), 4 * per_thread);
    }
}

#[test]
fn prometheus_renders_point_mass_histogram_exactly() {
    obs::enable();
    for _ in 0..3 {
        obs::histogram("liveops.pointmass").record(5);
    }
    let text = obs::serve::prometheus_text();
    // value 5 lands in log2 bucket 3 ([4, 8)); the integer-exact upper
    // bound is le="7"
    assert!(
        text.contains("ldmo_liveops_pointmass_bucket{le=\"7\"} 3"),
        "missing exact point-mass bucket:\n{text}"
    );
    assert!(text.contains("ldmo_liveops_pointmass_bucket{le=\"3\"} 0"));
    assert!(text.contains("ldmo_liveops_pointmass_bucket{le=\"+Inf\"} 3"));
    assert!(text.contains("ldmo_liveops_pointmass_sum 15"));
    assert!(text.contains("ldmo_liveops_pointmass_count 3"));
}

#[test]
fn prometheus_renders_saturated_histogram() {
    obs::enable();
    obs::histogram("liveops.saturated").record(u64::MAX);
    let text = obs::serve::prometheus_text();
    // the saturating last bucket has no finite bound: the observation
    // appears only in +Inf, and every finite bucket stays at 0
    assert!(text.contains("ldmo_liveops_saturated_bucket{le=\"+Inf\"} 1"));
    assert!(!text.contains("ldmo_liveops_saturated_bucket{le=\"18446744073709551615\"}"));
    let max_finite = format!(
        "ldmo_liveops_saturated_bucket{{le=\"{}\"}} 0",
        (1u64 << 62) - 1
    );
    assert!(
        text.contains(&max_finite),
        "highest finite bucket must render empty:\n{text}"
    );
    assert!(text.contains("ldmo_liveops_saturated_count 1"));
}

/// Minimal HTTP/1.0 GET against the in-process server; returns
/// (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or("").to_owned();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn metrics_endpoint_serves_over_real_tcp() {
    obs::enable();
    obs::counter("liveops.http").incr();
    let server = obs::serve::start("127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "bad /metrics status: {status}");
    assert!(body.contains("ldmo_up 1"));
    assert!(body.contains("ldmo_liveops_http_total"));
    // gauge omission: no counting allocator is installed in this test
    // binary, so the mem.* family must be absent, not zero-reported
    assert!(
        !body.contains("ldmo_mem_"),
        "mem.* gauges must be omitted without a counting allocator:\n{body}"
    );

    let (status, _) = http_get(addr, "/spans");
    assert!(status.contains("200"), "bad /spans status: {status}");

    let (status, _) = http_get(addr, "/nonexistent");
    assert!(status.contains("404"), "unknown path must 404: {status}");
}
