//! Serving-daemon benchmarks (DESIGN.md §16): full HTTP round-trips
//! against an in-process `ldmo-serve` — connect, POST a layout, run the
//! batch scheduler, read the typed response. The row tracks wall time per
//! request, i.e. the inverse of requests/sec; a cached row isolates the
//! lookup path from the optimization itself. Feeds `BENCH_serve.json`
//! (via `--json-out`), which `ldmo bench-report --gate` compares with the
//! committed `bench_out/` baseline.
//!
//! `LDMO_FAST=1` shrinks the per-request ILT budget so the CI smoke run
//! stays cheap; the committed baseline is collected in the same mode.

use criterion::{criterion_group, Criterion};
use ldmo_bench::fast_mode;
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::io as layout_io;
use ldmo_serve::{client, OptimizeRequest, OptimizeResponse, ServeConfig, Server};
use std::process::ExitCode;

fn serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    if fast_mode() {
        cfg.pipeline.ilt.max_iterations = 2;
        cfg.pipeline.decomp.max_candidates = 4;
    } else {
        cfg.pipeline.ilt.max_iterations = 6;
        cfg.pipeline.decomp.max_candidates = 8;
    }
    cfg
}

fn request(id: &str, seed: u64) -> OptimizeRequest {
    let layout = LayoutGenerator::new(GeneratorConfig::default(), seed)
        .generate_dataset(1)
        .remove(0);
    OptimizeRequest {
        id: id.into(),
        layout_text: layout_io::to_string(&layout),
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    }
}

fn roundtrip(addr: &str, body: &str) -> OptimizeResponse {
    let payload = client::post(addr, "/optimize", body).expect("post");
    OptimizeResponse::from_json(&payload).expect("typed response")
}

/// Uncached serving rate: every iteration rotates through a small layout
/// set below the cache (identical requests would all hit after the first
/// lap, so the rotation alone would measure the lookup path — instead the
/// cache is disabled and every round-trip pays for ranking + ILT).
fn bench_requests_per_sec(c: &mut Criterion) {
    let server = Server::start(serve_cfg()).expect("server starts");
    let addr = server.addr().to_string();
    let bodies: Vec<String> = (0..4)
        .map(|i| request(&format!("bench-{i}"), 40 + i as u64).to_json())
        .collect();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    let mut i = 0usize;
    group.bench_function("requests_per_sec", |b| {
        b.iter(|| {
            let response = roundtrip(&addr, &bodies[i % bodies.len()]);
            i += 1;
            assert_eq!(response.status, 200, "bench requests must serve");
            response
        })
    });
    group.finish();
    server.shutdown();
}

/// Cache-hit serving rate: one warmed key, so the round-trip is HTTP +
/// queue + content-addressed lookup with no optimization work — the
/// ceiling the uncached row is compared against.
fn bench_cached_requests_per_sec(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("ldmo_bench_serve_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let cache_path = dir.join("bench.cachelog");
    let _ = std::fs::remove_file(&cache_path);
    let mut cfg = serve_cfg();
    cfg.cache_path = Some(cache_path.clone());
    let server = Server::start(cfg).expect("server starts");
    let addr = server.addr().to_string();
    let body = request("bench-cached", 48).to_json();
    let warm = roundtrip(&addr, &body);
    assert_eq!(warm.status, 200);
    let mut group = c.benchmark_group("serve");
    group.sample_size(20);
    group.bench_function("cached_requests_per_sec", |b| {
        b.iter(|| {
            let response = roundtrip(&addr, &body);
            assert!(response.cached, "warmed key must hit");
            response
        })
    });
    group.finish();
    server.shutdown();
    let _ = std::fs::remove_file(&cache_path);
}

criterion_group!(
    benches,
    bench_requests_per_sec,
    bench_cached_requests_per_sec
);

fn main() -> ExitCode {
    ldmo_bench::bench_main("serve", benches)
}
