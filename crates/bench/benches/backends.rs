//! Scalar-versus-SIMD litho benchmarks (DESIGN.md §13): the same forward
//! pass / ILT step / candidate ranking measured with the scalar passes and
//! with the vector passes, selected through the in-process
//! [`backend::set_backend`] switch. Feeds `BENCH_backends.json` (via
//! `--json-out`), which `scripts/perf_gate.py` diffs against the committed
//! `bench_out/` baseline.
//!
//! The selection is process-global; every section sets it explicitly and
//! puts `Auto` back at its end.

use criterion::{criterion_group, criterion_main, Criterion};
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_ilt::{IltConfig, IltContext, IltSession};
use ldmo_layout::cells;
use ldmo_litho::backend::{self, BackendKind};
use ldmo_litho::{simulate_print, KernelBank, LithoConfig};

fn short_ilt() -> IltConfig {
    IltConfig {
        max_iterations: 6,
        abort_warmup: 3,
        ..IltConfig::default()
    }
}

/// One full print (kernel bank forward + resist) per backend, on the
/// 224² raster of a standard cell.
fn bench_print_backends(c: &mut Criterion) {
    let cfg = LithoConfig::default();
    let bank = KernelBank::paper_bank(&cfg);
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let mask = layout.rasterize_target(cfg.nm_per_px);
    let mut group = c.benchmark_group("backend");
    group.sample_size(20);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        group.bench_function(format!("print_224_{kind}"), |b| {
            b.iter(|| simulate_print(&mask, &bank, &cfg))
        });
    }
    backend::set_backend(BackendKind::Auto);
    group.finish();
}

/// One workspace ILT iteration per backend (the flow's inner hot loop).
fn bench_step_backends(c: &mut Criterion) {
    let layout = cells::cell("BUF_X1").expect("known cell");
    let cfg = IltConfig::default();
    let mut group = c.benchmark_group("backend");
    group.sample_size(20);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        let mut session = IltSession::new(&layout, &[0, 1, 1, 0], &cfg);
        group.bench_function(format!("step_{kind}"), |b| b.iter(|| session.step_one()));
    }
    backend::set_backend(BackendKind::Auto);
    group.finish();
}

/// Litho-proxy candidate ranking per backend.
fn bench_rank_backends(c: &mut Criterion) {
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    let cfg = FlowConfig {
        ilt: short_ilt(),
        ..FlowConfig::default()
    };
    let ctx = IltContext::new(&cfg.ilt);
    let mut group = c.benchmark_group("backend");
    group.sample_size(10);
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        let mut flow = LdmoFlow::new(cfg.clone(), SelectionStrategy::LithoProxy);
        group.bench_function(format!("rank_{kind}"), |b| {
            b.iter(|| flow.rank_candidates(&layout, &candidates, &ctx))
        });
    }
    backend::set_backend(BackendKind::Auto);
    group.finish();
}

criterion_group!(
    benches,
    bench_print_backends,
    bench_step_backends,
    bench_rank_backends
);
criterion_main!(benches);
