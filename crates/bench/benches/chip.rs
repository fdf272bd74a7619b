//! Tiled full-chip pipeline benchmarks (DESIGN.md §15): end-to-end
//! `run_chip` throughput on a multi-block demo chip, plus the stitch step
//! in isolation so the perf gate can bound stitching overhead relative to
//! the whole tiled run. Feeds `BENCH_chip.json` (via `--json-out`), which
//! `ldmo bench-report --gate` compares with the committed `bench_out/`
//! baseline.
//!
//! `LDMO_FAST=1` shrinks the per-tile ILT budget so the CI smoke run stays
//! cheap; the committed baseline is collected in the same mode.

use criterion::{criterion_group, Criterion};
use ldmo_bench::fast_mode;
use ldmo_chip::{run_chip, stitch_masks, ChipConfig, TileGrid};
use ldmo_geom::{Grid, Rect};
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::Layout;
use std::process::ExitCode;

/// A deterministic 2x1-block demo chip (two 448 nm tiles at the default
/// tile size) — small enough for a bench loop, large enough to exercise
/// tiling, per-tile ranking and stitching.
fn demo_chip() -> Layout {
    LayoutGenerator::new(GeneratorConfig::default(), 11)
        .generate_chip(2, 1)
        .expect("demo chip generates")
}

fn chip_cfg() -> ChipConfig {
    let mut cfg = ChipConfig::default();
    if fast_mode() {
        cfg.ilt.max_iterations = 2;
        cfg.decomp.max_candidates = 4;
    } else {
        cfg.ilt.max_iterations = 6;
        cfg.decomp.max_candidates = 8;
    }
    cfg
}

/// Whole tiled pipeline on the demo chip. The row is named for the
/// quantity it tracks: wall time per run over a fixed tile count, i.e.
/// the inverse of tiles/sec (the runner also exports a live
/// `chip.tiles_per_sec` gauge).
fn bench_chip_run(c: &mut Criterion) {
    let layout = demo_chip();
    let cfg = chip_cfg();
    let mut group = c.benchmark_group("chip");
    group.sample_size(10);
    group.bench_function("tiles_per_sec", |b| b.iter(|| run_chip(&layout, &cfg)));
    group.finish();
}

/// Stitch step alone, on synthetic per-tile masks for a 2x2 grid — the
/// overhead the perf gate bounds against the full run above.
fn bench_stitch(c: &mut Criterion) {
    let nm_per_px = 2.0;
    let grid = TileGrid::new(Rect::new(0, 0, 896, 896), 448, 270);
    let masks: Vec<_> = (0..grid.len())
        .map(|i| {
            let t = grid.tile(i);
            let w = (f64::from(t.window.width()) / nm_per_px).round() as usize;
            let h = (f64::from(t.window.height()) / nm_per_px).round() as usize;
            Some([Grid::filled(w, h, 1.0), Grid::filled(w, h, 0.5)])
        })
        .collect();
    let mut group = c.benchmark_group("chip");
    group.sample_size(20);
    group.bench_function("stitch_2x2", |b| {
        b.iter(|| stitch_masks(&grid, nm_per_px, &masks))
    });
    group.finish();
}

criterion_group!(benches, bench_chip_run, bench_stitch);

fn main() -> ExitCode {
    ldmo_bench::bench_main("chip", benches)
}
