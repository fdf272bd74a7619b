//! `chip-tiled`: repeated `run_chip` on one generated 4×2-block chip
//! (8 tiles, 6 ILT iterations and at most 8 candidates per tile,
//! litho-proxy ranking) on the 2-thread pool.
//!
//! The chip is fixed by the workload, like flow-cnn's testcases: its EPE
//! count and tile costs are properties of the layout, so a generated chip
//! per seed would move them by tens of percent between seeds. The per-tile
//! latency comes from the program's existing `chip.tile` spans, so the
//! measured window runs with the `ldmo-obs` collector on.

use crate::replay::{self, LayerTimes, Plan, Ranker};
use crate::report::Report;
use crate::{digest, setup_metric, stats, Args, LayerSummary, THREADS};
use ldmo_chip::{run_chip, stitch_masks, ChipConfig, ChipOutcome, Tile, TileGrid};
use ldmo_geom::Grid;
use ldmo_ilt::IltContext;
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::Layout;
use ldmo_serve::mask_hash;
use std::time::{Duration, Instant};

/// Generator seed of the workload's chip (the `ldmo chip` demo default).
const CHIP_SEED: u64 = 7;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Nominal seconds of one chip on a 2-core x86-64 host; the run measures
/// `max(2, ceil(seconds / CHIP_NOMINAL_S))` chips, a count that depends on
/// `--seconds` alone, so the tail's rank among the 8 replicated tiles
/// never shifts with the program's speed.
const CHIP_NOMINAL_S: f64 = 4.0;

fn chip_config() -> ChipConfig {
    let mut cfg = ChipConfig::default();
    cfg.ilt.max_iterations = 6;
    cfg.decomp.max_candidates = 8;
    cfg
}

fn chip_layout(cols: usize, rows: usize) -> Layout {
    LayoutGenerator::new(GeneratorConfig::default(), CHIP_SEED)
        .generate_chip(cols, rows)
        .expect("the demo chip generator places every block")
}

/// Set-up: generate the chip and expand the kernel bank once.
fn setup(cfg: &ChipConfig) -> (Layout, IltContext) {
    (chip_layout(4, 2), IltContext::new(&cfg.ilt))
}

/// Durations of the `chip.tile` spans recorded since the last reset, ms.
fn tile_span_ms() -> Vec<f64> {
    ldmo_obs::events_snapshot()
        .iter()
        .filter(|e| e.name == "chip.tile")
        .map(|e| e.dur_us as f64 / 1e3)
        .collect()
}

/// Runs the workload. The seed selects nothing: the chip is fixed.
pub fn run(args: &Args, report: &mut Report) {
    let cfg = chip_config();
    if args.trace {
        return traced(&cfg, report);
    }
    let mut times = Vec::with_capacity(SETUPS);
    let mut layout = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (l, _ctx) = setup(&cfg);
        times.push(t0.elapsed());
        layout = Some(l);
    }
    setup_metric(report, &times);
    let layout = layout.expect("at least one set-up");
    // a one-tile chip warms the pool and the lazy state before timing
    let _ = run_chip(&chip_layout(1, 1), &cfg);

    ldmo_obs::enable();
    let mut tile_ms = Vec::new();
    let mut chip_hash: Option<String> = None;
    let mut epe: Option<usize> = None;
    let chips = ((args.seconds as f64 / CHIP_NOMINAL_S).ceil() as usize).max(2);
    let mut tiles_time = Duration::ZERO;
    let cpu0 = crate::sys::cpu_time();
    let host0 = crate::sys::host_ticks();
    let start = Instant::now();
    for _ in 0..chips {
        ldmo_obs::reset();
        let out = run_chip(&layout, &cfg);
        tiles_time += out.timing.total();
        tile_ms.extend(tile_span_ms());
        report.attempted += out.tiles.len() as u64;
        report.failed += out.degraded_tiles as u64;
        let h = mask_hash(&out.masks);
        report.check(
            chip_hash.get_or_insert_with(|| h.clone()) == &h,
            "chip masks differ between runs of the same chip",
        );
        report.check(
            *epe.get_or_insert(out.epe_violations) == out.epe_violations,
            "chip EPE differs between runs of the same chip",
        );
    }
    let wall = start.elapsed();
    let cpu = crate::sys::cpu_time().zip(cpu0).map(|(b, a)| b - a);
    crate::sys::print_steal(host0);
    ldmo_obs::disable();
    let tiles = report.attempted as f64;
    report.check(
        tile_ms.len() == report.attempted as usize,
        format!("{} chip.tile spans for {tiles} tiles", tile_ms.len()),
    );
    println!(
        "chips: {chips} of {} tiles, {:.3} s ({:.3} s inside run_chip)",
        tiles as usize / chips,
        wall.as_secs_f64(),
        tiles_time.as_secs_f64()
    );
    println!(
        "digest chip-tiled {}",
        digest([chip_hash.as_deref().unwrap_or("-")])
    );
    println!(
        "chip_epe_total = {} EPE violations per chip",
        epe.unwrap_or(0)
    );
    println!("names: chip_tiles_per_s = throughput_per_s, p50_ms and tail_ms are per tile");
    report.metric("throughput_per_s", tiles / wall.as_secs_f64(), "1/s");
    report.metric("p50_ms", stats::median(&tile_ms), "ms");
    report.tail_metric("tail_ms", stats::tail(&tile_ms), "ms");
    crate::cpu_metric(report, cpu, tile_ms.len());
}

/// One tile's replay result.
struct TileReplay {
    times: LayerTimes,
    masks: Option<[Grid; 2]>,
    assignment: Vec<u8>,
    epe_owned: usize,
    wall: Duration,
}

/// Replays one tile of `run_chip` from layer calls: extract the haloed
/// window, rank by the litho proxy, attempt, and count EPE on the
/// patterns the tile owns.
fn replay_tile(
    layout: &Layout,
    tile: &Tile,
    grid: &TileGrid,
    cfg: &ChipConfig,
    ctx: &IltContext,
) -> TileReplay {
    let t0 = Instant::now();
    let mut t = LayerTimes::default();
    let sub = t.extract.time(|| layout.extract_window(tile.window));
    if sub.is_empty() {
        return TileReplay {
            times: t,
            masks: None,
            assignment: Vec::new(),
            epe_owned: 0,
            wall: t0.elapsed(),
        };
    }
    let plan = Plan {
        max_attempts: cfg.max_attempts,
        dedupe: true,
    };
    let r = replay::select_and_optimize(
        &sub,
        ctx,
        &cfg.decomp,
        Ranker::Proxy(cfg.weights),
        plan,
        &mut t,
    );
    let owned = |pattern: usize| {
        let c = sub.patterns()[pattern]
            .translated(tile.window.x0, tile.window.y0)
            .center();
        grid.owner_of(c.x, c.y) == tile.index
    };
    let epe_owned = r
        .outcome
        .epe
        .sites
        .iter()
        .filter(|s| s.violation && owned(s.checkpoint.pattern))
        .count();
    TileReplay {
        times: t,
        masks: Some(r.outcome.masks),
        assignment: r.assignment,
        epe_owned,
        wall: t0.elapsed(),
    }
}

/// The traced run: one untraced `run_chip`, one with the collector on (for
/// the pool and tile spans), and a replay of every tile from layer calls
/// on the same 2-thread pool, whose stitched masks must match.
fn traced(cfg: &ChipConfig, report: &mut Report) {
    let layout = chip_layout(4, 2);
    let t0 = Instant::now();
    let ctx = IltContext::new(&cfg.ilt);
    let kernel_expand = t0.elapsed();
    let _ = run_chip(&chip_layout(1, 1), cfg);

    let t0 = Instant::now();
    let real: ChipOutcome = run_chip(&layout, cfg);
    let untraced = t0.elapsed();
    let real_hash = mask_hash(&real.masks);
    report.attempted += real.tiles.len() as u64;
    report.failed += real.degraded_tiles as u64;
    let attempts: usize = real.tiles.iter().map(|s| s.attempts).sum();
    let iterations: usize = real.tiles.iter().map(|s| s.iterations).sum();
    let worked = real.tiles.iter().filter(|s| s.attempts > 0).count();

    // the real entry point with the collector on: pool and tile spans
    ldmo_obs::reset();
    ldmo_obs::enable();
    let before = ldmo_obs::snapshot::MetricsSnapshot::take();
    let t0 = Instant::now();
    let spanned = run_chip(&layout, cfg);
    let collector_wall = t0.elapsed();
    let busy = crate::busy_fraction_since(&before, spanned.timing.tiles);
    let wait = ldmo_obs::histogram("par.worker_wait_us").snapshot();
    let tile_ms = tile_span_ms();
    report.check(
        mask_hash(&spanned.masks) == real_hash,
        "collector changed the chip masks",
    );

    // the replay, tiles fanned over the same pool
    let tiles = real.grid.tiles();
    let t0 = Instant::now();
    let replayed = ldmo_par::global().par_map(&tiles, |tile| {
        replay_tile(&layout, tile, &real.grid, cfg, &ctx)
    });
    let slots: Vec<Option<[Grid; 2]>> = replayed.iter().map(|r| r.masks.clone()).collect();
    let mut t = LayerTimes::default();
    let stitched = t
        .stitch
        .time(|| stitch_masks(&real.grid, cfg.ilt.litho.nm_per_px, &slots));
    let replay_wall = t0.elapsed();
    ldmo_obs::disable();
    let mut tile_wall = t.stitch.total;
    let mut epe = 0;
    for r in &replayed {
        t.merge(&r.times);
        tile_wall += r.wall;
        epe += r.epe_owned;
    }
    report.check(
        mask_hash(&stitched) == real_hash,
        "replayed chip masks differ from run_chip",
    );
    report.check(
        epe == real.epe_violations,
        format!(
            "replayed chip EPE {epe} != run_chip {}",
            real.epe_violations
        ),
    );
    let accounted = t.accounted(false);

    // probes: the two halves of step_one and the layout text round trip
    // on every tile, and the CNN ranking the chip path does not take (an
    // untrained network costs the same per call) on the chip's 8 blocks —
    // the network needs its training window, which a haloed tile is not
    for (tile, r) in tiles.iter().zip(&replayed) {
        let sub = layout.extract_window(tile.window);
        if sub.is_empty() {
            continue;
        }
        replay::probe_forward_gradient(&sub, &ctx, &r.assignment, &mut t);
        if let Some(masks) = &r.masks {
            replay::probe_checks(&sub, &ctx, masks, &mut t);
        }
        report.check(
            replay::probe_io(&sub, &mut t),
            "layout text round trip is lossy",
        );
    }
    let mut probe = ldmo_core::predictor::PrintabilityPredictor::lite(7);
    let mut blocks = LayoutGenerator::new(GeneratorConfig::default(), CHIP_SEED);
    for _ in 0..tiles.len() {
        let block = blocks.generate().expect("the chip's blocks generate");
        let cands = ldmo_decomp::generate_candidates(&block, &cfg.decomp);
        t.rank_nn.time(|| probe.rank(&block, &cands));
    }

    let mean = stats::mean(&tile_ms);
    let max = tile_ms.iter().copied().fold(0.0, f64::max);
    println!(
        "chip.tile_max_over_mean = {:.6} ratio ({} tiles)",
        max / mean.max(1e-9),
        tile_ms.len()
    );
    println!(
        "chip.stitch_us = {:.3} us",
        real.timing.stitch.as_secs_f64() * 1e6
    );
    println!(
        "par.worker_wait_us = {:.3} us mean over {} pickups",
        wait.mean(),
        wait.count
    );
    println!(
        "run_chip wall: untraced {:.3} s, collector on {:.3} s; replay on {THREADS} threads {:.3} s",
        untraced.as_secs_f64(),
        collector_wall.as_secs_f64(),
        replay_wall.as_secs_f64()
    );
    let units = tiles.len();
    LayerSummary {
        times: &t,
        kernel_expand,
        attempts_per_unit: attempts as f64 / units as f64,
        iterations_per_unit: iterations as f64 / units as f64,
        useful_ratio: worked as f64 / attempts.max(1) as f64,
        busy_fraction: busy,
        units,
        unit_wall: tile_wall,
        accounted,
        overhead_ratio: replay_wall.as_secs_f64() / untraced.as_secs_f64(),
    }
    .emit(report);
}
