//! The tiled chip scheduler: per-tile decomposition + ILT on the pool,
//! degradation-not-abortion failure semantics, deterministic stitching.

use crate::stitch::stitch_masks;
use crate::tiles::{halo_nm, px_quantum, snap_up, Tile, TileGrid};
use ldmo_core::score::ScoreWeights;
use ldmo_core::select::{attempt_ladder, rank_by_proxy};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::Grid;
use ldmo_guard::{DegradeReason, OutcomeHealth};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome, IltScratch};
use ldmo_layout::Layout;
use std::time::{Duration, Instant};

/// Configuration of a tiled chip run.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// Tile core pitch in nm (default 448, the paper's cell window; edge
    /// tiles may be smaller). Snapped up to the pixel quantum at run time.
    pub tile_nm: i32,
    /// Per-tile ILT engine config. Its [`ldmo_guard::Budget`] bounds each
    /// *tile* — a blown budget degrades that tile to its unoptimized
    /// drawn-decomposition mask instead of aborting the chip.
    pub ilt: IltConfig,
    /// Per-tile candidate generation (its `max_candidates` caps the
    /// ranking fan-out per tile).
    pub decomp: DecompConfig,
    /// Eq. 9 weights for the per-tile litho-proxy ranking.
    pub weights: ScoreWeights,
    /// Candidates attempted per tile before completing the best-ranked
    /// one without the abort policy (mirrors `FlowConfig::max_attempts`).
    pub max_attempts: usize,
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            tile_nm: 448,
            ilt: IltConfig::default(),
            decomp: DecompConfig::default(),
            weights: ScoreWeights::default(),
            max_attempts: 4,
        }
    }
}

/// Wall-clock breakdown of one chip run. Mirrors `FlowTiming`: the
/// buckets sum exactly to the measured total by construction (`setup`
/// absorbs everything that is neither tile optimization nor stitching),
/// so no stage can silently fall outside all buckets. `ldmo trace
/// summarize --reconcile` checks the same identity on the `chip.run`
/// span's metadata.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChipTiming {
    /// Kernel expansion, tiling, scheduling overhead.
    pub setup: Duration,
    /// Parallel per-tile optimization (wall clock of the fan-out, not the
    /// sum of per-tile times).
    pub tiles: Duration,
    /// Stitching the per-tile masks into the chip masks.
    pub stitch: Duration,
}

impl ChipTiming {
    /// Splits a measured total into the three buckets.
    pub fn from_total(total: Duration, tiles: Duration, stitch: Duration) -> Self {
        ChipTiming {
            setup: total.saturating_sub(tiles).saturating_sub(stitch),
            tiles,
            stitch,
        }
    }

    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.setup + self.tiles + self.stitch
    }
}

/// Per-tile result summary.
#[derive(Debug, Clone)]
pub struct TileSummary {
    /// Row-major tile index.
    pub index: usize,
    /// Patterns in the tile's haloed window (owned + halo neighbours).
    pub patterns: usize,
    /// Decomposition candidates ranked for this tile.
    pub candidates: usize,
    /// ILT attempts (0 for empty tiles).
    pub attempts: usize,
    /// ILT iterations of the accepted run.
    pub iterations: usize,
    /// EPE violations on checkpoints of patterns this tile *owns* (halo
    /// neighbours are counted by their owning tile, so the chip total
    /// counts every pattern exactly once).
    pub epe_owned: usize,
    /// Guard verdict of the accepted run. `Degraded` means the tile fell
    /// back to its unoptimized drawn-decomposition mask.
    pub health: OutcomeHealth,
}

/// Result of a tiled chip run.
#[derive(Debug)]
pub struct ChipOutcome {
    /// The stitched chip-scale double-patterning masks.
    pub masks: [Grid; 2],
    /// Per-tile summaries, in row-major tile order.
    pub tiles: Vec<TileSummary>,
    /// The tile grid the run used (carries the derived halo).
    pub grid: TileGrid,
    /// Total EPE violations: the sum of [`TileSummary::epe_owned`].
    pub epe_violations: usize,
    /// Tiles that degraded to their unoptimized mask.
    pub degraded_tiles: usize,
    /// Wall-clock breakdown.
    pub timing: ChipTiming,
}

/// What one tile hands back to the stitcher.
struct TileResult {
    masks: Option<[Grid; 2]>,
    summary: TileSummary,
}

/// Runs the full tiled pipeline on `layout`: tile the window with a halo
/// derived from the kernel bank, run decomposition selection + ILT per
/// tile on the global [`ldmo_par`] pool (recycled per-worker scratch),
/// and stitch the owned core regions into one chip mask pair.
///
/// Deterministic for any thread count: tiles are keyed by index, the
/// stitcher writes disjoint owner-only regions in index order, and every
/// per-tile decision (ranking, attempts, fallbacks) is index- and
/// value-keyed, never timing-keyed.
///
/// # Panics
///
/// Panics if the layout window is empty.
pub fn run_chip(layout: &Layout, cfg: &ChipConfig) -> ChipOutcome {
    let run_start = Instant::now();
    let mut root = ldmo_obs::span("chip.run");
    let ctx = IltContext::new(&cfg.ilt);
    let quantum = px_quantum(cfg.ilt.litho.nm_per_px);
    let halo = halo_nm(ctx.bank(), &cfg.ilt.litho);
    let grid = TileGrid::new(layout.window(), snap_up(cfg.tile_nm, quantum), halo);
    let tiles = grid.tiles();
    root.set("tiles", tiles.len() as f64);

    let tiles_start = Instant::now();
    let pool = ldmo_par::global();
    let results = pool.par_map_init_catching(
        &tiles,
        || None::<IltScratch>,
        |scratch, tile| process_tile(layout, tile, &grid, cfg, &ctx, scratch),
    );
    // a panicked worker loses one tile, not the chip: rebuild that tile's
    // slot serially from its unoptimized drawn decomposition, marked
    // degraded (deterministic — keyed only on the tile index)
    let results: Vec<TileResult> = results
        .into_iter()
        .zip(&tiles)
        .map(|(r, tile)| {
            r.unwrap_or_else(|_| {
                ldmo_obs::incr("chip.tile_panics");
                panicked_tile(layout, tile, &grid, cfg, &ctx)
            })
        })
        .collect();
    let tiles_time = tiles_start.elapsed();

    let mut mask_slots: Vec<Option<[Grid; 2]>> = Vec::with_capacity(results.len());
    let mut summaries: Vec<TileSummary> = Vec::with_capacity(results.len());
    for r in results {
        mask_slots.push(r.masks);
        summaries.push(r.summary);
    }
    let stitch_start = Instant::now();
    let masks = stitch_masks(&grid, cfg.ilt.litho.nm_per_px, &mask_slots);
    let stitch_time = stitch_start.elapsed();

    let epe_violations = summaries.iter().map(|s| s.epe_owned).sum();
    let degraded_tiles = summaries.iter().filter(|s| s.health.is_degraded()).count();
    let timing = ChipTiming::from_total(run_start.elapsed(), tiles_time, stitch_time);

    if ldmo_obs::enabled() {
        let secs = tiles_time.as_secs_f64();
        if secs > 0.0 {
            ldmo_obs::gauge("chip.tiles_per_sec").set(tiles.len() as f64 / secs);
        }
    }
    root.set("degraded", degraded_tiles as f64);
    root.set("epe", epe_violations as f64);
    root.set("tiles_us", timing.tiles.as_micros() as f64);
    root.set("stitch_us", timing.stitch.as_micros() as f64);
    root.set("setup_us", timing.setup.as_micros() as f64);

    ChipOutcome {
        masks,
        tiles: summaries,
        grid,
        epe_violations,
        degraded_tiles,
        timing,
    }
}

/// Which sub-layout patterns this tile owns: a pattern belongs to the
/// tile whose core contains its center (in chip coordinates). Patterns in
/// the halo are optimized here for optical context but scored by their
/// owner, so the chip EPE total counts each exactly once.
fn owned_flags(sub: &Layout, tile: &Tile, grid: &TileGrid) -> Vec<bool> {
    sub.patterns()
        .iter()
        .map(|r| {
            let c = r.translated(tile.window.x0, tile.window.y0).center();
            grid.owner_of(c.x, c.y) == tile.index
        })
        .collect()
}

/// EPE violations restricted to owned patterns.
fn owned_epe(out: &IltOutcome, owned: &[bool]) -> usize {
    out.epe
        .sites
        .iter()
        .filter(|s| s.violation && owned.get(s.checkpoint.pattern).copied().unwrap_or(false))
        .count()
}

/// The full per-tile pipeline: extract the haloed window, generate
/// decomposition candidates, run the shared select-then-optimize loop
/// (`ldmo_core::select`: serial litho-proxy ranking and the attempt
/// ladder, both on this worker's scratch), and degrade to the unoptimized
/// drawn mask when the accepted run is unhealthy (budget exhausted,
/// divergence limit, …).
fn process_tile(
    layout: &Layout,
    tile: &Tile,
    grid: &TileGrid,
    cfg: &ChipConfig,
    ctx: &IltContext,
    scratch: &mut Option<IltScratch>,
) -> TileResult {
    // the chip fan-out's fault-injection point, keyed by tile index like
    // the flow's candidate tasks: a planned panic here is contained by
    // the catching pool map and rebuilt by `panicked_tile`
    ldmo_guard::fault::apply_stall(tile.index);
    ldmo_guard::fault::maybe_panic(tile.index);
    let mut span = ldmo_obs::span("chip.tile");
    span.set("tile", tile.index as f64);
    if ldmo_obs::enabled() {
        ldmo_obs::counter("chip.tiles").incr();
    }
    let sub = layout.extract_window(tile.window);
    span.set("patterns", sub.len() as f64);
    if sub.is_empty() {
        return TileResult {
            masks: None,
            summary: empty_summary(tile.index),
        };
    }
    let owned = owned_flags(&sub, tile, grid);
    let candidates = generate_candidates(&sub, &cfg.decomp);
    span.set("candidates", candidates.len() as f64);
    let order = rank_by_proxy(&sub, &candidates, ctx, &cfg.weights, scratch);
    let chosen = attempt_ladder(
        &sub,
        &candidates,
        &order,
        ctx,
        cfg.max_attempts,
        scratch,
        |_, run| run(),
    );
    let out = chosen.outcome;

    // budget-degradation semantics: an unhealthy accepted run falls back
    // to the drawn decomposition's unoptimized mask — a safe, always-
    // printable-as-drawn result — and stays marked degraded
    let (masks, epe_owned) = if out.health.is_degraded() {
        ldmo_obs::incr("chip.tiles_degraded");
        let un = ctx.evaluate_unoptimized_reusing(&sub, &candidates[chosen.index], scratch);
        (un.masks.clone(), owned_epe(&un, &owned))
    } else {
        (out.masks.clone(), owned_epe(&out, &owned))
    };
    span.set("iterations", out.iterations_run as f64);
    span.set("epe", epe_owned as f64);
    span.set("degraded", if out.health.is_degraded() { 1.0 } else { 0.0 });
    TileResult {
        masks: Some(masks),
        summary: TileSummary {
            index: tile.index,
            patterns: sub.len(),
            candidates: candidates.len(),
            attempts: chosen.attempts,
            iterations: out.iterations_run,
            epe_owned,
            health: out.health,
        },
    }
}

/// Serial replacement for a tile whose pool worker panicked: the first
/// generated candidate's unoptimized drawn mask, marked degraded.
fn panicked_tile(
    layout: &Layout,
    tile: &Tile,
    grid: &TileGrid,
    cfg: &ChipConfig,
    ctx: &IltContext,
) -> TileResult {
    let sub = layout.extract_window(tile.window);
    if sub.is_empty() {
        return TileResult {
            masks: None,
            summary: empty_summary(tile.index),
        };
    }
    let owned = owned_flags(&sub, tile, grid);
    let candidates = generate_candidates(&sub, &cfg.decomp);
    let out = ctx.evaluate_unoptimized(&sub, &candidates[0]);
    let epe_owned = owned_epe(&out, &owned);
    TileResult {
        masks: Some(out.masks.clone()),
        summary: TileSummary {
            index: tile.index,
            patterns: sub.len(),
            candidates: candidates.len(),
            attempts: 0,
            iterations: 0,
            epe_owned,
            health: OutcomeHealth::Degraded {
                reason: DegradeReason::WorkerPanic,
            },
        },
    }
}

fn empty_summary(index: usize) -> TileSummary {
    TileSummary {
        index,
        patterns: 0,
        candidates: 0,
        attempts: 0,
        iterations: 0,
        epe_owned: 0,
        health: OutcomeHealth::Clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    /// Narrow optics keep test tiles small and fast: σ ≤ 30 nm → ~45 px
    /// interaction radius → 90 nm halo at 2 nm/px.
    fn fast_cfg() -> ChipConfig {
        let mut cfg = ChipConfig {
            tile_nm: 224,
            ..ChipConfig::default()
        };
        cfg.ilt.max_iterations = 4;
        cfg.ilt.litho.sigma_primary = 16.0;
        cfg.ilt.litho.ring_sigma = 20.0;
        cfg.ilt.litho.sigma_secondary = 30.0;
        cfg
    }

    fn two_block_layout() -> Layout {
        // two pattern clusters in separate tiles of a 448x224 chip
        Layout::new(
            Rect::new(0, 0, 448, 224),
            vec![
                Rect::square(40, 80, 64),
                Rect::square(160, 80, 64),
                Rect::square(300, 80, 64),
            ],
        )
    }

    #[test]
    fn chip_run_covers_every_tile() {
        let layout = two_block_layout();
        let cfg = fast_cfg();
        let out = run_chip(&layout, &cfg);
        assert_eq!(out.grid.len(), 2);
        assert_eq!(out.tiles.len(), 2);
        assert_eq!(out.masks[0].shape(), (224, 112));
        // every pattern owned exactly once across tiles
        let owned_total: usize = {
            let grid = &out.grid;
            layout
                .patterns()
                .iter()
                .map(|r| {
                    let c = r.center();
                    grid.owner_of(c.x, c.y)
                })
                .count()
        };
        assert_eq!(owned_total, 3);
        assert!(out.timing.total().as_nanos() > 0);
    }

    #[test]
    fn empty_regions_yield_zero_masks() {
        let layout = Layout::new(Rect::new(0, 0, 448, 224), vec![Rect::square(40, 80, 64)]);
        let out = run_chip(&layout, &fast_cfg());
        // tile 1 (x >= 224 + halo has no patterns): its core region must
        // be zero in both masks beyond the halo-shared pattern reach
        assert_eq!(out.tiles[1].patterns, 0);
        assert_eq!(out.tiles[1].attempts, 0);
        // the empty tile's owned region stays zero in both masks
        for m in &out.masks {
            for y in 0..112 {
                for x in 112..224 {
                    assert_eq!(m.get(x, y), 0.0, "mask pixel ({x},{y}) written");
                }
            }
        }
    }

    #[test]
    fn per_tile_budget_degrades_not_aborts() {
        let layout = two_block_layout();
        let mut cfg = fast_cfg();
        cfg.ilt.budget = ldmo_guard::Budget {
            max_iterations: Some(0),
            max_wall: None,
        };
        let out = run_chip(&layout, &cfg);
        // both non-empty tiles degrade; the chip still completes with
        // drawn-decomposition masks
        assert_eq!(out.degraded_tiles, 2);
        assert!(out
            .tiles
            .iter()
            .all(|t| t.patterns == 0 || matches!(t.health, OutcomeHealth::Degraded { .. })));
        assert!(out.masks[0].sum() + out.masks[1].sum() > 0.0);
    }

    #[test]
    fn chip_epe_sums_owned_tiles() {
        let layout = two_block_layout();
        let out = run_chip(&layout, &fast_cfg());
        assert_eq!(
            out.epe_violations,
            out.tiles.iter().map(|t| t.epe_owned).sum::<usize>()
        );
    }

    #[test]
    fn run_is_repeatable_bit_exactly() {
        let layout = two_block_layout();
        let cfg = fast_cfg();
        let a = run_chip(&layout, &cfg);
        let b = run_chip(&layout, &cfg);
        assert_eq!(a.masks[0], b.masks[0]);
        assert_eq!(a.masks[1], b.masks[1]);
        assert_eq!(a.epe_violations, b.epe_violations);
    }
}
