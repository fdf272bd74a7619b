//! Integration tests of the tiled full-chip pipeline (DESIGN.md §15).
//!
//! The pivotal guarantee: tiling is an implementation detail, not a
//! semantic one. A chip that fits in one tile must report exactly the
//! whole-grid flow's (and a served request's) outcome, a multi-tile run
//! must account every EPE violation to exactly one owning tile, and
//! per-tile budgets — or a chaos-plan panic striking one tile worker —
//! degrade a tile instead of aborting the chip.
//!
//! The fault plan is process-global, so every test here serializes on one
//! lock and clears the plan on entry and exit (the chaos tests install
//! `panic@2`; without the lock it would leak into the clean scenarios).

use ldmo::chip::{run_chip, ChipConfig};
use ldmo::core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo::guard::fault::{self, FaultPlan};
use ldmo::guard::{Budget, DegradeReason, OutcomeHealth};
use ldmo::ilt::IltContext;
use ldmo::layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo::layout::Layout;
use ldmo::serve::{optimize_request, PipelineConfig};
use std::sync::Mutex;

/// Serializes every test in this file: the installed fault plan is
/// process-wide state.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct ClearedPlan<'a> {
    _lock: std::sync::MutexGuard<'a, ()>,
}

/// Takes the lock and guarantees a clean plan on entry *and* exit, even
/// when the test body panics.
fn chaos_guard() -> ClearedPlan<'static> {
    let lock = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();
    ClearedPlan { _lock: lock }
}

impl Drop for ClearedPlan<'_> {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn demo_chip(cols: usize, rows: usize, seed: u64) -> Layout {
    LayoutGenerator::new(GeneratorConfig::default(), seed)
        .generate_chip(cols, rows)
        .expect("demo chip generates")
}

/// A chip config small enough for test budgets; the parity test below
/// shares it with its flow and served-request comparators.
fn fast_cfg() -> ChipConfig {
    let mut cfg = ChipConfig {
        tile_nm: 448,
        ..ChipConfig::default()
    };
    cfg.ilt.max_iterations = 6;
    cfg.decomp.max_candidates = 8;
    cfg
}

#[test]
fn one_tile_chip_matches_the_whole_grid_flow() {
    let _g = chaos_guard();
    // every Table-I case fits in one 448 nm tile, so the tiled path, a
    // served request and the whole-grid LithoProxy flow run the same
    // shared select-then-optimize loop — EPE count, attempt count, health
    // and the masks themselves must agree bit for bit. 9 iterations with
    // a warm-up of 3 put abort checks at iterations 3, 6 and 9, so the
    // attempt ladder and its fallback are exercised, not just attempt 1
    let mut cfg = fast_cfg();
    cfg.ilt.max_iterations = 9;
    cfg.ilt.abort_warmup = 3;
    let flow_cfg = FlowConfig {
        decomp: cfg.decomp.clone(),
        ilt: cfg.ilt.clone(),
        weights: cfg.weights,
        max_attempts: cfg.max_attempts,
        candidate_deadline: None,
    };
    let pcfg = PipelineConfig {
        ilt: cfg.ilt.clone(),
        decomp: cfg.decomp.clone(),
        weights: cfg.weights,
        max_attempts: cfg.max_attempts,
    };
    let ctx = IltContext::new(&pcfg.ilt);
    for (name, layout) in ldmo::bench::testcases() {
        let out = run_chip(&layout, &cfg);
        assert_eq!((out.grid.cols(), out.grid.rows()), (1, 1), "{name}");
        let flow = LdmoFlow::new(flow_cfg.clone(), SelectionStrategy::LithoProxy).run(&layout);
        let served = optimize_request(&layout, &pcfg, &ctx, None);

        // (EPE, health, attempts, candidates) of each entry point
        let (f, t, s) = (&flow.outcome, &out.tiles[0], &served);
        let want = (f.epe_violations(), f.health, flow.attempts, flow.candidates);
        let chip = (out.epe_violations, t.health, t.attempts, t.candidates);
        let serve = (s.epe_violations, s.health, s.attempts, s.candidates);
        assert_eq!(chip, want, "{name}: chip");
        assert_eq!(serve, want, "{name}: served");
        assert_eq!(out.masks, flow.outcome.masks, "{name}: chip masks");
        assert_eq!(served.masks, flow.outcome.masks, "{name}: served masks");
    }
}

#[test]
fn multi_tile_chip_accounts_every_violation_once() {
    let _g = chaos_guard();
    let layout = demo_chip(2, 2, 3);
    let mut cfg = fast_cfg();
    cfg.ilt.max_iterations = 2;
    cfg.decomp.max_candidates = 4;
    let out = run_chip(&layout, &cfg);
    assert_eq!((out.grid.cols(), out.grid.rows()), (2, 2));
    // chip masks raster the whole 896x896 nm window at 2 nm/px
    assert_eq!(out.masks[0].shape(), (448, 448));
    // the chip EPE count is exactly the sum of per-tile owned counts —
    // ownership partitions the chip, so nothing is dropped or doubled
    let owned_sum: usize = out.tiles.iter().map(|t| t.epe_owned).sum();
    assert_eq!(out.epe_violations, owned_sum);
    assert_eq!(out.tiles.len(), 4);
    assert_eq!(out.degraded_tiles, 0);
}

#[test]
fn per_tile_budget_degrades_tiles_never_the_chip() {
    let _g = chaos_guard();
    let layout = demo_chip(2, 1, 5);
    let mut cfg = fast_cfg();
    cfg.decomp.max_candidates = 4;
    cfg.ilt.budget = Budget::iterations(0);
    let out = run_chip(&layout, &cfg);
    // every non-empty tile exhausts its budget immediately, falls back to
    // the unoptimized drawn masks, and the chip still completes
    let populated = out.tiles.iter().filter(|t| t.patterns > 0).count();
    assert!(populated > 0, "demo chip has populated tiles");
    assert_eq!(out.degraded_tiles, populated);
    for t in &out.tiles {
        assert_eq!(t.health.is_degraded(), t.patterns > 0, "tile {}", t.index);
    }
    let drawn_energy: f32 = out.masks[0].as_slice().iter().sum();
    assert!(drawn_energy > 0.0, "degraded tiles still contribute masks");

    // degradation is as deterministic as the healthy path
    let again = run_chip(&layout, &cfg);
    assert_eq!(out.masks, again.masks);
    assert_eq!(out.epe_violations, again.epe_violations);
}

#[test]
fn panic_fault_degrades_the_struck_tile_never_the_chip() {
    let _g = chaos_guard();
    let layout = demo_chip(2, 2, 3);
    let mut cfg = fast_cfg();
    cfg.ilt.max_iterations = 2;
    cfg.decomp.max_candidates = 4;

    // the CI chaos spec: the worker processing tile 2 panics; the
    // catching pool contains it and `panicked_tile` rebuilds that slot
    // from the unoptimized drawn decomposition
    fault::install(FaultPlan::from_spec("panic@2").expect("spec parses"));
    let out = run_chip(&layout, &cfg);
    assert_eq!(out.tiles.len(), 4);
    assert_eq!(out.degraded_tiles, 1, "exactly the struck tile degrades");
    match &out.tiles[2].health {
        OutcomeHealth::Degraded { reason } => {
            assert_eq!(*reason, DegradeReason::WorkerPanic, "tile 2 reason")
        }
        other => panic!("tile 2 should be degraded, got {other}"),
    }
    for t in out.tiles.iter().filter(|t| t.index != 2) {
        assert!(!t.health.is_degraded(), "tile {} stays healthy", t.index);
    }
    // a rebuilt tile still owns its EPE sites: the accounting partition
    // survives the panic
    let owned_sum: usize = out.tiles.iter().map(|t| t.epe_owned).sum();
    assert_eq!(out.epe_violations, owned_sum);
    let energy: f32 = out.masks[0].as_slice().iter().sum();
    assert!(energy > 0.0, "the rebuilt tile contributes drawn masks");
}

#[test]
fn panic_fault_chip_masks_are_deterministic_under_the_plan() {
    let _g = chaos_guard();
    let layout = demo_chip(2, 2, 3);
    let mut cfg = fast_cfg();
    cfg.ilt.max_iterations = 2;
    cfg.decomp.max_candidates = 4;

    // the rebuild path is keyed only on the tile index, so two runs under
    // the same plan stitch bit-identical chip masks — chaos does not
    // break the determinism contract
    fault::install(FaultPlan::from_spec("panic@2").expect("spec parses"));
    let first = run_chip(&layout, &cfg);
    let second = run_chip(&layout, &cfg);
    assert_eq!(first.masks, second.masks);
    assert_eq!(first.epe_violations, second.epe_violations);
    assert_eq!(first.degraded_tiles, second.degraded_tiles);

    // and the degraded stitch differs from the clean one only in the
    // struck tile's contribution — clearing the plan restores the
    // baseline exactly
    fault::clear();
    let clean = run_chip(&layout, &cfg);
    assert_eq!(clean.degraded_tiles, 0);
    assert_ne!(first.masks, clean.masks, "the struck tile's mask changed");
}
