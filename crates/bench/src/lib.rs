#![warn(missing_docs)]
//! # ldmo-bench — the benchmark harness
//!
//! Shared infrastructure for the table/figure reproduction binaries
//! (`src/bin/table1.rs`, `fig1b.rs`, `fig1c.rs`, `fig7.rs`, `fig8.rs`) and
//! the criterion micro-benchmarks (`benches/`).
//!
//! Every binary accepts the `LDMO_FAST=1` environment variable to shrink
//! workloads (fewer training labels, fewer ILT iterations) for smoke runs;
//! the full settings reproduce the shapes reported in EXPERIMENTS.md.
//!
//! Every binary also accepts `--json-out PATH` to emit a machine-readable
//! `BENCH_<name>.json` report ([`report`]) consumed by the
//! `ldmo bench-report` aggregator and the CI perf gate.

pub mod report;

use ldmo_core::dataset::{build_dataset, DatasetConfig, SamplerKind};
use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_core::sampling::SamplingConfig;
use ldmo_core::trainer::{train, TrainConfig};
use ldmo_decomp::is_dpl_compatible;
use ldmo_layout::cells;
use ldmo_layout::classify::ClassifyConfig;
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::Layout;
use std::path::PathBuf;

/// Whether fast (smoke-test) mode is requested via `LDMO_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("LDMO_FAST").is_ok_and(|v| v == "1")
}

/// The live-ops guards a bench binary holds for the duration of its run:
/// the `/metrics` endpoint server and the sampling profiler, both `None`
/// unless requested (`--metrics-addr` / `--sample-hz` or their env
/// equivalents). Dropping this stops both.
pub struct LiveOps {
    /// The metrics endpoint server guard.
    pub server: Option<ldmo_obs::serve::MetricsServer>,
    /// The sampling-profiler guard.
    pub sampler: Option<ldmo_obs::profiler::Sampler>,
}

/// One-call setup for the bench bins, mirroring the `ldmo` CLI: installs
/// the crash hooks (panic → trace flush + flight dump), sizes the worker
/// pool (`--threads`), records the litho backend in the run info, then
/// starts the metrics endpoint and the sampling profiler when the CLI or
/// environment asks for them. Call after [`ldmo_obs::trace_setup`] so the
/// crash path knows the trace destination; keep the returned guard alive
/// until the run ends. A malformed `--threads` or `--sample-hz` exits 2.
pub fn live_setup() -> LiveOps {
    ldmo_guard::ops::install_crash_hooks();
    // bench bins honor LDMO_FAULTS like the ldmo CLI does — chaos runs
    // against the real workloads are how the flight recorder is exercised
    // in CI; a malformed spec is a hard error (exit 7), not a silent no-op
    if let Err(e) = ldmo_guard::fault::init_from_env() {
        eprintln!("error: {e}");
        std::process::exit(7);
    }
    let sampler = ldmo_par::cli_setup()
        .and_then(|_| ldmo_obs::profiler::cli_setup())
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
    ldmo_obs::set_run_info("backend", ldmo_litho::backend::resolved_kind().as_str());
    LiveOps {
        server: ldmo_obs::serve::cli_setup(),
        sampler,
    }
}

/// The 13 Table-I testcases: the 8 NanGate-like cell templates plus 5
/// seeded generator layouts, mirroring the paper's 13 NanGate testcases.
pub fn testcases() -> Vec<(String, Layout)> {
    let mut cases: Vec<(String, Layout)> = cells::all_cells()
        .into_iter()
        .map(|(n, l)| (n.to_owned(), l))
        .collect();
    let mut generator = LayoutGenerator::new(dense_generator_config(), 777);
    for (i, layout) in dpl_compatible(&mut generator, 5).into_iter().enumerate() {
        cases.push((format!("GEN_{}", i + 1), layout));
    }
    cases
}

/// Draws `count` DPL-compatible layouts: layouts whose sub-`nmin` conflict
/// graph is non-bipartite are rejected, as a real double-patterning design
/// flow would do before decomposition.
fn dpl_compatible(generator: &mut LayoutGenerator, count: usize) -> Vec<Layout> {
    let nmin = ClassifyConfig::default().nmin;
    let mut out = Vec::with_capacity(count);
    let mut guard = 0;
    while out.len() < count && guard < count * 40 {
        guard += 1;
        for layout in generator.generate_dataset(1) {
            if is_dpl_compatible(&layout, nmin) {
                out.push(layout);
            }
        }
    }
    out
}

/// A denser generator configuration for testcases: more contacts, tighter
/// gap mix, so decomposition choice measurably matters.
pub fn dense_generator_config() -> GeneratorConfig {
    GeneratorConfig {
        min_patterns: 6,
        max_patterns: 9,
        gap_choices: vec![56.0, 60.0, 64.0, 72.0, 84.0, 92.0, 104.0],
        ..GeneratorConfig::default()
    }
}

/// A smaller evaluation suite for the Fig. 8 sampling ablation (distinct
/// from the training pool).
pub fn eval_suite() -> Vec<(String, Layout)> {
    let mut generator = LayoutGenerator::new(dense_generator_config(), 31_337);
    dpl_compatible(&mut generator, 6)
        .into_iter()
        .enumerate()
        .map(|(i, l)| (format!("EVAL_{}", i + 1), l))
        .collect()
}

/// Where cached predictor weights live (survives across harness runs).
pub fn cache_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("ldmo-cache");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Training-set scale used by the harness.
pub fn harness_sampling_config(fast: bool) -> SamplingConfig {
    if fast {
        SamplingConfig {
            clusters: 2,
            per_cluster: 1,
            max_per_layout: 4,
            ..SamplingConfig::default()
        }
    } else {
        SamplingConfig {
            clusters: 10,
            per_cluster: 3,
            max_per_layout: 8,
            ..SamplingConfig::default()
        }
    }
}

/// Returns a trained predictor for the given sampling strategy, loading
/// cached weights when available (cache key includes the strategy and
/// scale tag).
pub fn trained_predictor(kind: &SamplerKind, tag: &str) -> PrintabilityPredictor {
    let fast = fast_mode();
    let path = cache_dir().join(format!(
        "predictor-{tag}-{}.bin",
        if fast { "fast" } else { "full" }
    ));
    let mut predictor = PrintabilityPredictor::lite(7);
    if predictor.load(&path).is_ok() {
        eprintln!("[bench] loaded cached predictor: {}", path.display());
        return predictor;
    }
    eprintln!("[bench] training predictor '{tag}' (strategy {kind:?}) …");
    let pool = if fast { 10 } else { 36 };
    // train on a mix matching the testcase distribution: dense
    // DPL-compatible layouts plus default-density layouts (which carry the
    // VP/NP variety that yields multiple decompositions per layout)
    let mut dense = LayoutGenerator::new(dense_generator_config(), 2020);
    let mut layouts = dpl_compatible(&mut dense, pool / 2);
    let mut default_gen = LayoutGenerator::new(GeneratorConfig::default(), 4040);
    layouts.extend(dpl_compatible(&mut default_gen, pool - pool / 2));
    let scfg = harness_sampling_config(fast);
    let mut dcfg = DatasetConfig::default();
    if fast {
        dcfg.ilt.max_iterations = 8;
    }
    let dataset = build_dataset(&layouts, kind, &scfg, &dcfg).augmented();
    eprintln!(
        "[bench] labeled {} pairs (with symmetry augmentation); training …",
        dataset.len()
    );
    let tcfg = TrainConfig {
        epochs: if fast { 8 } else { 30 },
        batch_size: 8,
        lr: 1e-3,
        seed: 1,
        ..TrainConfig::default()
    };
    let history = train(&mut predictor, &dataset, &tcfg);
    eprintln!(
        "[bench] trained: MAE {:.3} -> {:.3}",
        history.epoch_mae.first().copied().unwrap_or(f32::NAN),
        history.final_mae().unwrap_or(f32::NAN)
    );
    if let Err(e) = predictor.save(&path) {
        eprintln!("[bench] warning: could not cache weights: {e}");
    }
    predictor
}

/// Formats a `Duration` as seconds with one decimal.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_testcases() {
        let cases = testcases();
        assert_eq!(cases.len(), 13);
        // unique names
        let names: std::collections::HashSet<_> = cases.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn eval_suite_has_expected_size() {
        assert_eq!(eval_suite().len(), 6);
    }
}
