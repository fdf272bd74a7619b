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
//! Every binary and bench target also accepts `--json-out PATH` to emit a
//! machine-readable `BENCH_<name>.json` report ([`report`]) that
//! `ldmo bench-report` lists and gates. The bins, the bench targets
//! ([`bench_main`]) and the `ldmo` CLI share one start-up, [`run_main`];
//! an undeclared flag exits 2.

pub mod report;

use ldmo_core::dataset::{build_dataset, DatasetConfig, SamplerKind};
use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_core::sampling::SamplingConfig;
use ldmo_core::trainer::{train, TrainConfig};
use ldmo_decomp::is_dpl_compatible;
use ldmo_guard::cli::{self, Args, Globals, Spec};
use ldmo_guard::LdmoError;
use ldmo_layout::cells;
use ldmo_layout::classify::ClassifyConfig;
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::Layout;
use ldmo_obs::serve::MetricsServer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Whether fast (smoke-test) mode is requested via `LDMO_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("LDMO_FAST").is_ok_and(|v| v == "1")
}

/// Runs a binary's `body` under the start-up all workspace binaries share:
/// parse the command line against `specs` (a usage error exits 2 before
/// anything starts), install the crash hooks and any `LDMO_FAULTS` plan
/// (a malformed spec exits 7), enable tracing, size the worker pool, put
/// `threads`, `backend` and `isa` into the run info, and start the
/// `/metrics` endpoint when asked (a bind failure only warns). Then
/// the trace is written (a failed write fails a clean run, exit 6), and
/// a failed run leaves a flight-recorder dump. Errors print as `error: …`
/// and exit with [`LdmoError::exit_code`].
pub fn run_main(specs: &[Spec], body: impl FnOnce(&Args) -> Result<(), LdmoError>) -> ExitCode {
    let result = cli::parse_env(specs).and_then(|args| {
        // the endpoint stays up until the trace has landed
        let _server = start(&args.globals)?;
        let trace_out = args.globals.trace_out.as_deref();
        body(&args).map_or_else(
            |e| {
                if let Err(trace) = finish_trace(trace_out) {
                    eprintln!("error: {trace}");
                }
                let _ = ldmo_guard::ops::dump_on_error(&e);
                Err(e)
            },
            |()| finish_trace(trace_out),
        )
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// The `main` of a criterion bench target `name`: `run` measures and
/// returns its completed `(id, samples)` rows, which become the
/// `BENCH_<name>.json` report (unit `ns`) that `--json-out PATH` writes.
/// It declares the `--bench` switch cargo passes to a `harness = false`
/// target, and no positional, so a bench-name filter is a usage error.
pub fn bench_main(name: &str, run: impl FnOnce() -> Vec<(String, Vec<Duration>)>) -> ExitCode {
    run_main(&[Spec::new(name, &["json-out"], &["bench"], 0)], |args| {
        let rows = run();
        let mut report = report::BenchReport::new(name);
        for (id, samples) in rows {
            let ns: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
            report.push_samples(id, "ns", &ns);
        }
        report::maybe_write(&report, args.value("json-out"));
        Ok(())
    })
}

fn start(globals: &Globals) -> Result<Option<MetricsServer>, LdmoError> {
    ldmo_guard::ops::install_crash_hooks();
    ldmo_guard::fault::init_from_env()?;
    if let Some(path) = &globals.trace_out {
        ldmo_obs::trace_setup(path);
    }
    if let Some(threads) = globals.threads {
        ldmo_par::set_global_threads(threads);
    }
    ldmo_obs::set_run_info("threads", ldmo_par::global_threads().to_string());
    ldmo_obs::set_run_info("backend", ldmo_litho::backend::resolved_kind().as_str());
    ldmo_obs::set_run_info("isa", ldmo_litho::backend::resolved_isa());
    Ok(globals.metrics_addr.as_deref().and_then(|addr| {
        ldmo_obs::serve::start(addr)
            .inspect(|s| eprintln!("[metrics] serving /metrics /spans on http://{}", s.addr()))
            .inspect_err(|e| eprintln!("[metrics] could not bind metrics endpoint: {e}"))
            .ok()
    }))
}

/// Writes the JSONL trace to `out` when tracing is on and prints the span
/// summary to stderr.
fn finish_trace(out: Option<&Path>) -> Result<(), LdmoError> {
    let Some(path) = out else { return Ok(()) };
    let lines = ldmo_obs::flush_jsonl(path).map_err(|e| LdmoError::Trace {
        context: path.display().to_string(),
        detail: e.to_string(),
    })?;
    eprintln!("[trace] {lines} events written to {}", path.display());
    eprint!("{}", ldmo_obs::summary());
    Ok(())
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
