//! Reproduces **Fig. 1(c)**: the runtime breakdown of the unified ICCAD'17
//! flow into decomposition selection (DS) and mask optimization (MO).
//!
//! The paper reports DS 59.1% vs MO 40.9% — selection by simulation costs
//! more than the optimization itself, which motivates the CNN predictor.
//!
//! ```sh
//! cargo run --release -p ldmo-bench --bin fig1c
//! ```

use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_bench::{fast_mode, testcases};
use ldmo_core::baselines::{unified_flow, UnifiedConfig};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_guard::cli::{Args, Spec};
use ldmo_guard::LdmoError;
use ldmo_ilt::IltConfig;
use std::time::Duration;

fn main() -> std::process::ExitCode {
    ldmo_bench::run_main(&[Spec::new("fig1c", &["json-out"], &[], 0)], run)
}

fn run(args: &Args) -> Result<(), LdmoError> {
    let mut ilt = IltConfig::default();
    if fast_mode() {
        ilt.max_iterations = 8;
    }
    let cfg = UnifiedConfig {
        ilt,
        ..UnifiedConfig::default()
    };
    let mut all = (Duration::ZERO, Duration::ZERO);
    let mut multi = (Duration::ZERO, Duration::ZERO);
    for (name, layout) in testcases() {
        eprintln!("[fig1c] {name} …");
        let candidates = generate_candidates(&layout, &DecompConfig::default()).len();
        let result = unified_flow(&layout, &cfg);
        all.0 += result.decomposition_selection;
        all.1 += result.mask_optimization;
        if candidates >= 4 {
            multi.0 += result.decomposition_selection;
            multi.1 += result.mask_optimization;
        }
    }
    println!("\nFIG 1(c) — runtime breakdown of the unified flow [10]");
    for (label, (ds, mo)) in [
        ("all 13 testcases", all),
        ("testcases with ≥4 candidates (the paper's regime)", multi),
    ] {
        let total = (ds + mo).as_secs_f64().max(1e-9);
        println!("\n{label}:");
        println!(
            "  DS (decomposition selection): {:>7.1}s  ({:.1}%)",
            ds.as_secs_f64(),
            100.0 * ds.as_secs_f64() / total
        );
        println!(
            "  MO (mask optimization):       {:>7.1}s  ({:.1}%)",
            mo.as_secs_f64(),
            100.0 * mo.as_secs_f64() / total
        );
    }
    println!("\n(paper: DS 59.1%, MO 40.9% — measured on layouts with many candidates)");
    let mut report = BenchReport::new("fig1c");
    for (label, (ds, mo)) in [("all", all), ("multi_candidate", multi)] {
        report.push_value(format!("{label}/ds"), "s", ds.as_secs_f64());
        report.push_value(format!("{label}/mo"), "s", mo.as_secs_f64());
    }
    maybe_write(&report, args.value("json-out"));
    Ok(())
}
