//! Reproduces **Fig. 8**: the sampling-strategy ablation.
//!
//! Two predictors are trained under identical budgets — one with the
//! paper's engineered sampling (SIFT + k-medoids layouts, MST + 3-wise
//! decompositions), one with uniform random sampling — and the CNN-driven
//! flow is evaluated with each on a held-out suite. The paper reports the
//! random-sampling network roughly doubling the EPE count at comparable
//! runtime.
//!
//! ```sh
//! cargo run --release -p ldmo-bench --bin fig8
//! ```

use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_bench::{eval_suite, fast_mode, trained_predictor};
use ldmo_core::dataset::SamplerKind;
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_guard::cli::{Args, Spec};
use ldmo_guard::LdmoError;
use ldmo_ilt::IltConfig;
use ldmo_layout::{cells, Layout};
use std::time::Duration;

fn suite() -> Vec<(String, Layout)> {
    // cells whose candidate sets have a real quality spread, plus the
    // held-out generated layouts
    let mut s: Vec<(String, Layout)> = ["AOI211_X1", "NAND2_X1", "NAND3_X2", "OAI21_X1"]
        .iter()
        .map(|&n| (n.to_owned(), cells::cell(n).expect("known cell")))
        .collect();
    s.extend(eval_suite());
    s
}

fn main() -> std::process::ExitCode {
    ldmo_bench::run_main(&[Spec::new("fig8", &["json-out"], &[], 0)], run)
}

fn run(args: &Args) -> Result<(), LdmoError> {
    let mut ilt = IltConfig::default();
    if fast_mode() {
        ilt.max_iterations = 8;
    }

    let suite = suite();
    println!(
        "FIG 8 — sampling-strategy ablation ({} eval layouts)",
        suite.len()
    );
    // two protocols: the full flow (the violation feedback converts bad
    // rankings into retries, i.e. runtime), and single-attempt (the
    // network's first choice determines the EPE directly)
    let mut report = BenchReport::new("fig8");
    for (protocol, attempts) in [("full flow", 4usize), ("first choice only", 1)] {
        let mut results: Vec<(&str, usize, Duration)> = Vec::new();
        for (kind, tag) in [
            (SamplerKind::Engineered, "engineered"),
            (SamplerKind::Random, "random"),
        ] {
            let predictor = trained_predictor(&kind, tag);
            let flow_cfg = FlowConfig {
                ilt: ilt.clone(),
                max_attempts: attempts,
                ..FlowConfig::default()
            };
            let mut flow = LdmoFlow::new(flow_cfg, SelectionStrategy::Cnn(Box::new(predictor)));
            let mut epe = 0usize;
            let mut time = Duration::ZERO;
            for (name, layout) in &suite {
                eprintln!("[fig8] {protocol} / {tag} / {name} …");
                let r = flow.run(layout);
                epe += r.outcome.epe_violations();
                time += r.timing.total();
            }
            results.push((tag, epe, time));
        }
        println!("\nprotocol: {protocol}");
        println!("{:>12} | {:>6} | {:>8}", "strategy", "EPE#", "Time(s)");
        for (tag, epe, time) in &results {
            println!("{tag:>12} | {epe:>6} | {:>8.1}", time.as_secs_f64());
            let row = report.push_value(
                format!("attempts_{attempts}/{tag}"),
                "s",
                time.as_secs_f64(),
            );
            row.meta.push(("epe".into(), *epe as f64));
        }
        let ours = &results[0];
        let random = &results[1];
        let epe_ratio = if ours.1 > 0 {
            random.1 as f64 / ours.1 as f64
        } else if random.1 > 0 {
            f64::INFINITY
        } else {
            1.0
        };
        println!(
            "ratios (random / ours): EPE# {:.2}, runtime {:.2}",
            epe_ratio,
            random.2.as_secs_f64() / ours.2.as_secs_f64().max(1e-9)
        );
    }
    println!("\n(paper: random sampling ≈ 2× the EPE count at ≈ equal runtime)");
    maybe_write(&report, args.value("json-out"));
    Ok(())
}
