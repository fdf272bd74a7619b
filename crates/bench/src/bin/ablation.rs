//! Ablation studies of the design choices called out in DESIGN.md §4:
//!
//! 1. selection strategy: trained CNN vs litho proxy vs random vs first;
//! 2. covering strength of candidate generation: 3-wise vs 2-wise;
//! 3. violation-triggered reselection: on vs off.
//!
//! ```sh
//! cargo run --release -p ldmo-bench --bin ablation
//! ```

use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_bench::{eval_suite, fast_mode, trained_predictor};
use ldmo_core::dataset::SamplerKind;
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_decomp::DecompConfig;
use ldmo_guard::cli::{Args, Spec};
use ldmo_guard::LdmoError;
use ldmo_ilt::IltConfig;
use ldmo_layout::{cells, Layout};
use std::time::Duration;

fn base_flow_cfg() -> FlowConfig {
    let mut ilt = IltConfig::default();
    if fast_mode() {
        ilt.max_iterations = 8;
    }
    FlowConfig {
        ilt,
        ..FlowConfig::default()
    }
}

/// The discriminating suite: cells with spread candidate quality plus the
/// held-out generated layouts (same as fig8).
fn suite() -> Vec<(String, Layout)> {
    let mut s: Vec<(String, Layout)> = ["AOI211_X1", "NAND2_X1", "NAND3_X2", "OAI21_X1"]
        .iter()
        .map(|&n| (n.to_owned(), cells::cell(n).expect("known cell")))
        .collect();
    s.extend(eval_suite());
    s
}

fn run_suite(flow: &mut LdmoFlow, suite: &[(String, ldmo_layout::Layout)]) -> (usize, Duration) {
    let mut epe = 0usize;
    let mut time = Duration::ZERO;
    for (_, layout) in suite {
        let r = flow.run(layout);
        epe += r.outcome.epe_violations();
        time += r.timing.total();
    }
    (epe, time)
}

fn main() -> std::process::ExitCode {
    ldmo_bench::run_main(&[Spec::new("ablation", &["json-out"], &[], 0)], run)
}

fn run(args: &Args) -> Result<(), LdmoError> {
    let suite = suite();
    let mut report = BenchReport::new("ablation");
    println!("ABLATIONS over {} evaluation layouts\n", suite.len());

    // 1. selection strategy, first-choice protocol: the selector's pick
    // directly determines the outcome (reselection would mask differences)
    println!("1) selection strategy (single attempt: selection quality only)");
    println!("{:>14} | {:>6} | {:>8}", "strategy", "EPE#", "Time(s)");
    let strategies: Vec<(&str, SelectionStrategy)> = vec![
        (
            "CNN (ours)",
            SelectionStrategy::Cnn(Box::new(trained_predictor(
                &SamplerKind::Engineered,
                "engineered",
            ))),
        ),
        ("litho proxy", SelectionStrategy::LithoProxy),
        ("first", SelectionStrategy::First),
    ];
    for (name, strategy) in strategies {
        eprintln!("[ablation] strategy {name} …");
        let mut cfg = base_flow_cfg();
        cfg.max_attempts = 1;
        let mut flow = LdmoFlow::new(cfg, strategy);
        let (epe, time) = run_suite(&mut flow, &suite);
        println!("{name:>14} | {epe:>6} | {:>8.1}", time.as_secs_f64());
        let id = format!(
            "strategy/{}",
            name.split_whitespace()
                .next()
                .unwrap_or(name)
                .to_lowercase()
        );
        report
            .push_value(id, "s", time.as_secs_f64())
            .meta
            .push(("epe".into(), epe as f64));
    }
    // random selection is high-variance: average over several seeds
    {
        let seeds = [1u64, 2, 3, 4, 5];
        let mut total_epe = 0usize;
        let mut total_time = Duration::ZERO;
        for &seed in &seeds {
            eprintln!("[ablation] strategy random (seed {seed}) …");
            let mut cfg = base_flow_cfg();
            cfg.max_attempts = 1;
            let mut flow = LdmoFlow::new(cfg, SelectionStrategy::Random { seed });
            let (epe, time) = run_suite(&mut flow, &suite);
            total_epe += epe;
            total_time += time;
        }
        println!(
            "{:>14} | {:>6.1} | {:>8.1}   (mean of {} seeds)",
            "random",
            total_epe as f64 / seeds.len() as f64,
            total_time.as_secs_f64() / seeds.len() as f64,
            seeds.len()
        );
        report
            .push_value(
                "strategy/random",
                "s",
                total_time.as_secs_f64() / seeds.len() as f64,
            )
            .meta
            .push(("epe".into(), total_epe as f64 / seeds.len() as f64));
    }

    // 2. covering strength for candidate generation
    println!("\n2) candidate covering strength (litho-proxy selector)");
    println!("{:>14} | {:>6} | {:>10}", "strength", "EPE#", "candidates");
    for strength in [2usize, 3] {
        eprintln!("[ablation] strength {strength} …");
        let mut cfg = base_flow_cfg();
        cfg.decomp = DecompConfig {
            strength_primary: strength,
            ..DecompConfig::default()
        };
        let mut flow = LdmoFlow::new(cfg, SelectionStrategy::LithoProxy);
        let mut epe = 0usize;
        let mut cands = 0usize;
        for (_, layout) in &suite {
            let r = flow.run(layout);
            epe += r.outcome.epe_violations();
            cands += r.candidates;
        }
        println!("{strength:>13}-wise | {epe:>6} | {cands:>10}");
        let row = report.push_value(format!("covering/{strength}-wise"), "count", epe as f64);
        row.meta.push(("candidates".into(), cands as f64));
    }

    // 3. violation-triggered reselection on/off
    println!("\n3) violation-triggered reselection (random selector, worst case)");
    println!("{:>14} | {:>6}", "reselection", "EPE#");
    for (label, attempts) in [("on (4 tries)", 4usize), ("off (1 try)", 1)] {
        eprintln!("[ablation] reselection {label} …");
        let mut cfg = base_flow_cfg();
        cfg.max_attempts = attempts;
        let mut flow = LdmoFlow::new(cfg, SelectionStrategy::Random { seed: 5 });
        let (epe, _) = run_suite(&mut flow, &suite);
        println!("{label:>14} | {epe:>6}");
        report.push_value(
            format!("reselection/attempts_{attempts}"),
            "count",
            epe as f64,
        );
    }
    maybe_write(&report, args.value("json-out"));
    Ok(())
}
