//! Reproduces **Table I**: EPE violations and runtime of four flows on the
//! 13 testcases.
//!
//! Columns, matching the paper:
//! - `[16]+[6]`  — SUALD-style decomposition + independent ILT
//! - `[17]+[6]`  — BFS-coloring decomposition + independent ILT
//! - `[10]`      — ICCAD'17 unified framework with greedy pruning
//! - `Ours`      — the CNN-driven LDMO flow
//!
//! ```sh
//! cargo run --release -p ldmo-bench --bin table1          # full run
//! LDMO_FAST=1 cargo run --release -p ldmo-bench --bin table1   # smoke run
//! ```
//!
//! Pass `--trace-out trace.jsonl` (or set `LDMO_TRACE=1`) to capture an
//! `ldmo-obs` trace of every flow stage and ILT iteration.

use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_bench::{fast_mode, testcases, trained_predictor};
use ldmo_core::baselines::{two_stage_bfs, two_stage_suald, unified_flow, UnifiedConfig};
use ldmo_core::dataset::SamplerKind;
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_guard::cli::{Args, Spec};
use ldmo_guard::LdmoError;
use ldmo_ilt::IltConfig;
use std::time::Duration;

struct Row {
    name: String,
    epe: [usize; 4],
    time: [Duration; 4],
}

fn main() -> std::process::ExitCode {
    ldmo_bench::run_main(&[Spec::new("table1", &["json-out"], &[], 0)], run)
}

fn run(args: &Args) -> Result<(), LdmoError> {
    let fast = fast_mode();
    let mut ilt = IltConfig::default();
    if fast {
        ilt.max_iterations = 8;
    }

    let predictor = trained_predictor(&SamplerKind::Engineered, "engineered");
    let mut ours = LdmoFlow::new(
        FlowConfig {
            ilt: ilt.clone(),
            ..FlowConfig::default()
        },
        SelectionStrategy::Cnn(Box::new(predictor)),
    );
    let unified_cfg = UnifiedConfig {
        ilt: ilt.clone(),
        ..UnifiedConfig::default()
    };

    let mut rows = Vec::new();
    for (name, layout) in testcases() {
        eprintln!("[table1] {name} …");
        let suald = two_stage_suald(&layout, &ilt);
        let bfs = two_stage_bfs(&layout, &ilt);
        let unified = unified_flow(&layout, &unified_cfg);
        let our = ours.run(&layout);
        rows.push(Row {
            name,
            epe: [
                suald.outcome.epe_violations(),
                bfs.outcome.epe_violations(),
                unified.outcome.epe_violations(),
                our.outcome.epe_violations(),
            ],
            time: [
                suald.total_time(),
                bfs.total_time(),
                unified.total_time(),
                our.timing.total(),
            ],
        });
    }

    println!("\nTABLE I — Comparison with previous frameworks");
    println!(
        "{:>10} | {:>5} {:>8} | {:>5} {:>8} | {:>5} {:>8} | {:>5} {:>8}",
        "ID", "EPE#", "Time(s)", "EPE#", "Time(s)", "EPE#", "Time(s)", "EPE#", "Time(s)"
    );
    println!(
        "{:>10} | {:^14} | {:^14} | {:^14} | {:^14}",
        "", "[16]+[6]", "[17]+[6]", "[10]", "Ours"
    );
    let mut epe_sum = [0usize; 4];
    let mut time_sum = [Duration::ZERO; 4];
    for row in &rows {
        println!(
            "{:>10} | {:>5} {:>8.1} | {:>5} {:>8.1} | {:>5} {:>8.1} | {:>5} {:>8.1}",
            row.name,
            row.epe[0],
            row.time[0].as_secs_f64(),
            row.epe[1],
            row.time[1].as_secs_f64(),
            row.epe[2],
            row.time[2].as_secs_f64(),
            row.epe[3],
            row.time[3].as_secs_f64(),
        );
        for i in 0..4 {
            epe_sum[i] += row.epe[i];
            time_sum[i] += row.time[i];
        }
    }
    let n = rows.len() as f64;
    let avg_epe: Vec<f64> = epe_sum.iter().map(|&e| e as f64 / n).collect();
    let avg_time: Vec<f64> = time_sum.iter().map(|t| t.as_secs_f64() / n).collect();
    println!(
        "{:>10} | {:>5.2} {:>8.2} | {:>5.2} {:>8.2} | {:>5.2} {:>8.2} | {:>5.2} {:>8.2}",
        "Ave.",
        avg_epe[0],
        avg_time[0],
        avg_epe[1],
        avg_time[1],
        avg_epe[2],
        avg_time[2],
        avg_epe[3],
        avg_time[3],
    );
    let ratio = |v: f64, ours: f64| if ours > 0.0 { v / ours } else { f64::INFINITY };
    println!(
        "{:>10} | {:>5.2} {:>8.2} | {:>5.2} {:>8.2} | {:>5.2} {:>8.2} | {:>5.2} {:>8.2}",
        "Ratio",
        ratio(avg_epe[0], avg_epe[3]),
        ratio(avg_time[0], avg_time[3]),
        ratio(avg_epe[1], avg_epe[3]),
        ratio(avg_time[1], avg_time[3]),
        ratio(avg_epe[2], avg_epe[3]),
        ratio(avg_time[2], avg_time[3]),
        1.0,
        1.0,
    );
    let mut report = BenchReport::new("table1");
    for row in &rows {
        for (i, flow) in ["suald", "bfs", "unified", "ours"].iter().enumerate() {
            let r = report.push_value(
                format!("{}/{flow}", row.name),
                "s",
                row.time[i].as_secs_f64(),
            );
            r.meta.push(("epe".into(), row.epe[i] as f64));
        }
    }
    maybe_write(&report, args.value("json-out"));
    Ok(())
}
