//! Reproduces **Fig. 7**: qualitative comparison with ICCAD'17 \[10\] on
//! `AOI211_X1`, `NAND3_X2` and `BUF_X1`. The paper's claim: "in all three
//! cases our proposed framework can effectively remove EPE".
//!
//! Writes the printed images as PGM files under `bench_out/` and prints the
//! per-cell EPE counts.
//!
//! ```sh
//! cargo run --release -p ldmo-bench --bin fig7
//! ```

use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_bench::{fast_mode, trained_predictor};
use ldmo_core::baselines::{two_stage_bfs, two_stage_suald, unified_flow, UnifiedConfig};
use ldmo_core::dataset::SamplerKind;
use ldmo_core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo_ilt::IltConfig;
use ldmo_layout::cells;

fn main() {
    let trace_out = ldmo_obs::trace_setup();
    ldmo_par::cli_setup();
    ldmo_litho::backend::cli_setup();
    let _live = ldmo_bench::live_setup();
    let mut ilt = IltConfig::default();
    if fast_mode() {
        ilt.max_iterations = 8;
    }
    let out_dir = std::path::Path::new("bench_out");
    let _ = std::fs::create_dir_all(out_dir);

    let predictor = trained_predictor(&SamplerKind::Engineered, "engineered");
    let mut ours = LdmoFlow::new(
        FlowConfig {
            ilt: ilt.clone(),
            ..FlowConfig::default()
        },
        SelectionStrategy::Cnn(Box::new(predictor)),
    );
    let unified_cfg = UnifiedConfig {
        ilt,
        ..UnifiedConfig::default()
    };

    println!("FIG 7 — qualitative comparison on the paper's three cells");
    println!(
        "{:>12} | {:>9} | {:>9} | {:>13} | {:>10}",
        "cell", "[16]+[6]", "[17]+[6]", "ICCAD'17 [10]", "Ours EPE#"
    );
    let mut report = BenchReport::new("fig7");
    for name in ["AOI211_X1", "NAND3_X2", "BUF_X1"] {
        let layout = cells::cell(name).expect("known cell");
        eprintln!("[fig7] {name} …");
        let suald = two_stage_suald(&layout, &unified_cfg.ilt);
        let bfs = two_stage_bfs(&layout, &unified_cfg.ilt);
        let unified = unified_flow(&layout, &unified_cfg);
        let our = ours.run(&layout);
        let row = report.push_value(
            format!("{name}/ours"),
            "s",
            our.timing.total().as_secs_f64(),
        );
        row.meta
            .push(("epe".into(), our.outcome.epe_violations() as f64));
        let row = report.push_value(
            format!("{name}/unified"),
            "s",
            unified.total_time().as_secs_f64(),
        );
        row.meta
            .push(("epe".into(), unified.outcome.epe_violations() as f64));
        println!(
            "{:>12} | {:>9} | {:>9} | {:>13} | {:>10}",
            name,
            suald.outcome.epe_violations(),
            bfs.outcome.epe_violations(),
            unified.outcome.epe_violations(),
            our.outcome.epe_violations()
        );
        for (tag, printed) in [
            ("iccad17", &unified.outcome.printed),
            ("ours", &our.outcome.printed),
        ] {
            let path = out_dir.join(format!("fig7_{name}_{tag}.pgm"));
            if let Err(e) = std::fs::write(&path, printed.to_pgm()) {
                eprintln!("[fig7] could not write {}: {e}", path.display());
            }
        }
        // also dump the target for visual reference
        let target = layout.rasterize_target(2.0);
        let _ = std::fs::write(
            out_dir.join(format!("fig7_{name}_target.pgm")),
            target.to_pgm(),
        );
    }
    eprintln!("\nprinted-image PGMs written to bench_out/");
    maybe_write(&report);
    ldmo_obs::trace_finish(trace_out.as_deref());
}
