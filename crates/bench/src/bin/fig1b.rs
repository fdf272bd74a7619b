//! Reproduces **Fig. 1(b)**: EPE-violation trajectories of different
//! decompositions of the same layout during mask optimization.
//!
//! The paper's observation: trajectories cross — intermediate printability
//! does not predict the final ranking, which is why greedy pruning on
//! intermediate results (the ICCAD'17 selection) is unreliable.
//!
//! ```sh
//! cargo run --release -p ldmo-bench --bin fig1b
//! ```

use ldmo_bench::fast_mode;
use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_guard::cli::{Args, Spec};
use ldmo_guard::LdmoError;
use ldmo_ilt::{optimize, IltConfig};
use ldmo_layout::cells;

fn main() -> std::process::ExitCode {
    ldmo_bench::run_main(&[Spec::new("fig1b", &["json-out"], &[], 0)], run)
}

fn run(args: &Args) -> Result<(), LdmoError> {
    let layout = cells::cell("AOI211_X1").expect("known cell");
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    let take = candidates.len().min(3);
    let cfg = IltConfig {
        record_epe_trajectory: true,
        max_iterations: if fast_mode() { 10 } else { 30 },
        ..IltConfig::default()
    };

    println!("FIG 1(b) — EPE convergence of {take} decompositions of AOI211_X1");
    let mut series = Vec::new();
    let mut report = BenchReport::new("fig1b");
    for (i, cand) in candidates.iter().take(take).enumerate() {
        eprintln!("[fig1b] DECMP#{} = {cand:?} …", i + 1);
        let t0 = std::time::Instant::now();
        let out = optimize(&layout, cand, &cfg);
        let elapsed = t0.elapsed();
        let epe: Vec<usize> = out
            .trajectory
            .iter()
            .map(|s| s.epe_violations.unwrap_or(0))
            .collect();
        let row = report.push_value(
            format!("DECMP#{}/optimize", i + 1),
            "s",
            elapsed.as_secs_f64(),
        );
        row.meta
            .push(("final_epe".into(), epe.last().copied().unwrap_or(0) as f64));
        row.meta.push(("iters".into(), epe.len() as f64));
        series.push((format!("DECMP#{}", i + 1), epe));
    }

    print!("{:>10}", "#Iter");
    for (name, _) in &series {
        print!(" {name:>10}");
    }
    println!();
    let len = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for it in 0..len {
        print!("{:>10}", it + 1);
        for (_, s) in &series {
            match s.get(it) {
                Some(v) => print!(" {v:>10}"),
                None => print!(" {:>10}", "-"),
            }
        }
        println!();
    }

    // the paper's point: report whether the final winner ever trailed
    let finals: Vec<usize> = series
        .iter()
        .map(|(_, s)| *s.last().unwrap_or(&0))
        .collect();
    let winner = finals
        .iter()
        .enumerate()
        .min_by_key(|&(_, v)| *v)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let trailed = series.iter().enumerate().any(|(i, (_, s))| {
        i != winner
            && s.iter()
                .zip(&series[winner].1)
                .any(|(other, win)| win > other)
    });
    println!(
        "\nfinal EPE counts: {finals:?}; winner: {}; winner trailed mid-run: {trailed}",
        series[winner].0
    );
    maybe_write(&report, args.value("json-out"));
    Ok(())
}
