//! Probe: step size vs residual EPE at the 29-iteration budget for good
//! and bad decompositions.
//! Usage: `calibrate_step [SIGMA [RING [MRC]]]`, the primary kernel sigma
//! (nm, default 40), ring amplitude (0) and MRC expansion (nm, 28).
use ldmo_bench::report::{maybe_write, BenchReport};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::Rect;
use ldmo_guard::cli::{parse_number, Args, Spec};
use ldmo_guard::LdmoError;
use ldmo_ilt::{optimize, IltConfig};
use ldmo_layout::{cells, Layout};

fn quad(gap: i32) -> Layout {
    let p = 64 + gap;
    Layout::new(
        Rect::new(0, 0, 448, 448),
        vec![
            Rect::square(120, 120, 64),
            Rect::square(120 + p, 120, 64),
            Rect::square(120, 120 + p, 64),
            Rect::square(120 + p, 120 + p, 64),
        ],
    )
}

fn main() -> std::process::ExitCode {
    ldmo_bench::run_main(&[Spec::new("calibrate_step", &["json-out"], &[], 3)], run)
}

fn run(args: &Args) -> Result<(), LdmoError> {
    let pos = |i: usize| args.positional.get(i).map(String::as_str);
    let sigma: f64 = pos(0).map_or(Ok(40.0), |t| parse_number("SIGMA", t))?;
    let ring: f64 = pos(1).map_or(Ok(0.0), |t| parse_number("RING", t))?;
    let mrc: i32 = pos(2).map_or(Ok(28), |t| parse_number("MRC", t))?;
    let mut cfg = IltConfig::default();
    cfg.litho.sigma_primary = sigma;
    cfg.litho.ring_sigma = sigma * 2.0;
    cfg.litho.sigma_secondary = sigma * 1.875;
    cfg.litho.ring_amplitude = ring;
    cfg.mrc_expand_nm = mrc;
    eprintln!("sigma={sigma} ring={ring} mrc={mrc}");
    let mut report = BenchReport::new("calibrate_step");
    let iso = Layout::new(Rect::new(0, 0, 448, 448), vec![Rect::square(192, 192, 64)]);
    let t0 = std::time::Instant::now();
    let iso_epe = optimize(&iso, &[0], &cfg).epe_violations();
    report
        .push_value("isolated/optimize", "s", t0.elapsed().as_secs_f64())
        .meta
        .push(("epe".into(), iso_epe as f64));
    eprintln!("  isolated: epe={iso_epe}");
    for g in [64, 84, 92, 104, 120] {
        let l = quad(g);
        let good = optimize(&l, &[0, 1, 1, 0], &cfg);
        let bad = optimize(&l, &[0, 0, 1, 1], &cfg); // rows same-mask (vertical pairs split)
        let worst = optimize(&l, &[0, 0, 0, 0], &cfg);
        eprintln!(
            "  quad g={g}: checker={} rows={} all0={}",
            good.epe_violations(),
            bad.epe_violations(),
            worst.epe_violations()
        );
        report.push_value(
            format!("quad_g{g}/checker"),
            "count",
            good.epe_violations() as f64,
        );
    }
    // 2x3 grid: SP rows at 66, rows stacked at VP distance 86.
    // aligned = vertical same-mask pairs at 86; anti = diagonal 108
    for vgap in [84, 92] {
        let hp = 64 + 66;
        let vp = 64 + vgap;
        let mut pats = Vec::new();
        for r in 0..2 {
            for c in 0..3 {
                pats.push(Rect::square(40 + c * hp, 80 + r * vp, 64));
            }
        }
        let l = Layout::new(Rect::new(0, 0, 448, 448), pats);
        let aligned = optimize(&l, &[0, 1, 0, 0, 1, 0], &cfg);
        let anti = optimize(&l, &[0, 1, 0, 1, 0, 1], &cfg);
        eprintln!(
            "  grid2x3 vg={vgap}: aligned={} anti={}",
            aligned.epe_violations(),
            anti.epe_violations()
        );
    }
    // 3x3 grid at VP pitch: all-same vs checker
    for g in [84, 92] {
        let p = 64 + g;
        let mut pats = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                pats.push(Rect::square(30 + c * p, 30 + r * p, 64));
            }
        }
        let l = Layout::new(Rect::new(0, 0, 448, 448), pats);
        let same = optimize(&l, &[0u8; 9], &cfg);
        let checker: Vec<u8> = (0..9).map(|i| ((i / 3 + i % 3) % 2) as u8).collect();
        let chk = optimize(&l, &checker, &cfg);
        eprintln!(
            "  grid3x3 g={g}: all_same={} checker={}",
            same.epe_violations(),
            chk.epe_violations()
        );
    }

    // cells: spread of candidate outcomes
    for name in ["AOI211_X1", "NAND2_X1", "OAI21_X1"] {
        let l = cells::cell(name).unwrap();
        let cands = generate_candidates(&l, &DecompConfig::default());
        let epes: Vec<usize> = cands
            .iter()
            .map(|c| optimize(&l, c, &cfg).epe_violations())
            .collect();
        eprintln!("  {name}: candidate EPEs {epes:?}");
    }
    maybe_write(&report, args.value("json-out"));
    Ok(())
}
