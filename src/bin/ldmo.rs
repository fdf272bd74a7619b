//! `ldmo` — command-line front end for the LDMO framework.
//!
//! ```text
//! ldmo generate --seed 7 --count 3 --out layouts/     create layout files
//! ldmo info layout.lay                                classes, candidates, DPL check
//! ldmo decompose layout.lay                           list decomposition candidates
//! ldmo optimize layout.lay --assignment 0,1,0         run ILT on one decomposition
//! ldmo flow layout.lay [--predictor w.bin]            run the full Fig. 2 flow
//! ldmo chip [chip.lay] [--tiles 4x4 --seed 7]         tiled full-chip pipeline
//! ldmo train --pool 24 --out w.bin                    train the CNN predictor
//! ldmo trace summarize trace.jsonl                    span rollups + percentiles
//! ldmo trace diff old.jsonl new.jsonl                 flag span-time regressions
//! ldmo trace flame trace.jsonl                        self-time hotspot table
//! ldmo bench-report bench_out/                        aggregate BENCH_*.json
//! ldmo bench-report fresh/ --gate bench_out/          perf gate vs baselines
//! ```
//!
//! Each subcommand declares its flags in [`SUBCOMMANDS`]; an undeclared
//! flag, a valued flag with no value, `--flag=value` or an extra
//! positional is a usage error. Errors exit with the stable codes of
//! [`LdmoError::exit_code`]: 2 usage, 3 parse, 4 model, 5 I/O, 6 trace,
//! 7 bad `LDMO_FAULTS` spec, 8 degraded result.

use ldmo::chip::{run_chip, ChipConfig};
use ldmo::core::dataset::{build_dataset, DatasetConfig, SamplerKind};
use ldmo::core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo::core::predictor::PrintabilityPredictor;
use ldmo::core::sampling::SamplingConfig;
use ldmo::core::trainer::{train, TrainConfig};
use ldmo::decomp::{generate_candidates, is_dpl_compatible, DecompConfig};
use ldmo::guard::cli::{Args, Spec};
use ldmo::guard::LdmoError;
use ldmo::ilt::{Budget, IltConfig, IltSession};
use ldmo::layout::classify::{classify_patterns, ClassifyConfig};
use ldmo::layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo::layout::{io as layout_io, Layout};
use std::io::{self, Write as _};
use std::path::Path;
use std::process::ExitCode;

/// Each subcommand's declared command line: valued flags, switches, and
/// how many positionals it takes. `help` is first, so a bare `ldmo`
/// prints the usage.
#[rustfmt::skip]
const SUBCOMMANDS: &[Spec] = &[
    Spec::new("help", &[], &[], 0),
    Spec::new("generate", &["seed", "count", "out"], &[], 0),
    Spec::new("info", &[], &[], 1),
    Spec::new("decompose", &[], &[], 1),
    Spec::new("optimize", &["assignment", "masks", "out"], &[], 1),
    Spec::new("flow", &["predictor"], &[], 1),
    Spec::new("chip", &["tiles", "seed", "tile-size", "tile-iters", "tile-candidates",
                        "tile-budget-iters", "tile-budget-ms", "out"], &[], 1),
    Spec::new("train", &["pool", "out"], &[], 0),
    Spec::new("trace", &["threshold", "out"], &["reconcile"], usize::MAX),
    Spec::new("bench-report", &["gate"], &[], 1),
    Spec::new("serve", &["addr", "queue", "batch", "deadline-ms", "cache", "iters",
                         "candidates"], &[], 0),
    Spec::new("client", &["addr", "clients", "requests", "seed", "retries", "deadline-ms",
                          "iters", "candidates"], &["shutdown"], 0),
];

/// Writes `text` to stdout. A reader that went away (`BrokenPipe`:
/// `ldmo trace summarize t.jsonl | head -1`) no longer wants the output,
/// so that is not an error and the command ends with its own verdict;
/// any other write error is an I/O error (exit 5).
fn emit(text: &str) -> Result<(), LdmoError> {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        written => written.map_err(io_error("standard output")),
    }
}

/// `println!` through [`emit`], returning from the command on an I/O
/// error: every subcommand's output ends quietly when stdout closes.
macro_rules! say {
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))?
    };
}

fn main() -> ExitCode {
    ldmo::bench::run_main(SUBCOMMANDS, |args| match args.command() {
        "generate" => cmd_generate(args),
        "info" => cmd_info(args),
        "decompose" => cmd_decompose(args),
        "optimize" => cmd_optimize(args),
        "flow" => cmd_flow(args),
        "chip" => cmd_chip(args),
        "train" => cmd_train(args),
        "trace" => cmd_trace(args),
        "bench-report" => cmd_bench_report(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        // "help", which a bare `ldmo` selects too
        _ => print_usage(),
    })
}

fn print_usage() -> Result<(), LdmoError> {
    say!(
        "ldmo — deep learning-driven layout decomposition and mask optimization\n\n\
         subcommands:\n\
         \x20 generate  --seed S --count N --out DIR   write random DRC-clean layouts\n\
         \x20 info      FILE                           classes, candidate count, DPL check\n\
         \x20 decompose FILE                           list decomposition candidates\n\
         \x20 optimize  FILE --assignment 0,1,..       run ILT on one decomposition\n\
         \x20           [--masks 1|2|3] [--out PREFIX]\n\
         \x20 flow      FILE [--predictor W.bin]       run the full LDMO flow\n\
         \x20 chip      [FILE]                         tiled full-chip pipeline\n\
         \x20           [--tiles CxR] [--seed S]       (no FILE: generate a CxR demo\n\
         \x20           [--tile-size NM]               chip; halo derives from the\n\
         \x20           [--tile-iters N]               kernel bank, DESIGN.md 15)\n\
         \x20           [--tile-candidates N]\n\
         \x20           [--tile-budget-iters N]\n\
         \x20           [--tile-budget-ms MS]\n\
         \x20           [--out PREFIX]\n\
         \x20 train     --pool N --out W.bin           train the CNN predictor\n\
         \x20 trace     summarize FILE..               span rollups, histogram\n\
         \x20           [--reconcile]                  percentiles, convergence digest\n\
         \x20 trace     diff OLD NEW                   flag span-time regressions\n\
         \x20           [--threshold R]                (exit 8 when any regress)\n\
         \x20 trace     flame FILE..                   span paths by self time\n\
         \x20           [--out FOLDED.txt]             (+ folded stacks in µs)\n\
         \x20 bench-report DIR                         aggregate BENCH_*.json reports\n\
         \x20           [--gate BASELINE_DIR]          gate DIR against the baselines\n\
         \x20                                          (exit 8 when any row fails)\n\
         \x20 serve     [--addr H:P] [--queue N]       fault-tolerant batch-serving\n\
         \x20           [--batch N] [--deadline-ms MS] daemon (DESIGN.md 16); POST\n\
         \x20           [--cache FILE] [--iters N]     /optimize, /shutdown to drain;\n\
         \x20           [--candidates N]               --cache enables the crash-safe\n\
         \x20                                          content-addressed result log\n\
         \x20 client    [--addr H:P] [--clients N]     concurrent soak driver; exits\n\
         \x20           [--requests N] [--seed S]      3 when any response is poisoned\n\
         \x20           [--retries N] [--deadline-ms]  or dropped without a response;\n\
         \x20           [--iters N] [--candidates N]   --shutdown drains the daemon\n\
         \x20           [--shutdown]                   after the soak\n\n\
         every subcommand accepts --trace-out FILE (or LDMO_TRACE=1) to write\n\
         an ldmo-obs JSONL trace and print a span summary to stderr, and\n\
         --threads N (or LDMO_THREADS=N) to size the worker pool; results\n\
         are bit-identical for any thread count. Flags take their value as\n\
         the next argument (--seed 7, not --seed=7); an unknown flag, a\n\
         missing value or an extra argument exits 2 before any work\n\n\
         live-ops: --metrics-addr HOST:PORT (or LDMO_METRICS_ADDR) serves\n\
         /metrics (Prometheus) and /spans (the newest spans and convergence\n\
         rows, JSONL) while the run is in flight; with tracing or the\n\
         endpoint on, crashes and typed-error exits dump the same window to\n\
         flight_<pid>.jsonl (in LDMO_FLIGHT_DIR, default the working dir)\n\n\
         LDMO_FAULTS=SPEC installs a deterministic fault-injection plan\n\
         (see DESIGN.md §11); exit codes: 2 usage, 3 parse, 4 model, 5 I/O,\n\
         6 trace, 7 bad fault spec, 8 degraded"
    );
    Ok(())
}

fn load_layout(path: &str) -> Result<Layout, LdmoError> {
    layout_io::load(path).map_err(|e| LdmoError::from(e).with_context(format!("layout '{path}'")))
}

fn io_error(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> LdmoError {
    let context = context.into();
    move |source| LdmoError::Io { context, source }
}

fn cmd_generate(args: &Args) -> Result<(), LdmoError> {
    let seed: u64 = args.number("seed")?.unwrap_or(1);
    let count: usize = args.number("count")?.unwrap_or(1);
    if count == 0 {
        return Err(LdmoError::usage("--count must be at least 1"));
    }
    let out = args.value("out").unwrap_or(".");
    std::fs::create_dir_all(out).map_err(io_error(format!("directory '{out}'")))?;
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), seed);
    for (i, layout) in generator.generate_dataset(count).into_iter().enumerate() {
        let path = format!("{out}/layout_{seed}_{i}.lay");
        layout_io::save(&layout, &path)
            .map_err(|e| LdmoError::from(e).with_context(format!("layout '{path}'")))?;
        say!("wrote {path} ({} patterns)", layout.len());
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), LdmoError> {
    let path = args
        .positional
        .first()
        .ok_or(LdmoError::usage("usage: ldmo info FILE"))?;
    let layout = load_layout(path)?;
    let ccfg = ClassifyConfig::default();
    say!("window:   {}", layout.window());
    say!("patterns: {}", layout.len());
    for (i, (r, class)) in layout
        .patterns()
        .iter()
        .zip(classify_patterns(&layout, &ccfg))
        .enumerate()
    {
        say!("  {i}: {r} {class:?}");
    }
    say!("DPL-compatible: {}", is_dpl_compatible(&layout, ccfg.nmin));
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    say!("decomposition candidates: {}", candidates.len());
    Ok(())
}

fn cmd_decompose(args: &Args) -> Result<(), LdmoError> {
    let path = args
        .positional
        .first()
        .ok_or(LdmoError::usage("usage: ldmo decompose FILE"))?;
    let layout = load_layout(path)?;
    for (i, c) in generate_candidates(&layout, &DecompConfig::default())
        .iter()
        .enumerate()
    {
        let joined: Vec<String> = c.iter().map(u8::to_string).collect();
        say!("#{i}: {}", joined.join(","));
    }
    Ok(())
}

fn parse_assignment(text: &str) -> Result<Vec<u8>, LdmoError> {
    text.split(',')
        .map(|t| {
            t.trim().parse::<u8>().map_err(|_| LdmoError::Parse {
                context: "assignment".to_owned(),
                detail: format!("'{t}' is not a mask index"),
            })
        })
        .collect()
}

fn cmd_optimize(args: &Args) -> Result<(), LdmoError> {
    let path = args.positional.first().ok_or(LdmoError::usage(
        "usage: ldmo optimize FILE --assignment 0,1,..",
    ))?;
    let layout = load_layout(path)?;
    let assignment = parse_assignment(args.value("assignment").ok_or(LdmoError::usage(
        "missing --assignment (e.g. --assignment 0,1,0)",
    ))?)?;
    if assignment.len() != layout.len() {
        return Err(LdmoError::usage(format!(
            "assignment covers {} patterns, layout has {}",
            assignment.len(),
            layout.len()
        )));
    }
    // validated before any rasterizing: a bad mask count or an out-of-range
    // mask index is a usage error, not an engine assertion
    let masks = match args.value("masks") {
        None => 2,
        Some(text) => text
            .parse::<u8>()
            .ok()
            .filter(|k| (1..=3).contains(k))
            .ok_or_else(|| LdmoError::usage(format!("--masks must be 1, 2 or 3, got '{text}'")))?,
    };
    if let Some(&m) = assignment.iter().find(|&&m| m >= masks) {
        return Err(LdmoError::usage(format!(
            "assignment uses mask {m}, but --masks {masks} allows 0..={}",
            masks - 1
        )));
    }
    let prefix = args.value("out");
    match masks {
        1 => optimize_and_report::<1>(&layout, &assignment, prefix),
        2 => optimize_and_report::<2>(&layout, &assignment, prefix),
        _ => optimize_and_report::<3>(&layout, &assignment, prefix),
    }
}

/// Runs `K`-mask ILT under the paper's defaults, prints its metrics and,
/// given a prefix, writes the print and every mask as PGM images.
fn optimize_and_report<const K: usize>(
    layout: &Layout,
    assignment: &[u8],
    prefix: Option<&str>,
) -> Result<(), LdmoError> {
    let out = IltSession::<K>::prepare(layout, assignment, &IltConfig::default()).run();
    say!("EPE violations:   {}", out.epe_violations());
    say!("print violations: {}", out.violations.count());
    say!("L2 error:         {:.1}", out.l2);
    if let Some(prefix) = prefix {
        let printed_path = format!("{prefix}_printed.pgm");
        std::fs::write(&printed_path, out.printed.to_pgm())
            .map_err(io_error(format!("printed image '{printed_path}'")))?;
        for (i, m) in out.masks.iter().enumerate() {
            let mask_path = format!("{prefix}_mask{i}.pgm");
            std::fs::write(&mask_path, m.to_pgm())
                .map_err(io_error(format!("mask image '{mask_path}'")))?;
        }
        say!("images written with prefix {prefix}_");
    }
    Ok(())
}

fn cmd_flow(args: &Args) -> Result<(), LdmoError> {
    let path = args.positional.first().ok_or(LdmoError::usage(
        "usage: ldmo flow FILE [--predictor W.bin]",
    ))?;
    let layout = load_layout(path)?;
    let strategy = match args.value("predictor") {
        Some(weights) => {
            let mut predictor = PrintabilityPredictor::lite(7);
            predictor
                .load(weights)
                .map_err(|e| LdmoError::from(e).with_context(format!("predictor '{weights}'")))?;
            SelectionStrategy::Cnn(Box::new(predictor))
        }
        None => SelectionStrategy::LithoProxy,
    };
    let mut flow = LdmoFlow::new(FlowConfig::default(), strategy);
    let result = flow.run(&layout);
    let joined: Vec<String> = result.assignment.iter().map(u8::to_string).collect();
    say!("selected decomposition: {}", joined.join(","));
    say!("attempts:               {}", result.attempts);
    say!(
        "EPE violations:         {}",
        result.outcome.epe_violations()
    );
    say!(
        "print violations:       {}",
        result.outcome.violations.count()
    );
    say!("health:                 {:?}", result.outcome.health);
    say!(
        "masks:                  {}",
        ldmo::serve::mask_hash(&result.outcome.masks)
    );
    say!(
        "time: {:.2}s selection + {:.2}s optimization",
        result.timing.decomposition_selection.as_secs_f64(),
        result.timing.mask_optimization.as_secs_f64()
    );
    Ok(())
}

/// Parses a `COLSxROWS` grid spec such as `4x2`.
fn parse_grid(spec: &str) -> Result<(usize, usize), LdmoError> {
    let bad = || LdmoError::usage(format!("--tiles '{spec}' is not COLSxROWS (e.g. 4x2)"));
    let (cols, rows) = spec.split_once('x').ok_or_else(bad)?;
    let cols: usize = cols.trim().parse().map_err(|_| bad())?;
    let rows: usize = rows.trim().parse().map_err(|_| bad())?;
    if cols == 0 || rows == 0 {
        return Err(bad());
    }
    Ok((cols, rows))
}

fn cmd_chip(args: &Args) -> Result<(), LdmoError> {
    let layout = match args.positional.first() {
        Some(path) => load_layout(path)?,
        None => {
            // no file: synthesize a demo chip as a COLSxROWS grid of
            // independently generated DRC-clean blocks
            let (cols, rows) = parse_grid(args.value("tiles").unwrap_or("2x2"))?;
            let seed: u64 = args.number("seed")?.unwrap_or(7);
            let mut generator = LayoutGenerator::new(GeneratorConfig::default(), seed);
            let chip = generator
                .generate_chip(cols, rows)
                .map_err(|e| LdmoError::Parse {
                    context: format!("demo chip ({cols}x{rows} blocks, seed {seed})"),
                    detail: e.to_string(),
                })?;
            say!(
                "demo chip: {cols}x{rows} blocks, seed {seed}, {} patterns, window {}",
                chip.len(),
                chip.window()
            );
            chip
        }
    };
    let mut cfg = ChipConfig::default();
    if let Some(nm) = args.number("tile-size")? {
        cfg.tile_nm = nm;
        if cfg.tile_nm <= 0 {
            return Err(LdmoError::usage("--tile-size must be positive (nm)"));
        }
    }
    if let Some(n) = args.number("tile-iters")? {
        cfg.ilt.max_iterations = n;
    }
    if let Some(n) = args.number("tile-candidates")? {
        cfg.decomp.max_candidates = n;
    }
    if let Some(n) = args.number("tile-budget-iters")? {
        cfg.ilt.budget = Budget::iterations(n);
    }
    if let Some(ms) = args.number("tile-budget-ms")? {
        // composes with --tile-budget-iters: both bounds apply
        cfg.ilt.budget.max_wall = Some(std::time::Duration::from_millis(ms));
    }
    let out = run_chip(&layout, &cfg);
    let empty = out.tiles.iter().filter(|t| t.patterns == 0).count();
    let (w, h) = out.masks[0].shape();
    say!(
        "tile grid:        {}x{} ({} tiles, {} nm cores + {} nm halo)",
        out.grid.cols(),
        out.grid.rows(),
        out.grid.len(),
        out.grid.tile_nm(),
        out.grid.halo_nm()
    );
    say!(
        "tiles:            {} optimized, {} empty, {} degraded",
        out.grid.len() - empty - out.degraded_tiles,
        empty,
        out.degraded_tiles
    );
    say!("chip mask:        {w}x{h} px per layer");
    say!("EPE violations:   {}", out.epe_violations);
    let secs = out.timing.total().as_secs_f64();
    if secs > 0.0 {
        say!(
            "throughput:       {:.2} tiles/s",
            out.grid.len() as f64 / secs
        );
    }
    say!(
        "time: {:.2}s setup + {:.2}s tiles + {:.2}s stitch",
        out.timing.setup.as_secs_f64(),
        out.timing.tiles.as_secs_f64(),
        out.timing.stitch.as_secs_f64()
    );
    if let Some(prefix) = args.value("out") {
        for (i, m) in out.masks.iter().enumerate() {
            let mask_path = format!("{prefix}_mask{i}.pgm");
            std::fs::write(&mask_path, m.to_pgm())
                .map_err(io_error(format!("mask image '{mask_path}'")))?;
        }
        say!("chip masks written with prefix {prefix}_");
    }
    Ok(())
}

fn trace_error(context: impl Into<String>) -> impl FnOnce(String) -> LdmoError {
    let context = context.into();
    move |detail| LdmoError::Trace { context, detail }
}

fn cmd_trace(args: &Args) -> Result<(), LdmoError> {
    use ldmo::obs::analyze::{diff, render_diff, render_flame, render_summary, Trace};
    let (verb, files) = match args.positional.split_first() {
        Some((verb, files)) => (verb.as_str(), files),
        None => ("", &[][..]),
    };
    let reconcile = args.switch("reconcile");
    let (threshold, folded_out) = (args.number::<f64>("threshold")?, args.value("out"));
    for (flag, given, owner) in [
        ("--reconcile", reconcile, "summarize"),
        ("--threshold", threshold.is_some(), "diff"),
        ("--out", folded_out.is_some(), "flame"),
    ] {
        if given && verb != owner {
            return Err(LdmoError::usage(format!(
                "trace: {flag} belongs to 'ldmo trace {owner}'"
            )));
        }
    }
    let load = |file: &String| {
        Trace::load(Path::new(file)).map_err(trace_error(format!("trace '{file}'")))
    };
    let merged = || {
        if files.is_empty() {
            return Err(LdmoError::usage(format!("usage: ldmo trace {verb} FILE..")));
        }
        let mut merged = Trace::default();
        for file in files {
            merged.merge(load(file)?);
        }
        Ok(merged)
    };
    match verb {
        "summarize" => {
            let merged = merged()?;
            emit(&render_summary(&merged))?;
            if reconcile {
                let checked = merged
                    .reconcile_flow_timing(0.01)
                    .map_err(trace_error("flow-timing reconciliation"))?;
                say!("reconcile: {checked} flow.run/chip.run span(s) match their timing buckets within 1%");
            }
            Ok(())
        }
        "diff" => {
            if let Some(extra) = files.get(2) {
                return Err(LdmoError::usage(format!("trace: unexpected argument '{extra}'")));
            }
            let [old_file, new_file] = files else {
                return Err(LdmoError::usage("usage: ldmo trace diff OLD NEW [--threshold R]"));
            };
            let threshold = threshold.unwrap_or(1.5);
            if threshold <= 1.0 {
                return Err(LdmoError::usage(
                    "--threshold must be > 1.0 (it is a growth ratio)",
                ));
            }
            let rows = diff(&load(old_file)?, &load(new_file)?, threshold);
            emit(&render_diff(&rows, 40))?;
            if rows.iter().any(|r| r.regressed) {
                return Err(LdmoError::Degraded {
                    context: format!("trace diff {old_file} -> {new_file}"),
                    reason: ldmo::guard::DegradeReason::PerfRegression,
                });
            }
            Ok(())
        }
        "flame" => {
            let merged = merged()?;
            emit(&render_flame(&merged, 40))?;
            if let Some(path) = folded_out {
                // collapsed-stack format, consumable by standard
                // flamegraph tooling (one `path;to;leaf SELF_US` per line)
                std::fs::write(path, merged.folded())
                    .map_err(io_error(format!("folded stacks '{path}'")))?;
                say!("folded stacks written to {path}");
            }
            Ok(())
        }
        _ => Err(LdmoError::usage(
            "usage: ldmo trace summarize FILE.. | ldmo trace diff OLD NEW | ldmo trace flame FILE..",
        )),
    }
}

fn cmd_bench_report(args: &Args) -> Result<(), LdmoError> {
    use ldmo::bench::report::{self, BenchReport};
    let load = |dir: &str| {
        let reports = BenchReport::load_dir(Path::new(dir))?;
        if reports.is_empty() {
            return Err(LdmoError::usage(format!(
                "no BENCH_*.json reports in '{dir}'"
            )));
        }
        Ok(reports)
    };
    let dir = args.positional.first().map(String::as_str);
    let Some(baseline) = args.value("gate") else {
        return emit(&report::render(&load(dir.unwrap_or("bench_out"))?));
    };
    // no default: `--gate bench_out` alone would gate the baselines
    // against themselves
    let dir = dir.ok_or(LdmoError::usage(
        "usage: ldmo bench-report FRESH_DIR --gate BASELINE_DIR",
    ))?;
    let gate = report::gate(&load(baseline)?, &load(dir)?)?;
    emit(&gate.text)?;
    if gate.failed.is_empty() {
        return Ok(());
    }
    Err(LdmoError::Degraded {
        context: format!(
            "bench gate {dir} against {baseline} ({})",
            gate.failed.join(", ")
        ),
        reason: ldmo::guard::DegradeReason::PerfRegression,
    })
}

fn cmd_train(args: &Args) -> Result<(), LdmoError> {
    let pool: usize = args.number("pool")?.unwrap_or(24);
    if pool == 0 {
        return Err(LdmoError::usage("--pool must be at least 1"));
    }
    let out = args.value("out").unwrap_or("predictor.bin");
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), 2020);
    let layouts = generator.generate_dataset(pool);
    say!("labeling (this runs one full ILT per sampled decomposition) …");
    let dataset = build_dataset(
        &layouts,
        &SamplerKind::Engineered,
        &SamplingConfig::default(),
        &DatasetConfig::default(),
    );
    say!("labeled {} pairs; training …", dataset.len());
    let mut predictor = PrintabilityPredictor::lite(7);
    let history = train(&mut predictor, &dataset, &TrainConfig::default());
    say!(
        "MAE {:.3} -> {:.3}",
        history.epoch_mae.first().copied().unwrap_or(f32::NAN),
        history.final_mae().unwrap_or(f32::NAN)
    );
    predictor
        .save(out)
        .map_err(|e| LdmoError::from(e).with_context(format!("weights '{out}'")))?;
    say!("weights saved to {out}");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), LdmoError> {
    use ldmo::serve::{ServeConfig, Server};
    let mut cfg = ServeConfig {
        addr: args.value("addr").unwrap_or("127.0.0.1:9185").into(),
        ..ServeConfig::default()
    };
    if let Some(n) = args.number("queue")? {
        cfg.queue_capacity = n;
        if cfg.queue_capacity == 0 {
            return Err(LdmoError::usage("--queue must be positive"));
        }
    }
    if let Some(n) = args.number("batch")? {
        cfg.batch_max = n;
        if cfg.batch_max == 0 {
            return Err(LdmoError::usage("--batch must be positive"));
        }
    }
    if let Some(ms) = args.number("deadline-ms")? {
        // 0 disables the default deadline entirely
        cfg.default_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(path) = args.value("cache") {
        cfg.cache_path = Some(std::path::PathBuf::from(path));
    }
    if let Some(n) = args.number("iters")? {
        cfg.pipeline.ilt.max_iterations = n;
    }
    if let Some(n) = args.number("candidates")? {
        cfg.pipeline.decomp.max_candidates = n;
    }
    let bind = cfg.addr.clone();
    let server = Server::start(cfg).map_err(io_error(format!("bind '{bind}'")))?;
    say!("ldmo-serve listening on {}", server.addr());
    say!("POST /optimize to submit, POST /shutdown to drain");
    // the accept/scheduler threads own the work; this thread just waits
    // for a drain request, then joins them and reports the totals
    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = server.shutdown();
    say!(
        "drained: {} served ({} degraded, {} cache hits / {} misses), \
         {} shed, {} rejected, {} drained-at-shutdown, {} conn drops",
        stats.served,
        stats.degraded,
        stats.cache_hits,
        stats.cache_misses,
        stats.shed,
        stats.rejected,
        stats.drained,
        stats.conn_drops
    );
    Ok(())
}

fn cmd_client(args: &Args) -> Result<(), LdmoError> {
    use ldmo::serve::{client, ClientConfig};
    let defaults = ClientConfig::default();
    let cfg = ClientConfig {
        addr: args.value("addr").map_or(defaults.addr, Into::into),
        clients: args.number("clients")?.unwrap_or(defaults.clients),
        requests: args.number("requests")?.unwrap_or(defaults.requests),
        seed: args.number("seed")?.unwrap_or(defaults.seed),
        max_retries: args.number("retries")?.unwrap_or(defaults.max_retries),
        deadline_ms: args.number("deadline-ms")?.or(defaults.deadline_ms),
        max_iterations: args.number("iters")?.or(defaults.max_iterations),
        max_candidates: args.number("candidates")?.or(defaults.max_candidates),
    };
    let report = client::run_soak(&cfg);
    say!(
        "soak: {} sent, {} ok, {} degraded, {} cached, {} retried, \
         {} shed, {} draining, {} rejected, {} conn retries",
        report.sent,
        report.ok,
        report.degraded,
        report.cached,
        report.retried,
        report.shed,
        report.draining,
        report.rejected,
        report.conn_retries
    );
    if args.switch("shutdown") {
        match client::shutdown(&cfg.addr) {
            Ok(_) => say!("drain requested"),
            Err(e) => eprintln!("drain request failed: {e}"),
        }
    }
    if !report.clean() {
        for reason in report.poisoned.iter().take(8) {
            eprintln!("poisoned: {reason}");
        }
        return Err(LdmoError::Parse {
            context: "serve soak responses".into(),
            detail: format!(
                "{} poisoned, {} dropped without a response",
                report.poisoned.len(),
                report.dropped
            ),
        });
    }
    say!("soak clean: every request answered, zero poisoned");
    Ok(())
}
