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
//! ldmo trace flame trace.jsonl                        profiler hotspot table
//! ldmo bench-report bench_out/                        aggregate BENCH_*.json
//! ```
//!
//! Errors exit with the stable codes of [`LdmoError::exit_code`]:
//! 2 usage, 3 parse, 4 model, 5 I/O, 6 trace, 7 bad `LDMO_FAULTS` spec,
//! 8 degraded result.

use ldmo::chip::{run_chip, ChipConfig};
use ldmo::core::dataset::{build_dataset, DatasetConfig, SamplerKind};
use ldmo::core::flow::{FlowConfig, LdmoFlow, SelectionStrategy};
use ldmo::core::predictor::PrintabilityPredictor;
use ldmo::core::sampling::SamplingConfig;
use ldmo::core::trainer::{train, TrainConfig};
use ldmo::decomp::{generate_candidates, is_dpl_compatible, DecompConfig};
use ldmo::guard::LdmoError;
use ldmo::ilt::{Budget, IltConfig, IltSession};
use ldmo::layout::classify::{classify_patterns, ClassifyConfig};
use ldmo::layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo::layout::{io as layout_io, Layout};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    ldmo::guard::ops::install_crash_hooks();
    let trace_out = ldmo::obs::trace_setup();
    ldmo::par::cli_setup();
    ldmo::litho::backend::cli_setup();
    // live-ops guards: the /metrics endpoint and the sampling profiler
    // stay up for the whole run and shut down when main returns
    let _metrics = ldmo::obs::serve::cli_setup();
    let _sampler = ldmo::obs::profiler::cli_setup();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match run(&args) {
        // a clean run must also land its trace — a failed trace write is
        // a real error (exit 6), not a stderr footnote
        Ok(()) => finish_trace(trace_out.as_deref()),
        Err(e) => {
            // best-effort flush so a failing run still leaves its trace,
            // plus a flight-recorder dump saying why it died
            ldmo::obs::trace_finish(trace_out.as_deref());
            let _ = ldmo::guard::ops::dump_on_error(&e);
            Err(e)
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), LdmoError> {
    // install any LDMO_FAULTS chaos plan before work starts; a malformed
    // spec is a hard error (exit 7), not something to silently ignore
    ldmo::guard::fault::init_from_env()?;
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("decompose") => cmd_decompose(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("flow") => cmd_flow(&args[1..]),
        Some("chip") => cmd_chip(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("bench-report") => cmd_bench_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(LdmoError::usage(format!(
            "unknown subcommand '{other}' (try 'ldmo help')"
        ))),
    }
}

/// Strict end-of-run trace flush: unlike [`ldmo::obs::trace_finish`] this
/// surfaces a failed JSONL write as [`LdmoError::Trace`] (exit 6).
fn finish_trace(out: Option<&Path>) -> Result<(), LdmoError> {
    let Some(path) = out else { return Ok(()) };
    let lines = ldmo::obs::flush_jsonl(path).map_err(|e| LdmoError::Trace {
        context: path.display().to_string(),
        detail: e.to_string(),
    })?;
    eprintln!("[trace] {lines} events written to {}", path.display());
    eprint!("{}", ldmo::obs::summary());
    Ok(())
}

fn print_usage() {
    println!(
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
         \x20 trace     flame FILE..                   profiler hotspot table from\n\
         \x20           [--out FOLDED.txt]             sample lines (+ folded stacks)\n\
         \x20 bench-report DIR                         aggregate BENCH_*.json reports\n\
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
         are bit-identical for any thread count\n\n\
         live-ops: --metrics-addr HOST:PORT (or LDMO_METRICS_ADDR) serves\n\
         /metrics (Prometheus), /snapshot (JSON) and /spans (JSONL) while\n\
         the run is in flight; --sample-hz N (or LDMO_SAMPLE_HZ) starts the\n\
         span-stack sampling profiler (samples land in the trace; analyze\n\
         with 'ldmo trace flame'); crashes and typed-error exits dump the\n\
         flight-recorder ring to flight_<pid>.jsonl (LDMO_FLIGHT_DIR, or\n\
         LDMO_FLIGHT=0 to disable)\n\n\
         --backend {{auto,scalar,simd}} (or LDMO_BACKEND=..) picks\n\
         the litho convolution backend (DESIGN.md §13); all backends are\n\
         bit-identical, 'auto' resolves to the fastest available\n\n\
         LDMO_FAULTS=SPEC installs a deterministic fault-injection plan\n\
         (see DESIGN.md §11); exit codes: 2 usage, 3 parse, 4 model, 5 I/O,\n\
         6 trace, 7 bad fault spec, 8 degraded"
    );
}

/// Reads `--flag value` style options; returns the positional arguments.
fn split_options(args: &[String]) -> (Vec<&str>, std::collections::HashMap<&str, &str>) {
    let mut positional = Vec::new();
    let mut options = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(flag) = args[i].strip_prefix("--") {
            if i + 1 < args.len() {
                options.insert(flag, args[i + 1].as_str());
                i += 2;
            } else {
                options.insert(flag, "");
                i += 1;
            }
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    (positional, options)
}

fn load_layout(path: &str) -> Result<Layout, LdmoError> {
    layout_io::load(path).map_err(|e| LdmoError::from(e).with_context(format!("layout '{path}'")))
}

fn io_error(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> LdmoError {
    let context = context.into();
    move |source| LdmoError::Io { context, source }
}

fn cmd_generate(args: &[String]) -> Result<(), LdmoError> {
    let (_, opts) = split_options(args);
    let seed: u64 = opts.get("seed").map_or(Ok(1), |s| parse_flag(s, "seed"))?;
    let count: usize = opts
        .get("count")
        .map_or(Ok(1), |s| parse_flag(s, "count"))?;
    if count == 0 {
        return Err(LdmoError::usage("--count must be at least 1"));
    }
    let out = opts.get("out").copied().unwrap_or(".");
    std::fs::create_dir_all(out).map_err(io_error(format!("directory '{out}'")))?;
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), seed);
    for (i, layout) in generator.generate_dataset(count).into_iter().enumerate() {
        let path = format!("{out}/layout_{seed}_{i}.lay");
        layout_io::save(&layout, &path)
            .map_err(|e| LdmoError::from(e).with_context(format!("layout '{path}'")))?;
        println!("wrote {path} ({} patterns)", layout.len());
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), LdmoError> {
    let (pos, _) = split_options(args);
    let path = pos
        .first()
        .ok_or(LdmoError::usage("usage: ldmo info FILE"))?;
    let layout = load_layout(path)?;
    let ccfg = ClassifyConfig::default();
    println!("window:   {}", layout.window());
    println!("patterns: {}", layout.len());
    for (i, (r, class)) in layout
        .patterns()
        .iter()
        .zip(classify_patterns(&layout, &ccfg))
        .enumerate()
    {
        println!("  {i}: {r} {class:?}");
    }
    println!("DPL-compatible: {}", is_dpl_compatible(&layout, ccfg.nmin));
    let candidates = generate_candidates(&layout, &DecompConfig::default());
    println!("decomposition candidates: {}", candidates.len());
    Ok(())
}

fn cmd_decompose(args: &[String]) -> Result<(), LdmoError> {
    let (pos, _) = split_options(args);
    let path = pos
        .first()
        .ok_or(LdmoError::usage("usage: ldmo decompose FILE"))?;
    let layout = load_layout(path)?;
    for (i, c) in generate_candidates(&layout, &DecompConfig::default())
        .iter()
        .enumerate()
    {
        let joined: Vec<String> = c.iter().map(u8::to_string).collect();
        println!("#{i}: {}", joined.join(","));
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

fn cmd_optimize(args: &[String]) -> Result<(), LdmoError> {
    let (pos, opts) = split_options(args);
    let path = pos.first().ok_or(LdmoError::usage(
        "usage: ldmo optimize FILE --assignment 0,1,..",
    ))?;
    let layout = load_layout(path)?;
    let assignment = parse_assignment(opts.get("assignment").ok_or(LdmoError::usage(
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
    let masks = match opts.get("masks") {
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
    let prefix = opts.get("out").copied();
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
    println!("EPE violations:   {}", out.epe_violations());
    println!("print violations: {}", out.violations.count());
    println!("L2 error:         {:.1}", out.l2);
    if let Some(prefix) = prefix {
        let printed_path = format!("{prefix}_printed.pgm");
        std::fs::write(&printed_path, out.printed.to_pgm())
            .map_err(io_error(format!("printed image '{printed_path}'")))?;
        for (i, m) in out.masks.iter().enumerate() {
            let mask_path = format!("{prefix}_mask{i}.pgm");
            std::fs::write(&mask_path, m.to_pgm())
                .map_err(io_error(format!("mask image '{mask_path}'")))?;
        }
        println!("images written with prefix {prefix}_");
    }
    Ok(())
}

fn cmd_flow(args: &[String]) -> Result<(), LdmoError> {
    let (pos, opts) = split_options(args);
    let path = pos.first().ok_or(LdmoError::usage(
        "usage: ldmo flow FILE [--predictor W.bin]",
    ))?;
    let layout = load_layout(path)?;
    let strategy = match opts.get("predictor") {
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
    println!("selected decomposition: {}", joined.join(","));
    println!("attempts:               {}", result.attempts);
    println!(
        "EPE violations:         {}",
        result.outcome.epe_violations()
    );
    println!(
        "print violations:       {}",
        result.outcome.violations.count()
    );
    println!("health:                 {:?}", result.outcome.health);
    println!(
        "time: {:.2}s selection + {:.2}s optimization",
        result.timing.decomposition_selection.as_secs_f64(),
        result.timing.mask_optimization.as_secs_f64()
    );
    Ok(())
}

/// Parses one numeric `--flag` value, reporting the flag name on failure.
fn parse_flag<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, LdmoError> {
    value
        .parse()
        .map_err(|_| LdmoError::usage(format!("--{flag} '{value}' is not a valid number")))
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

fn cmd_chip(args: &[String]) -> Result<(), LdmoError> {
    let (pos, opts) = split_options(args);
    let layout = match pos.first() {
        Some(path) => load_layout(path)?,
        None => {
            // no file: synthesize a demo chip as a COLSxROWS grid of
            // independently generated DRC-clean blocks
            let (cols, rows) = parse_grid(opts.get("tiles").copied().unwrap_or("2x2"))?;
            let seed: u64 = match opts.get("seed") {
                Some(s) => parse_flag(s, "seed")?,
                None => 7,
            };
            let mut generator = LayoutGenerator::new(GeneratorConfig::default(), seed);
            let chip = generator
                .generate_chip(cols, rows)
                .map_err(|e| LdmoError::Parse {
                    context: format!("demo chip ({cols}x{rows} blocks, seed {seed})"),
                    detail: e.to_string(),
                })?;
            println!(
                "demo chip: {cols}x{rows} blocks, seed {seed}, {} patterns, window {}",
                chip.len(),
                chip.window()
            );
            chip
        }
    };
    let mut cfg = ChipConfig::default();
    if let Some(v) = opts.get("tile-size") {
        cfg.tile_nm = parse_flag(v, "tile-size")?;
        if cfg.tile_nm <= 0 {
            return Err(LdmoError::usage("--tile-size must be positive (nm)"));
        }
    }
    if let Some(v) = opts.get("tile-iters") {
        cfg.ilt.max_iterations = parse_flag(v, "tile-iters")?;
    }
    if let Some(v) = opts.get("tile-candidates") {
        cfg.decomp.max_candidates = parse_flag(v, "tile-candidates")?;
    }
    if let Some(v) = opts.get("tile-budget-iters") {
        cfg.ilt.budget = Budget::iterations(parse_flag(v, "tile-budget-iters")?);
    }
    if let Some(v) = opts.get("tile-budget-ms") {
        // composes with --tile-budget-iters: both bounds apply
        cfg.ilt.budget.max_wall = Some(std::time::Duration::from_millis(parse_flag(
            v,
            "tile-budget-ms",
        )?));
    }
    let out = run_chip(&layout, &cfg);
    let empty = out.tiles.iter().filter(|t| t.patterns == 0).count();
    let (w, h) = out.masks[0].shape();
    println!(
        "tile grid:        {}x{} ({} tiles, {} nm cores + {} nm halo)",
        out.grid.cols(),
        out.grid.rows(),
        out.grid.len(),
        out.grid.tile_nm(),
        out.grid.halo_nm()
    );
    println!(
        "tiles:            {} optimized, {} empty, {} degraded",
        out.grid.len() - empty - out.degraded_tiles,
        empty,
        out.degraded_tiles
    );
    println!("chip mask:        {w}x{h} px per layer");
    println!("EPE violations:   {}", out.epe_violations);
    let secs = out.timing.total().as_secs_f64();
    if secs > 0.0 {
        println!(
            "throughput:       {:.2} tiles/s",
            out.grid.len() as f64 / secs
        );
    }
    println!(
        "time: {:.2}s setup + {:.2}s tiles + {:.2}s stitch",
        out.timing.setup.as_secs_f64(),
        out.timing.tiles.as_secs_f64(),
        out.timing.stitch.as_secs_f64()
    );
    if let Some(prefix) = opts.get("out") {
        for (i, m) in out.masks.iter().enumerate() {
            let mask_path = format!("{prefix}_mask{i}.pgm");
            std::fs::write(&mask_path, m.to_pgm())
                .map_err(io_error(format!("mask image '{mask_path}'")))?;
        }
        println!("chip masks written with prefix {prefix}_");
    }
    Ok(())
}

fn trace_error(context: impl Into<String>) -> impl FnOnce(String) -> LdmoError {
    let context = context.into();
    move |detail| LdmoError::Trace { context, detail }
}

fn cmd_trace(args: &[String]) -> Result<(), LdmoError> {
    use ldmo::obs::analyze::{diff, render_diff, render_flame, render_summary, Trace};
    // parsed by hand: `--reconcile` is a boolean flag, which the generic
    // `split_options` would greedily treat as `--flag value`
    let mut pos: Vec<&str> = Vec::new();
    let mut reconcile = false;
    let mut threshold: Option<&str> = None;
    let mut folded_out: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reconcile" => reconcile = true,
            "--threshold" => {
                threshold = args.get(i + 1).map(String::as_str);
                i += 1;
            }
            "--out" => {
                folded_out = args.get(i + 1).map(String::as_str);
                i += 1;
            }
            // global flags handled by the setup calls in main(); each
            // consumes one value argument
            "--trace-out" | "--threads" | "--backend" | "--metrics-addr" | "--sample-hz" => i += 1,
            other if other.starts_with("--") => {
                return Err(LdmoError::usage(format!("unknown trace option '{other}'")));
            }
            other => pos.push(other),
        }
        i += 1;
    }
    match pos.first().copied() {
        Some("summarize") => {
            let files = &pos[1..];
            if files.is_empty() {
                return Err(LdmoError::usage(
                    "usage: ldmo trace summarize [--reconcile] FILE..",
                ));
            }
            let mut merged = Trace::default();
            for file in files {
                let trace =
                    Trace::load(Path::new(file)).map_err(trace_error(format!("trace '{file}'")))?;
                merged.merge(trace);
            }
            print!("{}", render_summary(&merged));
            if reconcile {
                let checked = merged
                    .reconcile_flow_timing(0.01)
                    .map_err(trace_error("flow-timing reconciliation"))?;
                println!(
                    "reconcile: {checked} flow.run/chip.run span(s) match their timing buckets within 1%"
                );
            }
            Ok(())
        }
        Some("diff") => {
            let (old_file, new_file) = match (pos.get(1), pos.get(2)) {
                (Some(o), Some(n)) => (*o, *n),
                _ => {
                    return Err(LdmoError::usage(
                        "usage: ldmo trace diff OLD NEW [--threshold R]",
                    ))
                }
            };
            let threshold: f64 = match threshold {
                Some(t) => t
                    .parse()
                    .map_err(|_| LdmoError::usage(format!("--threshold '{t}' is not a number")))?,
                None => 1.5,
            };
            if threshold <= 1.0 {
                return Err(LdmoError::usage(
                    "--threshold must be > 1.0 (it is a growth ratio)",
                ));
            }
            let old = Trace::load(Path::new(old_file))
                .map_err(trace_error(format!("trace '{old_file}'")))?;
            let new = Trace::load(Path::new(new_file))
                .map_err(trace_error(format!("trace '{new_file}'")))?;
            let rows = diff(&old, &new, threshold);
            print!("{}", render_diff(&rows, 40));
            if rows.iter().any(|r| r.regressed) {
                return Err(LdmoError::Degraded {
                    context: format!("trace diff {old_file} -> {new_file}"),
                    reason: ldmo::guard::DegradeReason::PerfRegression,
                });
            }
            Ok(())
        }
        Some("flame") => {
            let files = &pos[1..];
            if files.is_empty() {
                return Err(LdmoError::usage(
                    "usage: ldmo trace flame FILE.. [--out FOLDED.txt]",
                ));
            }
            let mut merged = Trace::default();
            for file in files {
                let trace =
                    Trace::load(Path::new(file)).map_err(trace_error(format!("trace '{file}'")))?;
                merged.merge(trace);
            }
            print!("{}", render_flame(&merged, 40));
            if let Some(out) = folded_out {
                // collapsed-stack format, consumable by standard
                // flamegraph tooling (one `path;to;frame count` per line)
                std::fs::write(out, merged.folded())
                    .map_err(io_error(format!("folded stacks '{out}'")))?;
                println!("folded stacks written to {out}");
            }
            Ok(())
        }
        _ => Err(LdmoError::usage(
            "usage: ldmo trace summarize FILE.. | ldmo trace diff OLD NEW | ldmo trace flame FILE..",
        )),
    }
}

fn cmd_bench_report(args: &[String]) -> Result<(), LdmoError> {
    use ldmo::bench::report::BenchReport;
    let (pos, _) = split_options(args);
    let dir = pos.first().copied().unwrap_or("bench_out");
    let reports = BenchReport::load_dir(Path::new(dir))
        .map_err(trace_error(format!("bench reports in '{dir}'")))?;
    if reports.is_empty() {
        return Err(LdmoError::usage(format!(
            "no BENCH_*.json reports in '{dir}'"
        )));
    }
    for report in &reports {
        println!(
            "{} — rev {}, {} thread(s){}, {} result(s)",
            report.name,
            report.git_rev,
            report.threads,
            if report.fast { ", fast mode" } else { "" },
            report.results.len()
        );
        // time-valued rows render human-scaled; anything else keeps its
        // unit verbatim
        let fmt = |value: f64, unit: &str| -> String {
            let secs = match unit {
                "ns" => value / 1e9,
                "s" => value,
                _ => return format!("{value:.1} {unit}"),
            };
            if secs >= 1.0 {
                format!("{secs:.2}s")
            } else if secs >= 1e-3 {
                format!("{:.2}ms", secs * 1e3)
            } else {
                format!("{:.2}µs", secs * 1e6)
            }
        };
        for r in &report.results {
            let meta = if r.meta.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> =
                    r.meta.iter().map(|(k, v)| format!("{k}={v:.0}")).collect();
                format!("  [{}]", parts.join(", "))
            };
            println!(
                "  {:<44} {:>10} (n={}, min {}, max {}){meta}",
                r.id,
                fmt(r.median, &r.unit),
                r.n,
                fmt(r.min, &r.unit),
                fmt(r.max, &r.unit)
            );
        }
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), LdmoError> {
    let (_, opts) = split_options(args);
    let pool: usize = opts.get("pool").map_or(Ok(24), |s| parse_flag(s, "pool"))?;
    if pool == 0 {
        return Err(LdmoError::usage("--pool must be at least 1"));
    }
    let out = opts.get("out").copied().unwrap_or("predictor.bin");
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), 2020);
    let layouts = generator.generate_dataset(pool);
    println!("labeling (this runs one full ILT per sampled decomposition) …");
    let dataset = build_dataset(
        &layouts,
        &SamplerKind::Engineered,
        &SamplingConfig::default(),
        &DatasetConfig::default(),
    );
    println!("labeled {} pairs; training …", dataset.len());
    let mut predictor = PrintabilityPredictor::lite(7);
    let history = train(&mut predictor, &dataset, &TrainConfig::default());
    println!(
        "MAE {:.3} -> {:.3}",
        history.epoch_mae.first().copied().unwrap_or(f32::NAN),
        history.final_mae().unwrap_or(f32::NAN)
    );
    predictor
        .save(out)
        .map_err(|e| LdmoError::from(e).with_context(format!("weights '{out}'")))?;
    println!("weights saved to {out}");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), LdmoError> {
    use ldmo::serve::{ServeConfig, Server};
    let (_, opts) = split_options(args);
    let mut cfg = ServeConfig {
        addr: opts.get("addr").copied().unwrap_or("127.0.0.1:9185").into(),
        ..ServeConfig::default()
    };
    if let Some(v) = opts.get("queue") {
        cfg.queue_capacity = parse_flag(v, "queue")?;
        if cfg.queue_capacity == 0 {
            return Err(LdmoError::usage("--queue must be positive"));
        }
    }
    if let Some(v) = opts.get("batch") {
        cfg.batch_max = parse_flag(v, "batch")?;
        if cfg.batch_max == 0 {
            return Err(LdmoError::usage("--batch must be positive"));
        }
    }
    if let Some(v) = opts.get("deadline-ms") {
        let ms: u64 = parse_flag(v, "deadline-ms")?;
        // 0 disables the default deadline entirely
        cfg.default_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    if let Some(v) = opts.get("cache") {
        cfg.cache_path = Some(std::path::PathBuf::from(v));
    }
    if let Some(v) = opts.get("iters") {
        cfg.pipeline.ilt.max_iterations = parse_flag(v, "iters")?;
    }
    if let Some(v) = opts.get("candidates") {
        cfg.pipeline.decomp.max_candidates = parse_flag(v, "candidates")?;
    }
    let bind = cfg.addr.clone();
    let server = Server::start(cfg).map_err(io_error(format!("bind '{bind}'")))?;
    println!("ldmo-serve listening on {}", server.addr());
    println!("POST /optimize to submit, POST /shutdown to drain");
    // the accept/scheduler threads own the work; this thread just waits
    // for a drain request, then joins them and reports the totals
    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = server.shutdown();
    println!(
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

fn cmd_client(args: &[String]) -> Result<(), LdmoError> {
    use ldmo::serve::{client, ClientConfig};
    // `--shutdown` is a boolean flag; strip it before the greedy
    // `--flag value` parser (same idiom as `ldmo trace --reconcile`)
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let rest: Vec<String> = args
        .iter()
        .filter(|a| *a != "--shutdown")
        .cloned()
        .collect();
    let (_, opts) = split_options(&rest);
    let mut cfg = ClientConfig::default();
    if let Some(v) = opts.get("addr") {
        cfg.addr = (*v).into();
    }
    if let Some(v) = opts.get("clients") {
        cfg.clients = parse_flag(v, "clients")?;
    }
    if let Some(v) = opts.get("requests") {
        cfg.requests = parse_flag(v, "requests")?;
    }
    if let Some(v) = opts.get("seed") {
        cfg.seed = parse_flag(v, "seed")?;
    }
    if let Some(v) = opts.get("retries") {
        cfg.max_retries = parse_flag(v, "retries")?;
    }
    if let Some(v) = opts.get("deadline-ms") {
        cfg.deadline_ms = Some(parse_flag(v, "deadline-ms")?);
    }
    if let Some(v) = opts.get("iters") {
        cfg.max_iterations = Some(parse_flag(v, "iters")?);
    }
    if let Some(v) = opts.get("candidates") {
        cfg.max_candidates = Some(parse_flag(v, "candidates")?);
    }
    let report = client::run_soak(&cfg);
    println!(
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
    if shutdown {
        match client::shutdown(&cfg.addr) {
            Ok(_) => println!("drain requested"),
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
    println!("soak clean: every request answered, zero poisoned");
    Ok(())
}
