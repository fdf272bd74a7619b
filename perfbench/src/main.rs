//! `ldmo-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow-cnn|chip-tiled|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that splits each unit of work into per-layer time.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`). See
//! `perfbench/README.md` for the workloads and every metric.

mod chip;
mod flow;
mod replay;
mod report;
mod serve;
mod stats;
mod sys;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Pool threads every workload runs with.
pub const THREADS: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Pins the process to the benchmark's topology whatever the caller's
/// environment says: no fast mode, no fault plan, a 2-thread pool and the
/// `auto` litho backend.
fn hermetic_setup() {
    for var in [
        "LDMO_FAST",
        "LDMO_THREADS",
        "LDMO_BACKEND",
        "LDMO_FAULTS",
        "LDMO_TRACE",
    ] {
        std::env::remove_var(var);
    }
    ldmo_par::set_global_threads(THREADS);
    ldmo_litho::backend::set_backend(ldmo_litho::BackendKind::Auto);
    ldmo_obs::disable();
}

/// A scratch directory for this run inside the working directory (the
/// checkout), removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from("perfbench")
            .join("work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload flow-cnn|chip-tiled|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    hermetic_setup();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "topology rev={} threads={} backend={} nproc={}",
        sys::source_rev(),
        ldmo_par::global_threads(),
        ldmo_litho::backend::resolved_kind().as_str(),
        sys::nproc()
    );
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "flow-cnn" => flow::run(&args, &work, &mut report),
        "chip-tiled" => chip::run(&args, &mut report),
        "serve-mixed" => serve::run(&args, &work, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    if !args.trace {
        match sys::peak_rss_mb() {
            Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
            None => report.check(false, "peak RSS unavailable (no /proc/self/status)"),
        }
    }
    drop(work);
    report.finish();
    ExitCode::SUCCESS
}

/// Median of several timed set-ups, printed with every sample.
pub fn setup_metric(report: &mut Report, samples: &[Duration]) {
    let secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    println!(
        "set-up: {} runs, {}",
        secs.len(),
        secs.iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    report.metric("setup_s", stats::median(&secs), "s");
}

/// Records `cpu_ms_per_op`: process CPU time (every thread: pool,
/// server, clients) over the measured window, per operation.
pub fn cpu_metric(report: &mut Report, cpu: Option<Duration>, ops: usize) {
    match cpu {
        Some(cpu) => report.metric(
            "cpu_ms_per_op",
            cpu.as_secs_f64() * 1e3 / ops.max(1) as f64,
            "ms",
        ),
        None => report.check(false, "process CPU time unavailable (no /proc/self/stat)"),
    }
}

/// FNV-1a digest of a sequence of mask hashes: one line that must read the
/// same across laps and across runs of the same seed.
pub fn digest<'a>(hashes: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in hashes {
        for b in s.bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// A small deterministic generator for workload schedules (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from the run seed and a stream tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// The per-layer metrics every workload's traced run reports, plus the
/// accounting of the traced units against their wall time.
pub struct LayerSummary<'a> {
    /// Bench-side timers of the replayed units and probes.
    pub times: &'a replay::LayerTimes,
    /// `IltContext::new` wall time.
    pub kernel_expand: Duration,
    /// ILT attempts per unit, from the real entry point's outcomes.
    pub attempts_per_unit: f64,
    /// ILT iterations per unit, from the real entry point's outcomes.
    pub iterations_per_unit: f64,
    /// Units ÷ attempts: the share of ILT attempts whose masks were used.
    pub useful_ratio: f64,
    /// Pool busy time over `threads × wall` during the traced pass.
    pub busy_fraction: f64,
    /// Units the accounting covers.
    pub units: usize,
    /// Wall time of those units.
    pub unit_wall: Duration,
    /// Summed timed layer calls of those units.
    pub accounted: Duration,
    /// Traced wall time over untraced wall time of the same work.
    pub overhead_ratio: f64,
}

impl LayerSummary<'_> {
    /// Prints the accounting and records every common per-layer metric.
    pub fn emit(&self, report: &mut Report) {
        let t = self.times;
        let wall_ms = self.unit_wall.as_secs_f64() * 1e3;
        let acc_ms = self.accounted.as_secs_f64() * 1e3;
        let units = self.units.max(1) as f64;
        println!(
            "accounting: {} units, wall {wall_ms:.3} ms, timed layer calls {acc_ms:.3} ms, \
             unaccounted {:.3} ms ({:.2}% of wall)",
            self.units,
            wall_ms - acc_ms,
            100.0 * (wall_ms - acc_ms) / wall_ms.max(1e-9)
        );
        println!(
            "tracing overhead: traced/untraced wall = {:.4}",
            self.overhead_ratio
        );
        report.metric(
            "decomp.candidates",
            t.candidates as f64 / t.gen.calls.max(1) as f64,
            "count",
        );
        report.metric("decomp.gen_us", t.gen.mean_us(), "us");
        report.metric("nn.rank_us", t.rank_nn.mean_us(), "us");
        report.metric("litho.eval_us", t.eval.mean_us(), "us");
        report.metric("ilt.session_us", t.session.mean_us(), "us");
        report.metric("ilt.step_us", t.step.mean_us(), "us");
        report.metric("ilt.forward_us", t.forward.mean_us(), "us");
        report.metric("ilt.gradient_us", t.gradient.mean_us(), "us");
        report.metric("litho.print_us", t.print.mean_us(), "us");
        report.metric("litho.violations_us", t.violations.mean_us(), "us");
        report.metric("litho.epe_us", t.epe.mean_us(), "us");
        report.metric("ilt.finish_us", t.finish.mean_us(), "us");
        report.metric("layout.io_us", t.io.mean_us(), "us");
        report.metric("ilt.attempts", self.attempts_per_unit, "count");
        report.metric("ilt.iterations", self.iterations_per_unit, "count");
        report.metric("ilt.useful_ratio", self.useful_ratio, "ratio");
        report.metric("par.busy_fraction", self.busy_fraction, "ratio");
        report.metric(
            "setup.kernel_expand_ms",
            self.kernel_expand.as_secs_f64() * 1e3,
            "ms",
        );
        report.metric("trace.accounted_share", acc_ms / wall_ms.max(1e-9), "ratio");
        report.metric("trace.unaccounted_ms", (wall_ms - acc_ms) / units, "ms");
        report.metric("trace.overhead_ratio", self.overhead_ratio, "ratio");
    }
}

/// Pool busy share since `before`: summed `par.worker_busy_us` over
/// `threads × wall`. 0 when the pool ran no region.
pub fn busy_fraction_since(before: &ldmo_obs::snapshot::MetricsSnapshot, wall: Duration) -> f64 {
    let busy = |snap: &ldmo_obs::snapshot::MetricsSnapshot| {
        snap.hists
            .iter()
            .find(|(n, _)| *n == "par.worker_busy_us")
            .map_or(0, |(_, h)| h.sum)
    };
    let now = ldmo_obs::snapshot::MetricsSnapshot::take();
    let busy_us = busy(&now).saturating_sub(busy(before)) as f64;
    busy_us / (THREADS as f64 * wall.as_secs_f64() * 1e6).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "chip-tiled",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, "chip-tiled");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert!(parse_args(&strings(&["--workload", "x", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(3, 1).permutation(13);
        let b = Rng::new(3, 1).permutation(13);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
        assert_ne!(Rng::new(4, 1).permutation(13), a);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        assert_eq!(digest(["a", "b"]), digest(["a", "b"]));
        assert_ne!(digest(["a", "b"]), digest(["b", "a"]));
        assert_ne!(digest(["ab"]), digest(["a", "b"]));
    }
}
