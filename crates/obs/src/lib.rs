#![warn(missing_docs)]
//! # ldmo-obs — the observability layer
//!
//! A minimal `tracing`-style telemetry substrate for the LDMO workspace,
//! implemented from scratch (the build environment has no crates.io
//! access). Three instrument families feed one global collector:
//!
//! - **Spans** ([`span`]): hierarchical wall-clock regions with monotonic
//!   timing and up to [`MAX_SPAN_META`] numeric metadata fields. Parent
//!   links come from a per-thread span stack.
//! - **Metrics** ([`counter`], [`gauge`], [`histogram`]): named atomics
//!   registered once and recorded allocation-free — safe inside the
//!   zero-allocation ILT hot path (DESIGN.md §6).
//! - **Convergence records** ([`convergence`]): fixed-capacity,
//!   per-iteration ILT trace rows (L2, step norm, EPE count) pushed into a
//!   preallocated buffer; at the cap the oldest row is evicted and counted
//!   instead of allocating.
//!
//! When the collector is disabled (the default) every recording call is a
//! single relaxed atomic load plus a branch, so instrumented hot paths stay
//! measurably free. Enable with [`enable`], or with [`trace_setup`],
//! which the binaries call with the path their `--trace-out PATH` (or
//! `LDMO_TRACE=1`) asked for.
//!
//! The collector drains into a machine-readable JSONL event stream
//! ([`flush_jsonl`], one JSON object per line). [`json`] carries a
//! dependency-free JSON parser so traces can be validated and round-tripped
//! in tests without external crates. The read side lives in [`analyze`]:
//! span-tree rollups, histogram percentile reconstruction, convergence
//! summaries and trace diffing, powering the `ldmo trace` subcommand. The
//! human-readable end-of-run summary ([`summary`]) is that read side
//! applied to the trace just written. [`alloc`] adds a counting global
//! allocator for allocation-free regression tests.
//!
//! Span naming, counter-vs-histogram guidance and the hot-path allocation
//! rules are documented in DESIGN.md §8.

pub mod alloc;
pub mod analyze;
mod collector;
pub mod flight;
pub mod http;
pub mod json;
mod metrics;
pub mod serve;
mod sink;
pub mod snapshot;

pub use collector::{
    adopt_parent_span, convergence, convergence_capacity, current_span_id, dropped_records,
    events_snapshot, records_snapshot, span, ConvergenceRecord, Span, SpanEvent, MAX_SPAN_META,
};
pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BINS,
};
pub use sink::{flush_jsonl, summary, write_jsonl};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the global collector is recording.
///
/// This is the compile-cheap no-op gate: a single relaxed atomic load.
/// Instrumentation sites with non-trivial argument computation should check
/// it before doing the work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Increments the counter `name` when the collector is enabled; with the
/// collector disabled the cost is one relaxed atomic load. Convenience for
/// the common `if enabled() { counter(name).incr() }` pattern at guard and
/// recovery sites.
pub fn incr(name: &'static str) {
    if enabled() {
        counter(name).incr();
    }
}

/// Turns the global collector on (idempotent).
///
/// All collector storage — the convergence-record buffer in particular —
/// is allocated here, so recording afterwards stays allocation-free.
pub fn enable() {
    collector::collector(); // force allocation of all buffers up front
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the global collector off. Already-recorded data is kept until
/// [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Clears all recorded spans, convergence records and metric values.
/// The enabled/disabled state is unchanged.
pub fn reset() {
    collector::reset();
    metrics::reset();
}

// ---------------------------------------------------------------------------
// Run info: a small key/value registry describing the process (thread
// count, litho backend, …) that rides along in every flight-recorder dump
// header, after the build's `git_rev`. Populated by the code that knows
// the values — the binaries' shared start-up (`ldmo_bench::run_main`) sets
// `threads` and `backend` — so the obs crate stays dependency-free.
// ---------------------------------------------------------------------------

static RUN_INFO: OnceLock<Mutex<Vec<(&'static str, String)>>> = OnceLock::new();

fn run_info() -> &'static Mutex<Vec<(&'static str, String)>> {
    RUN_INFO.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records (or overwrites) one run-info entry, e.g. `("threads", "4")`.
/// Entries appear in every flight-recorder dump header ([`flight::dump`]).
pub fn set_run_info(key: &'static str, value: impl Into<String>) {
    let value = value.into();
    let mut info = run_info().lock().expect("run info lock");
    match info.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v = value,
        None => info.push((key, value)),
    }
}

/// All run-info entries, insertion order.
pub fn run_info_snapshot() -> Vec<(&'static str, String)> {
    run_info().lock().expect("run info lock").clone()
}

/// The short git revision of the source tree this binary was built from,
/// with `-dirty` appended when a tracked file differs from it, or
/// `"unknown"` when that tree is gone or not a git checkout. It names
/// what code produced a flight dump ([`flight::dump`]) or a bench report,
/// wherever the run started. `git` runs once, on first use.
pub fn git_rev() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| tree_rev(Path::new(env!("CARGO_MANIFEST_DIR"))))
}

/// [`git_rev`] of the checkout that holds `dir`. Untracked files do not
/// make a tree dirty, and the status check takes no index lock, so it
/// never disturbs a git command running in the same checkout.
fn tree_rev(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]).filter(|s| !s.is_empty()) else {
        return "unknown".to_owned();
    };
    let status = [
        "--no-optional-locks",
        "status",
        "--porcelain",
        "--untracked-files=no",
    ];
    if git(&status).is_some_and(|changes| !changes.is_empty()) {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

/// The trace output path registered by [`trace_setup`], if any — what the
/// crash path flushes to ([`emergency_flush`]). `None` when tracing is off
/// or streams to stdout.
static TRACE_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Crash-time best effort, called from the `ldmo-guard` panic hook: flush
/// the JSONL trace to the path [`trace_setup`] registered (so a crashed run
/// leaves a terminated trace, not a truncated tail) and write the flight
/// dump. Every failure is swallowed — this runs while the process is
/// already dying.
pub fn emergency_flush(reason: &str) {
    let path = TRACE_PATH.lock().expect("trace path lock").clone();
    if let Some(path) = path {
        match flush_jsonl(&path) {
            Ok(lines) => eprintln!(
                "[trace] {reason}: {lines} events flushed to {}",
                path.display()
            ),
            Err(e) => eprintln!("[trace] {reason}: could not write {}: {e}", path.display()),
        }
    }
    flight::dump(reason);
}

/// Enables the collector and registers `out` as the JSONL trace
/// destination of the crash path ([`emergency_flush`]); `-` (stdout) is
/// not registered. The binaries call it with their parsed `--trace-out`
/// and write the trace with [`flush_jsonl`] when the run ends.
pub fn trace_setup(out: &Path) {
    enable();
    if out.as_os_str() != "-" {
        *TRACE_PATH.lock().expect("trace path lock") = Some(out.to_path_buf());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_rev_marks_edited_tracked_files_only() {
        let dir = std::env::temp_dir().join(format!("ldmo_tree_rev_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=ldmo", "-c", "user.email=ldmo@localhost"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .expect("git runs");
            assert!(out.status.success(), "git {args:?}: {out:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("tracked.txt"), "a\n").expect("write");
        git(&["add", "tracked.txt"]);
        git(&["commit", "-q", "-m", "first"]);
        let clean = tree_rev(&dir);
        assert!(
            clean.len() >= 7 && !clean.contains('-'),
            "a clean tree: {clean}"
        );
        std::fs::write(dir.join("untracked.txt"), "b\n").expect("write");
        assert_eq!(tree_rev(&dir), clean, "an untracked file alone");
        std::fs::write(dir.join("tracked.txt"), "edited\n").expect("write");
        assert_eq!(
            tree_rev(&dir),
            format!("{clean}-dirty"),
            "an edited tracked file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
