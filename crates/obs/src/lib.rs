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
//!   preallocated buffer; overflow drops rows and counts them instead of
//!   allocating.
//!
//! When the collector is disabled (the default) every recording call is a
//! single relaxed atomic load plus a branch, so instrumented hot paths stay
//! measurably free. Enable with [`enable`], `LDMO_TRACE=1`, or
//! [`trace_setup`] (which also understands the `--trace-out PATH` CLI
//! convention used by the bench bins and the `ldmo` CLI).
//!
//! The collector drains into a machine-readable JSONL event stream
//! ([`flush_jsonl`], one JSON object per line). [`json`] carries a
//! dependency-free JSON parser so traces can be validated and round-tripped
//! in tests without external crates. The read side lives in [`analyze`]:
//! span-tree rollups, histogram percentile reconstruction, convergence
//! summaries and trace diffing, powering the `ldmo trace` subcommand. The
//! human-readable end-of-run summary ([`summary`]) is that read side
//! applied to the trace just written. [`alloc`] adds an opt-in counting
//! global allocator feeding `mem.*` gauges.
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
pub mod profiler;
pub mod serve;
mod sink;
pub mod snapshot;

pub use collector::{
    adopt_parent_span, convergence, convergence_capacity, current_span_id, dropped_records,
    events_snapshot, records_snapshot, register_sampler_thread, span, ConvergenceRecord, Span,
    SpanEvent, MAX_SPAN_META,
};
pub use metrics::{
    counter, counters_snapshot, gauge, gauges_snapshot, histogram, histograms_snapshot, Counter,
    Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BINS,
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
    flight::init_from_env(); // the flight ring preallocates alongside
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
    profiler::reset();
}

/// Enables the collector when the environment asks for it
/// (`LDMO_TRACE=1`). Returns whether tracing is now enabled.
pub fn init_from_env() -> bool {
    if std::env::var("LDMO_TRACE").is_ok_and(|v| v == "1") {
        enable();
    }
    enabled()
}

// ---------------------------------------------------------------------------
// Run info: a small key/value registry describing the process (git rev,
// thread count, litho backend, …) that rides along in every flight-recorder
// dump header. Populated by the setup calls that know the values —
// `ldmo_par::cli_setup` sets `threads`, the litho backend setup sets
// `backend` — so the obs crate stays dependency-free.
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

/// The trace output path registered by [`trace_setup`], if any — what the
/// crash path flushes to ([`emergency_flush`]).
static TRACE_PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();

fn trace_path() -> &'static Mutex<Option<PathBuf>> {
    TRACE_PATH.get_or_init(|| Mutex::new(None))
}

/// The JSONL path the current process traces to (`None` when tracing is
/// off or streaming to stdout).
pub fn trace_out_path() -> Option<PathBuf> {
    trace_path().lock().expect("trace path lock").clone()
}

/// Crash-time best effort, called from the `ldmo-guard` panic hook: flush
/// the JSONL trace to the registered [`trace_out_path`] (so a crashed run
/// leaves a terminated trace, not a truncated tail) and dump the flight
/// ring. Every failure is swallowed — this runs while the process is
/// already dying.
pub fn emergency_flush(reason: &str) {
    if let Some(path) = trace_out_path() {
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

/// One-call CLI setup shared by the `ldmo` binary and the bench bins.
///
/// Tracing is requested by either a `--trace-out PATH` argument (scanned
/// from `std::env::args`) or `LDMO_TRACE=1` in the environment; with the
/// env var alone the output path falls back to `LDMO_TRACE_OUT` and then to
/// `ldmo_trace.jsonl`. Returns the JSONL output path when tracing was
/// enabled, for a matching [`trace_finish`] at the end of the run. The
/// path is also registered for the crash path ([`emergency_flush`]).
pub fn trace_setup() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let mut out: Option<PathBuf> = None;
    for pair in args.windows(2) {
        if pair[0] == "--trace-out" {
            out = Some(PathBuf::from(&pair[1]));
        }
    }
    if out.is_none() && std::env::var("LDMO_TRACE").is_ok_and(|v| v == "1") {
        let path = std::env::var("LDMO_TRACE_OUT").unwrap_or_else(|_| "ldmo_trace.jsonl".into());
        out = Some(PathBuf::from(path));
    }
    if let Some(path) = &out {
        enable();
        if path.as_os_str() != "-" {
            *trace_path().lock().expect("trace path lock") = Some(path.clone());
        }
    }
    out
}

/// Writes the JSONL trace to `out` (when tracing was set up) and prints the
/// end-of-run summary to stderr. `--trace-out -` streams the JSONL to
/// stdout (diagnostics stay on stderr, so piped JSON stays clean). Errors
/// are reported to stderr, never panicked — telemetry must not take down a
/// finished run.
pub fn trace_finish(out: Option<&Path>) {
    let Some(path) = out else { return };
    match flush_jsonl(path) {
        Ok(lines) => eprintln!("[trace] {lines} events written to {}", path.display()),
        Err(e) => eprintln!("[trace] could not write {}: {e}", path.display()),
    }
    eprint!("{}", summary());
}
