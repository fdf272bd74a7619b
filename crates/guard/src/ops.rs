//! Crash-path wiring between the robustness layer and the flight
//! recorder: the panic hook that flushes telemetry, plus dump helpers
//! the CLI and engine call on typed-error exit and on
//! divergence-rollback exhaustion.
//!
//! A crashed run should leave *analyzable* artifacts: a terminated JSONL
//! trace (not a truncated tail) and a flight-recorder dump
//! (`flight_<pid>.jsonl`, loadable by `ldmo trace summarize`). Panic
//! hooks run at panic *initiation*, before any unwind is caught, so
//! worker panics that the thread pool's catching fan-out absorbs still
//! dump — which is what makes `LDMO_FAULTS="panic@J"` chaos runs
//! observable in CI.

use crate::LdmoError;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

static HOOK: Once = Once::new();

/// Installs the telemetry panic hook (idempotent): on panic, the
/// previous hook runs first (keeping the default message and backtrace),
/// then the JSONL trace is flushed to its registered path and the flight
/// dump is written. The flush itself is wrapped in `catch_unwind` — a
/// second panic inside a panic hook would abort the process, and
/// telemetry must never turn a recoverable worker panic into an abort.
pub fn install_crash_hooks() {
    HOOK.call_once(|| {
        // stamp the build's git revision into the run info once, so every
        // flight-recorder dump header says what code produced it
        let rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned());
        ldmo_obs::set_run_info("git_rev", rev);
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            prev(info);
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                ldmo_obs::emergency_flush("panic");
            }));
        }));
    });
}

/// Writes the flight dump with `reason`, returning the dump path when a
/// dump was written (collector enabled and file creatable). Safe to call
/// from degraded-mode paths mid-run — it only copies the collector's
/// newest spans and rows.
pub fn dump_flight(reason: &str) -> Option<std::path::PathBuf> {
    ldmo_obs::flight::dump(reason)
}

/// Flight-recorder dump for a typed-error exit: writes the dump with the
/// error's variant name as the reason, so the dump header says *why* the
/// process died. The trace itself is the caller's job (`ldmo` already
/// flushes it on the error path) — only the dump is written here.
pub fn dump_on_error(e: &LdmoError) -> Option<std::path::PathBuf> {
    let reason = match e {
        LdmoError::Usage { .. } => "error-usage",
        LdmoError::Parse { .. } => "error-parse",
        LdmoError::Model { .. } => "error-model",
        LdmoError::Io { .. } => "error-io",
        LdmoError::Trace { .. } => "error-trace",
        LdmoError::Fault { .. } => "error-fault",
        LdmoError::Degraded { .. } => "error-degraded",
    };
    ldmo_obs::flight::dump(reason)
}
