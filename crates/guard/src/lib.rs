#![warn(missing_docs)]
//! # ldmo-guard — the robustness layer
//!
//! The ILT inner loop is a non-convex gradient descent that the paper
//! simply assumes converges within its iteration budget. In a service
//! setting a single NaN gradient, diverging step, or pathological
//! candidate must degrade *one candidate's score* — not poison a whole
//! `LdmoFlow::run` or a parallel `build_dataset` fan-out. This crate is
//! the dependency-free substrate the rest of the workspace builds its
//! recovery paths on (DESIGN.md §11):
//!
//! - **Health taxonomy** — [`OutcomeHealth`] / [`DegradeReason`] classify
//!   every ILT outcome as `Clean`, `RecoveredAfterRollback`, or
//!   `Degraded { reason }`; [`sampled_finite`] is the cheap, stride-
//!   sampled NaN/Inf scan the hot path runs per iteration without
//!   allocating.
//! - **Budgets** — [`Budget`] carries per-candidate iteration and
//!   wall-clock deadlines; a blown budget degrades the candidate to a
//!   deterministic [`penalty_score`] instead of stalling the flow.
//! - **Error taxonomy** — [`LdmoError`] is the workspace-wide typed error
//!   that replaces panics on parse/model/trace I/O paths and maps to
//!   stable nonzero CLI exit codes.
//! - **Command line** — [`cli`] is the one argv parser of the workspace's
//!   binaries: each declares its flags, and anything else is a usage error.
//! - **Fault injection** — [`fault`] hosts a seed-driven [`FaultPlan`]
//!   (from `LDMO_FAULTS=spec` or test construction) that injects NaN
//!   gradients, worker panics, corrupt model bytes, and slow-candidate
//!   stalls. Like `ldmo-obs`, the disabled gate is a single relaxed
//!   atomic load, so production hot paths pay nothing.
//!
//! Determinism contract: with guards enabled and no faults firing, every
//! guarded code path is bit-identical to the unguarded engine (the step
//! scale multiplier starts at exactly `1.0`, rollback never triggers on a
//! healthy trajectory, and penalties are fixed constants) — enforced by
//! `tests/determinism_golden.rs` and `tests/chaos.rs`.

pub mod budget;
pub mod cli;
pub mod error;
pub mod fault;
pub mod ops;

pub use budget::{Budget, BudgetClock};
pub use error::LdmoError;
pub use fault::{FaultPlan, FaultSpecError, ModelFault};

/// Why a computation was degraded rather than failed outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// A non-finite value (NaN/Inf) survived past the recovery paths.
    NonFinite,
    /// Divergence rollback fired more than the configured maximum.
    DivergenceLimit,
    /// The iteration or wall-clock budget ran out before convergence.
    BudgetExhausted,
    /// A pool worker panicked while computing this slot.
    WorkerPanic,
    /// A performance comparison (`ldmo trace diff`, `ldmo bench-report
    /// --gate`) found a regression beyond its threshold: the work
    /// completed, but the result is an unhealthy verdict.
    PerfRegression,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::NonFinite => write!(f, "non-finite value"),
            DegradeReason::DivergenceLimit => write!(f, "divergence rollback limit"),
            DegradeReason::BudgetExhausted => write!(f, "budget exhausted"),
            DegradeReason::WorkerPanic => write!(f, "worker panic"),
            DegradeReason::PerfRegression => write!(f, "performance regression"),
        }
    }
}

/// Health classification of an optimization outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutcomeHealth {
    /// No guard intervened; the result is the plain engine output.
    #[default]
    Clean,
    /// Divergence rollback fired at least once but the run recovered: the
    /// result is the best finite iterate and is safe to use.
    RecoveredAfterRollback,
    /// The run could not be completed healthily; the result is the best
    /// iterate found but its score must be penalized.
    Degraded {
        /// What forced the degradation.
        reason: DegradeReason,
    },
}

impl OutcomeHealth {
    /// Whether the outcome must be penalized rather than scored normally.
    pub fn is_degraded(&self) -> bool {
        matches!(self, OutcomeHealth::Degraded { .. })
    }

    /// Whether the outcome is safe to score normally (`Clean` or
    /// `RecoveredAfterRollback`).
    pub fn is_usable(&self) -> bool {
        !self.is_degraded()
    }
}

impl std::fmt::Display for OutcomeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutcomeHealth::Clean => write!(f, "clean"),
            OutcomeHealth::RecoveredAfterRollback => write!(f, "recovered-after-rollback"),
            OutcomeHealth::Degraded { reason } => write!(f, "degraded ({reason})"),
        }
    }
}

/// Base of the deterministic penalty scores: far above any real Eq. 9
/// score (which tops out around `1e5` on our rasters), so a degraded
/// candidate always ranks behind every healthy one.
pub const PENALTY_BASE: f64 = 1.0e12;

/// Deterministic penalty score for a degraded candidate. Each reason maps
/// to a distinct fixed value so traces and tests can tell them apart, and
/// rankings stay reproducible no matter *when* a budget fired.
pub fn penalty_score(reason: DegradeReason) -> f64 {
    let offset = match reason {
        DegradeReason::NonFinite => 1.0,
        DegradeReason::DivergenceLimit => 2.0,
        DegradeReason::BudgetExhausted => 3.0,
        DegradeReason::WorkerPanic => 4.0,
        DegradeReason::PerfRegression => 5.0,
    };
    PENALTY_BASE + offset * 1.0e9
}

/// Divergence-guard policy of one ILT session (carried by `IltConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Master switch. Off reproduces the unguarded engine exactly (used by
    /// the guard-overhead bench).
    pub enabled: bool,
    /// Rollback triggers when the pre-update L2 exceeds
    /// `best_l2 * (1 + divergence_tolerance)`. The default is generous:
    /// healthy trajectories wiggle a few percent, a diverging step-size
    /// runaway overshoots by far more.
    pub divergence_tolerance: f64,
    /// Stride of the sampled NaN/Inf scans. `1` scans everything; the
    /// default keeps the scan ~1.5% of a full pass. NaN poisoning spreads
    /// through the separable convolutions, so a sampled scan catches real
    /// corruption within an iteration.
    pub scan_stride: usize,
    /// After this many rollbacks the session is marked
    /// [`DegradeReason::DivergenceLimit`] (it keeps stepping with the
    /// halved step, but the outcome is penalized).
    pub max_rollbacks: u32,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            enabled: true,
            divergence_tolerance: 0.5,
            scan_stride: 64,
            max_rollbacks: 8,
        }
    }
}

impl GuardPolicy {
    /// A policy with every guard disabled (bit-identical to the
    /// pre-guard engine; used for overhead benchmarking).
    pub fn disabled() -> Self {
        GuardPolicy {
            enabled: false,
            ..GuardPolicy::default()
        }
    }
}

/// Sampled finiteness scan: checks every `stride`-th element starting at
/// index 0 and returns `false` as soon as a NaN/Inf is sampled.
/// Allocation-free; `stride` is clamped to at least 1.
pub fn sampled_finite(values: &[f32], stride: usize) -> bool {
    values.iter().step_by(stride.max(1)).all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_classification() {
        assert!(OutcomeHealth::Clean.is_usable());
        assert!(OutcomeHealth::RecoveredAfterRollback.is_usable());
        let degraded = OutcomeHealth::Degraded {
            reason: DegradeReason::NonFinite,
        };
        assert!(degraded.is_degraded());
        assert!(!degraded.is_usable());
        assert_eq!(OutcomeHealth::default(), OutcomeHealth::Clean);
    }

    #[test]
    fn penalties_are_deterministic_and_distinct() {
        let reasons = [
            DegradeReason::NonFinite,
            DegradeReason::DivergenceLimit,
            DegradeReason::BudgetExhausted,
            DegradeReason::WorkerPanic,
            DegradeReason::PerfRegression,
        ];
        for r in reasons {
            assert_eq!(
                penalty_score(r).to_bits(),
                penalty_score(r).to_bits(),
                "penalty must be bit-stable"
            );
            assert!(penalty_score(r) > PENALTY_BASE);
        }
        let mut values: Vec<u64> = reasons
            .iter()
            .map(|&r| penalty_score(r).to_bits())
            .collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), reasons.len(), "penalties must be distinct");
    }

    #[test]
    fn sampled_scan_finds_aligned_nan() {
        let mut v = vec![0.0f32; 1000];
        assert!(sampled_finite(&v, 64));
        v[128] = f32::NAN; // stride-aligned
        assert!(!sampled_finite(&v, 64));
        // full scan always finds it
        v[128] = 0.0;
        v[129] = f32::INFINITY;
        assert!(!sampled_finite(&v, 1));
        // stride larger than the slice still checks element 0
        assert!(!sampled_finite(&[f32::NAN], 1024));
        assert!(sampled_finite(&[], 64));
    }

    #[test]
    fn guard_policy_default_is_enabled() {
        let p = GuardPolicy::default();
        assert!(p.enabled);
        assert!(!GuardPolicy::disabled().enabled);
        assert!(p.divergence_tolerance > 0.0);
        assert!(p.max_rollbacks > 0);
    }
}
