//! The per-request optimization pipeline: the shared select-then-optimize
//! loop of `ldmo_core::select` (serial proxy ranking → abort-attempt
//! ladder → complete best-ranked) under a per-request deadline, with
//! retry-once-with-halved-budget before degrading to the deterministic
//! unoptimized drawn masks.

use ldmo_core::score::ScoreWeights;
use ldmo_core::select::{attempt_ladder, rank_by_proxy};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::Grid;
use ldmo_guard::{Budget, DegradeReason, OutcomeHealth};
use ldmo_ilt::{IltConfig, IltContext};
use ldmo_layout::{Layout, MaskAssignment};
use std::time::{Duration, Instant};

/// Per-request optimization knobs (the serving analogue of `ChipConfig`).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// ILT engine config; its budget composes with the request deadline
    /// (the tighter bound wins on each axis).
    pub ilt: IltConfig,
    /// Candidate generation (its `max_candidates` caps the ranking
    /// fan-out and is part of the cache key).
    pub decomp: DecompConfig,
    /// Eq. 9 weights for the litho-proxy ranking.
    pub weights: ScoreWeights,
    /// Candidates attempted under the abort policy before completing the
    /// best-ranked one without it.
    pub max_attempts: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            ilt: IltConfig::default(),
            decomp: DecompConfig::default(),
            weights: ScoreWeights::default(),
            max_attempts: 4,
        }
    }
}

/// What one request's optimization produced.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The served double-patterning mask pair.
    pub masks: [Grid; 2],
    /// EPE violations of the served masks.
    pub epe_violations: usize,
    /// ILT attempts made (abort-loop + fallback + retry).
    pub attempts: usize,
    /// Decomposition candidates ranked.
    pub candidates: usize,
    /// Iterations of the accepted run.
    pub iterations: usize,
    /// Guard verdict. `Degraded` means the deterministic unoptimized
    /// drawn masks were served.
    pub health: OutcomeHealth,
    /// Whether the halved-budget retry produced the served result. A
    /// retried outcome is never cached — the retry only happens when a
    /// wall-clock budget fired, which is not a function of the input.
    pub retried: bool,
}

/// Composes the configured budget with the request's remaining deadline:
/// the tighter wall bound wins; iteration bounds pass through.
fn merge_budget(base: &Budget, remaining: Option<Duration>) -> Budget {
    let max_wall = match (base.max_wall, remaining) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    Budget {
        max_iterations: base.max_iterations,
        max_wall,
    }
}

/// Runs one request end to end. `remaining` is the wall-clock budget left
/// of the request's deadline at processing start (queue wait already
/// deducted); `None` means no deadline.
///
/// Failure ladder (DESIGN.md §16): abort-attempt loop → complete the
/// best-ranked candidate → retry once with a halved budget → degrade to
/// the deterministic unoptimized drawn masks. Every rung returns a
/// well-formed outcome; nothing panics or blocks past the deadline by
/// more than one budget check interval.
pub fn optimize_request(
    layout: &Layout,
    cfg: &PipelineConfig,
    ctx: &IltContext,
    remaining: Option<Duration>,
) -> RequestOutcome {
    let started = Instant::now();
    // one scratch serves the ranking, every attempt and the retry
    let mut scratch = None;
    let candidates = generate_candidates(layout, &cfg.decomp);
    let order = rank_by_proxy(layout, &candidates, ctx, &cfg.weights, &mut scratch);
    let n_candidates = candidates.len();

    // the deadline may already be spent on queue wait + ranking: skip
    // straight to the deterministic fallback rather than starting an ILT
    // run that is guaranteed to blow its budget
    let spent_already = remaining.is_some_and(|d| started.elapsed() >= d);
    if spent_already {
        return degraded_outcome(
            layout,
            &candidates[order[0]],
            ctx,
            n_candidates,
            0,
            DegradeReason::BudgetExhausted,
            false,
        );
    }

    let first_cfg = IltConfig {
        budget: merge_budget(
            &cfg.ilt.budget,
            remaining.map(|d| d.saturating_sub(started.elapsed())),
        ),
        ..cfg.ilt.clone()
    };
    let chosen = attempt_ladder(
        layout,
        &candidates,
        &order,
        &ctx.with_config(&first_cfg),
        cfg.max_attempts,
        &mut scratch,
        |_, run| run(),
    );
    let (ci, out, mut attempts) = (chosen.index, chosen.outcome, chosen.attempts);
    if out.health.is_usable() {
        return RequestOutcome {
            masks: out.masks.clone(),
            epe_violations: out.epe_violations(),
            attempts,
            candidates: n_candidates,
            iterations: out.iterations_run,
            health: out.health,
            retried: false,
        };
    }
    let reason = match out.health {
        OutcomeHealth::Degraded { reason } => reason,
        _ => unreachable!("non-usable health is Degraded"),
    };

    // retry once with a halved budget: half the iteration cap (so a
    // shortened run can *complete* instead of re-blowing the bound) and
    // whatever wall clock the deadline has left, halved
    ldmo_obs::incr("serve.retries");
    let left = remaining.map(|d| d.saturating_sub(started.elapsed()));
    if left.is_none_or(|d| d > Duration::ZERO) {
        let halved_iters = (cfg.ilt.max_iterations / 2).max(1);
        let retry_cfg = IltConfig {
            max_iterations: halved_iters,
            budget: Budget {
                max_iterations: first_cfg.budget.max_iterations.map(|n| (n / 2).max(1)),
                max_wall: left.map(|d| d / 2),
            },
            ..cfg.ilt.clone()
        };
        attempts += 1;
        let retry = ctx.with_config(&retry_cfg).optimize_reusing(
            layout,
            candidates[ci].as_slice(),
            &mut scratch,
        );
        if retry.health.is_usable() {
            return RequestOutcome {
                masks: retry.masks.clone(),
                epe_violations: retry.epe_violations(),
                attempts,
                candidates: n_candidates,
                iterations: retry.iterations_run,
                health: retry.health,
                retried: true,
            };
        }
    }

    degraded_outcome(
        layout,
        &candidates[ci],
        ctx,
        n_candidates,
        attempts,
        reason,
        true,
    )
}

/// The deterministic bottom rung: the candidate's unoptimized drawn
/// masks (always printable-as-drawn, a pure function of the layout).
fn degraded_outcome(
    layout: &Layout,
    candidate: &MaskAssignment,
    ctx: &IltContext,
    candidates: usize,
    attempts: usize,
    reason: DegradeReason,
    retried: bool,
) -> RequestOutcome {
    ldmo_obs::incr("serve.degraded");
    let un = ctx.evaluate_unoptimized(layout, candidate.as_slice());
    RequestOutcome {
        masks: un.masks.clone(),
        epe_violations: un.epe_violations(),
        attempts,
        candidates,
        iterations: 0,
        health: OutcomeHealth::Degraded { reason },
        retried,
    }
}

/// Serial replacement for a request whose pool worker panicked: the
/// first candidate's unoptimized drawn masks, marked degraded — the
/// serving mirror of `ldmo-chip`'s `panicked_tile`.
pub fn panicked_fallback(
    layout: &Layout,
    cfg: &PipelineConfig,
    ctx: &IltContext,
) -> RequestOutcome {
    ldmo_obs::incr("serve.panics");
    let candidates = generate_candidates(layout, &cfg.decomp);
    degraded_outcome(
        layout,
        &candidates[0],
        ctx,
        candidates.len(),
        0,
        DegradeReason::WorkerPanic,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    fn small_layout() -> Layout {
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![Rect::square(80, 80, 64), Rect::square(240, 240, 64)],
        )
    }

    fn fast_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        cfg.ilt.max_iterations = 4;
        cfg.decomp.max_candidates = 4;
        cfg
    }

    #[test]
    fn healthy_request_is_deterministic() {
        let layout = small_layout();
        let cfg = fast_cfg();
        let ctx = IltContext::new(&cfg.ilt);
        let a = optimize_request(&layout, &cfg, &ctx, None);
        let b = optimize_request(&layout, &cfg, &ctx, None);
        assert!(a.health.is_usable());
        assert!(!a.retried);
        assert_eq!(a.masks, b.masks);
        assert_eq!(a.epe_violations, b.epe_violations);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn exhausted_iteration_budget_retries_then_degrades_or_completes() {
        let layout = small_layout();
        let mut cfg = fast_cfg();
        cfg.ilt.budget = Budget::iterations(0);
        let ctx = IltContext::new(&cfg.ilt);
        let out = optimize_request(&layout, &cfg, &ctx, None);
        // a zero-iteration budget halves to one iteration on retry; either
        // the retry completes cleanly within it or the fallback serves the
        // drawn masks — both are well-formed, neither panics
        assert!(out.retried || out.health.is_degraded());
        assert!(out.masks[0].as_slice().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn expired_deadline_degrades_immediately_and_deterministically() {
        let layout = small_layout();
        let cfg = fast_cfg();
        let ctx = IltContext::new(&cfg.ilt);
        let a = optimize_request(&layout, &cfg, &ctx, Some(Duration::ZERO));
        let b = optimize_request(&layout, &cfg, &ctx, Some(Duration::ZERO));
        assert_eq!(
            a.health,
            OutcomeHealth::Degraded {
                reason: DegradeReason::BudgetExhausted
            }
        );
        assert_eq!(a.iterations, 0);
        assert_eq!(a.masks, b.masks, "fallback masks are deterministic");
    }

    #[test]
    fn panicked_fallback_is_degraded_and_deterministic() {
        let layout = small_layout();
        let cfg = fast_cfg();
        let ctx = IltContext::new(&cfg.ilt);
        let a = panicked_fallback(&layout, &cfg, &ctx);
        let b = panicked_fallback(&layout, &cfg, &ctx);
        assert_eq!(
            a.health,
            OutcomeHealth::Degraded {
                reason: DegradeReason::WorkerPanic
            }
        );
        assert_eq!(a.masks, b.masks);
    }
}
