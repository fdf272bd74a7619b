//! The select-then-optimize loop of Fig. 2, shared by every entry point:
//! rank the decomposition candidates, run abort-checked ILT on them in
//! rank order, and when every attempt hits a print violation complete the
//! best-ranked one without the abort policy.
//!
//! [`crate::flow::LdmoFlow`], the `ldmo-chip` tile runner and the
//! `ldmo-serve` request pipeline all call [`attempt_ladder`]; chip tiles
//! and served requests rank with [`rank_by_proxy`] on the scratch they
//! already own. The paper's "drop a rejected decomposition" rule holds by
//! construction: candidates are canonically deduplicated at generation and
//! the ladder walks a permutation of their indices, so no decomposition is
//! ever attempted twice.

use crate::score::{printability_score, ScoreWeights};
use ldmo_guard::{penalty_score, OutcomeHealth};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome, IltScratch, ViolationPolicy};
use ldmo_layout::{Layout, MaskAssignment};
use std::time::{Duration, Instant};

/// The litho-proxy score of an unoptimized evaluation: Eq. 9, or the
/// guard's deterministic penalty when the evaluation came back degraded.
pub(crate) fn proxy_score(out: &IltOutcome, weights: &ScoreWeights) -> f64 {
    match out.health {
        OutcomeHealth::Degraded { reason } => penalty_score(reason),
        _ => printability_score(out, weights),
    }
}

/// Candidate indices, best (lowest score) first; ties keep index order.
pub(crate) fn order_by_score(scores: Vec<f64>) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    scored.into_iter().map(|(i, _)| i).collect()
}

/// Serial litho-proxy ranking (best first): one forward simulation per
/// candidate, all on the caller's `scratch`.
pub fn rank_by_proxy(
    layout: &Layout,
    candidates: &[MaskAssignment],
    ctx: &IltContext,
    weights: &ScoreWeights,
    scratch: &mut Option<IltScratch>,
) -> Vec<usize> {
    let score = |c: &MaskAssignment| {
        let out = ctx.evaluate_unoptimized_reusing(layout, c, scratch);
        proxy_score(&out, weights)
    };
    order_by_score(candidates.iter().map(score).collect())
}

/// Which rung of the ladder an ILT run belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The `n`-th abort-checked attempt (1-based), on candidate index
    /// `candidate`.
    Attempt {
        /// Attempt number.
        n: usize,
        /// Index into the candidate list.
        candidate: usize,
    },
    /// The full run of the best-ranked candidate after every attempt
    /// aborted.
    Final,
}

/// What [`attempt_ladder`] chose.
#[derive(Debug)]
pub struct Selected {
    /// Index of the candidate the outcome came from.
    pub index: usize,
    /// The accepted attempt, or the full run of the best-ranked candidate.
    pub outcome: IltOutcome,
    /// ILT runs made, the final full run included.
    pub attempts: usize,
    /// Wall time of the run that produced `outcome`.
    pub final_time: Duration,
}

/// Runs abort-checked ILT on the first `max_attempts` candidates of
/// `order` (at least one) and accepts the first that finishes without a
/// print violation; when all abort, completes `order[0]` under `ctx`'s own
/// policy. Every run recycles `scratch`. `around` wraps each run — the
/// flow hangs its per-attempt spans there; other callers pass
/// `|_, run| run()`.
///
/// # Panics
///
/// Panics if `order` is empty.
pub fn attempt_ladder(
    layout: &Layout,
    candidates: &[MaskAssignment],
    order: &[usize],
    ctx: &IltContext,
    max_attempts: usize,
    scratch: &mut Option<IltScratch>,
    mut around: impl FnMut(Rung, &mut dyn FnMut() -> IltOutcome) -> IltOutcome,
) -> Selected {
    let abort_ctx = ctx.with_config(&IltConfig {
        policy: ViolationPolicy::AbortOnViolation,
        ..ctx.cfg().clone()
    });
    let mut attempts = 0usize;
    for &ci in order.iter().take(max_attempts.max(1)) {
        attempts += 1;
        let started = Instant::now();
        let rung = Rung::Attempt {
            n: attempts,
            candidate: ci,
        };
        let outcome = around(rung, &mut || {
            abort_ctx.optimize_reusing(layout, &candidates[ci], scratch)
        });
        if outcome.aborted_at.is_none() {
            return Selected {
                index: ci,
                outcome,
                attempts,
                final_time: started.elapsed(),
            };
        }
    }
    let best = order[0];
    let started = Instant::now();
    let outcome = around(Rung::Final, &mut || {
        ctx.optimize_reusing(layout, &candidates[best], scratch)
    });
    Selected {
        index: best,
        outcome,
        attempts: attempts + 1,
        final_time: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    #[test]
    fn ties_keep_index_order() {
        assert_eq!(order_by_score(vec![2.0, 1.0, 2.0, 0.5]), [3, 1, 0, 2]);
    }

    #[test]
    fn all_aborting_attempts_fall_back_to_the_best_ranked() {
        // a dense 2×2 contact quad (56 nm gaps): all-same-mask aborts
        let corners = [(120, 120), (240, 120), (120, 240), (240, 240)];
        let patterns = corners.map(|(x, y)| Rect::square(x, y, 64)).to_vec();
        let layout = Layout::new(Rect::new(0, 0, 448, 448), patterns);
        let ctx = IltContext::new(&IltConfig::default());
        let candidates = vec![vec![0u8, 1, 1, 0], vec![0u8; 4]];
        let mut rungs = Vec::new();
        // one attempt, on the all-same-mask candidate: it aborts, so the
        // ladder completes the best-ranked (that same candidate) in full
        let sel = attempt_ladder(
            &layout,
            &candidates,
            &[1, 0],
            &ctx,
            1,
            &mut None,
            |r, run| {
                rungs.push(r);
                run()
            },
        );
        assert_eq!(rungs, [Rung::Attempt { n: 1, candidate: 1 }, Rung::Final]);
        assert_eq!((sel.index, sel.attempts), (1, 2));
        assert_eq!(sel.outcome.aborted_at, None);
    }
}
