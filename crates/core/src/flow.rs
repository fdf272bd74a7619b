//! The end-to-end LDMO flow (paper Fig. 2).
//!
//! `input layout → decomposition generation → printability prediction →
//! ILT optimization → optimized masks`, with the feedback edge: when a
//! print violation is detected during ILT, the next-best candidate is
//! attempted ([`crate::select::attempt_ladder`]).

use crate::predictor::PrintabilityPredictor;
use crate::score::ScoreWeights;
use crate::select::{self, Rung};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_guard::{fault, penalty_score, DegradeReason};
use ldmo_ilt::{IltConfig, IltContext, IltOutcome};
use ldmo_layout::{Layout, MaskAssignment};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How the flow selects among decomposition candidates — the paper's CNN
/// plus the ablation strategies of DESIGN.md §4.
pub enum SelectionStrategy {
    /// The paper's method: a trained CNN printability predictor.
    Cnn(Box<PrintabilityPredictor>),
    /// Rank candidates by the Eq. 9 score of their *unoptimized* print —
    /// a cheap lithography proxy (one forward simulation per candidate,
    /// no ILT).
    LithoProxy,
    /// Uniform random selection.
    Random {
        /// Selection seed.
        seed: u64,
    },
    /// Take candidates in generation order.
    First,
}

impl std::fmt::Debug for SelectionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectionStrategy::Cnn(_) => write!(f, "Cnn(..)"),
            SelectionStrategy::LithoProxy => write!(f, "LithoProxy"),
            SelectionStrategy::Random { seed } => write!(f, "Random {{ seed: {seed} }}"),
            SelectionStrategy::First => write!(f, "First"),
        }
    }
}

/// Flow configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Candidate generation (Algorithm 1).
    pub decomp: DecompConfig,
    /// ILT engine; the flow forces
    /// [`ldmo_ilt::ViolationPolicy::AbortOnViolation`] during candidate
    /// attempts.
    pub ilt: IltConfig,
    /// Eq. 9 weights used by the `LithoProxy` strategy.
    pub weights: ScoreWeights,
    /// Maximum candidates attempted before giving up and completing the
    /// best-ranked candidate without the abort policy.
    pub max_attempts: usize,
    /// Wall-clock deadline for ranking one candidate. It bounds nothing:
    /// a candidate that blows it is still evaluated to the end, and the
    /// ranking waits for it. Only then is its score replaced by the
    /// deterministic [`ldmo_guard::penalty_score`] for
    /// [`DegradeReason::BudgetExhausted`], which makes the order
    /// timing-dependent. `None` (the default) keeps ranking fully
    /// deterministic; `ilt.budget` is what stops a run.
    pub candidate_deadline: Option<Duration>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            decomp: DecompConfig::default(),
            ilt: IltConfig::default(),
            weights: ScoreWeights::default(),
            max_attempts: 4,
            candidate_deadline: None,
        }
    }
}

/// Wall-clock breakdown of one flow run — the quantities behind the
/// paper's Fig. 1(c) and the "Time" columns of Table I.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowTiming {
    /// Decomposition-selection time: candidate generation + scoring +
    /// aborted ILT attempts.
    pub decomposition_selection: Duration,
    /// Mask-optimization time: the successful ILT run.
    pub mask_optimization: Duration,
}

impl FlowTiming {
    /// Splits a measured flow total into the two buckets: everything that
    /// is not the successful mask optimization is decomposition selection
    /// (candidate generation, scoring, aborted ILT attempts). Built this
    /// way the buckets sum exactly to the measured total — no stage can
    /// silently fall outside both (see `timing_accounts_for_total_span`).
    pub fn from_total(total: Duration, mask_optimization: Duration) -> Self {
        FlowTiming {
            decomposition_selection: total.saturating_sub(mask_optimization),
            mask_optimization,
        }
    }

    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.decomposition_selection + self.mask_optimization
    }
}

/// Result of one LDMO flow run.
#[derive(Debug)]
pub struct FlowResult {
    /// The decomposition the final masks came from.
    pub assignment: MaskAssignment,
    /// The final ILT outcome.
    pub outcome: IltOutcome,
    /// Candidates attempted (1 = the first choice succeeded).
    pub attempts: usize,
    /// Number of candidates generated.
    pub candidates: usize,
    /// Wall-clock breakdown.
    pub timing: FlowTiming,
}

/// The deep-learning-driven LDMO flow (Fig. 2).
pub struct LdmoFlow {
    cfg: FlowConfig,
    strategy: SelectionStrategy,
    pool: ldmo_par::ThreadPool,
}

impl LdmoFlow {
    /// Creates a flow with the given selection strategy, ranking
    /// candidates on the global [`ldmo_par`] pool.
    pub fn new(cfg: FlowConfig, strategy: SelectionStrategy) -> Self {
        LdmoFlow {
            cfg,
            strategy,
            pool: ldmo_par::global(),
        }
    }

    /// Replaces the pool the flow runs on (results are bit-identical for
    /// any pool size). It ranks candidates on the pool, and with two or
    /// more threads each ILT step runs its per-mask forward and gradient
    /// passes as lanes on it ([`crate::lanes`]).
    pub fn with_pool(mut self, pool: ldmo_par::ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// Runs the full flow on one layout.
    ///
    /// Every stage is wrapped in an `ldmo-obs` span (`flow.run` at the
    /// root; see DESIGN.md §8 for the span inventory); the spans also feed
    /// the legacy [`FlowTiming`] breakdown, with
    /// `decomposition_selection = total − mask_optimization` so the two
    /// buckets account for the whole run by construction.
    ///
    /// # Panics
    ///
    /// Panics if candidate generation yields nothing (cannot happen for
    /// non-empty layouts).
    pub fn run(&mut self, layout: &Layout) -> FlowResult {
        let run_start = Instant::now();
        let mut root = ldmo_obs::span("flow.run");
        root.set("patterns", layout.len() as f64);
        root.set("pool", self.pool.threads() as f64);
        // which litho backend executes this run's convolutions
        // (BackendKind::code: 1 scalar, 2 simd)
        root.set(
            "backend",
            f64::from(ldmo_litho::backend::resolved_kind().code()),
        );
        // one kernel-bank expansion serves the proxy ranking, every abort
        // attempt and the final optimization
        let ctx = {
            let _s = ldmo_obs::span("flow.kernel_expand");
            IltContext::new(&self.cfg.ilt)
        };
        let candidates = {
            let mut s = ldmo_obs::span("flow.candidate_gen");
            let candidates = generate_candidates(layout, &self.cfg.decomp);
            s.set("candidates", candidates.len() as f64);
            candidates
        };
        assert!(!candidates.is_empty(), "no decomposition candidates");
        let order = {
            let _s = ldmo_obs::span("flow.rank");
            self.rank_candidates(layout, &candidates, &ctx)
        };

        // one candidate is optimized at a time, so its masks get the pool
        let ctx = crate::lanes::on_pool(ctx, &self.pool);
        let mut scratch = None;
        let chosen = select::attempt_ladder(
            layout,
            &candidates,
            &order,
            &ctx,
            self.cfg.max_attempts,
            &mut scratch,
            |rung, run| {
                let mut s = match rung {
                    Rung::Attempt { n, candidate } => {
                        let mut s = ldmo_obs::span("flow.ilt_attempt");
                        s.set("attempt", n as f64);
                        s.set("candidate", candidate as f64);
                        s
                    }
                    Rung::Final => ldmo_obs::span("flow.ilt_final"),
                };
                let outcome = run();
                if rung != Rung::Final {
                    let aborted = outcome.aborted_at.is_some();
                    s.set("aborted", if aborted { 1.0 } else { 0.0 });
                    // an aborted attempt is selection overhead, not
                    // optimization — it counts into decomposition_selection
                    // via the total
                    if aborted && ldmo_obs::enabled() {
                        ldmo_obs::counter("flow.rejections").incr();
                    }
                }
                outcome
            },
        );
        let timing = FlowTiming::from_total(run_start.elapsed(), chosen.final_time);
        // sel_us + opt_us must reconcile with the span's own duration
        // (`ldmo trace summarize --reconcile` enforces it within 1%); with
        // the backend tag this uses 6 of the collector's
        // `ldmo_obs::MAX_SPAN_META` slots
        root.set("attempts", chosen.attempts as f64);
        root.set("sel_us", timing.decomposition_selection.as_micros() as f64);
        root.set("opt_us", timing.mask_optimization.as_micros() as f64);
        FlowResult {
            assignment: candidates[chosen.index].clone(),
            outcome: chosen.outcome,
            attempts: chosen.attempts,
            candidates: candidates.len(),
            timing,
        }
    }

    /// Candidate indices in selection order (best first).
    ///
    /// Exposed for the scaling benches; `ctx` must have been built for
    /// `self.config().ilt` (see [`IltContext::new`]).
    pub fn rank_candidates(
        &mut self,
        layout: &Layout,
        candidates: &[MaskAssignment],
        ctx: &IltContext,
    ) -> Vec<usize> {
        match &mut self.strategy {
            SelectionStrategy::Cnn(p) => p.rank(layout, candidates),
            SelectionStrategy::LithoProxy => {
                // one forward simulation per candidate, fanned over the
                // pool; scores are keyed by candidate index, so the sort
                // sees exactly the serial ordering. The catching fan
                // converts a panicking candidate into a penalized slot
                // instead of unwinding the whole ranking, and a candidate
                // that blows the per-candidate deadline (or comes back
                // degraded) gets the same deterministic penalty treatment.
                let weights = self.cfg.weights;
                let deadline = self.cfg.candidate_deadline;
                let indexed: Vec<(usize, &MaskAssignment)> =
                    candidates.iter().enumerate().collect();
                let results = self.pool.par_map_init_catching(
                    &indexed,
                    || None::<ldmo_ilt::IltScratch>,
                    |scratch, &(i, c)| {
                        // the stall injection simulates a slow candidate,
                        // so it must land inside the timed window
                        let started = Instant::now();
                        fault::apply_stall(i);
                        fault::maybe_panic(i);
                        let out = ctx.evaluate_unoptimized_reusing(layout, c, scratch);
                        let degraded = out.health.is_degraded();
                        let late = !degraded && deadline.is_some_and(|d| started.elapsed() > d);
                        if degraded || late {
                            ldmo_obs::incr("guard.candidate_penalized");
                        }
                        if late {
                            penalty_score(DegradeReason::BudgetExhausted)
                        } else {
                            select::proxy_score(&out, &weights)
                        }
                    },
                );
                let scores = results
                    .into_iter()
                    .map(|r| {
                        r.unwrap_or_else(|_| {
                            ldmo_obs::incr("guard.candidate_penalized");
                            penalty_score(DegradeReason::WorkerPanic)
                        })
                    })
                    .collect();
                select::order_by_score(scores)
            }
            SelectionStrategy::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                order.shuffle(&mut rng);
                order
            }
            SelectionStrategy::First => (0..candidates.len()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    fn quad_layout(gap: i32) -> Layout {
        let size = 64;
        let pitch = size + gap;
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 120, size),
                Rect::square(120 + pitch, 120, size),
                Rect::square(120, 120 + pitch, size),
                Rect::square(120 + pitch, 120 + pitch, size),
            ],
        )
    }

    fn fast_cfg() -> FlowConfig {
        let mut cfg = FlowConfig::default();
        cfg.ilt.max_iterations = 12;
        cfg.ilt.abort_warmup = 6;
        cfg
    }

    #[test]
    fn litho_proxy_flow_completes() {
        let layout = quad_layout(60);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::LithoProxy);
        let result = flow.run(&layout);
        assert!(result.candidates > 0);
        assert!(result.attempts >= 1);
        assert_eq!(result.assignment.len(), layout.len());
        assert!(result.timing.total() > Duration::ZERO);
    }

    #[test]
    fn proxy_selection_separates_the_quad() {
        // the unoptimized-print proxy must rank a checkerboard-ish
        // decomposition above all-same-mask for a dense quad
        let layout = quad_layout(60);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::LithoProxy);
        let result = flow.run(&layout);
        // at least one close pair must be split in the selected candidate
        let a = &result.assignment;
        assert!(
            a.contains(&0) && a.contains(&1),
            "selected an all-one-mask decomposition: {a:?}"
        );
    }

    #[test]
    fn first_strategy_is_deterministic() {
        let layout = quad_layout(72);
        let r1 = LdmoFlow::new(fast_cfg(), SelectionStrategy::First).run(&layout);
        let r2 = LdmoFlow::new(fast_cfg(), SelectionStrategy::First).run(&layout);
        assert_eq!(r1.assignment, r2.assignment);
    }

    #[test]
    fn random_strategy_depends_on_seed() {
        let layout = quad_layout(72);
        let a = LdmoFlow::new(fast_cfg(), SelectionStrategy::Random { seed: 1 }).run(&layout);
        let b = LdmoFlow::new(fast_cfg(), SelectionStrategy::Random { seed: 2 }).run(&layout);
        // different seeds may pick the same candidate, but the flow must
        // still finish cleanly in both cases
        assert_eq!(a.assignment.len(), b.assignment.len());
    }

    #[test]
    fn untrained_cnn_flow_still_produces_masks() {
        // an untrained CNN gives arbitrary rankings; the violation feedback
        // loop must still deliver a result
        let layout = quad_layout(60);
        let predictor = PrintabilityPredictor::lite(3);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::Cnn(Box::new(predictor)));
        let result = flow.run(&layout);
        assert_eq!(result.assignment.len(), 4);
        assert!(result.attempts <= fast_cfg().max_attempts + 1);
    }

    #[test]
    fn timing_breakdown_is_consistent() {
        let layout = quad_layout(72);
        let result = LdmoFlow::new(fast_cfg(), SelectionStrategy::First).run(&layout);
        let t = result.timing;
        assert!(t.total() >= t.mask_optimization);
    }

    #[test]
    fn timing_accounts_for_total_span() {
        // accounting-drift regression: decomposition_selection +
        // mask_optimization must equal the whole flow.run span (± slack),
        // so no stage can silently fall outside both buckets (kernel
        // expansion and abort bookkeeping used to)
        let layout = quad_layout(60);
        let mut flow = LdmoFlow::new(fast_cfg(), SelectionStrategy::LithoProxy);
        let wall = Instant::now();
        let result = flow.run(&layout);
        let measured = wall.elapsed();
        let bucketed = result.timing.total();
        assert!(
            bucketed <= measured,
            "buckets exceed the measured span: {bucketed:?} > {measured:?}"
        );
        assert!(
            measured - bucketed < Duration::from_millis(50),
            "{:?} of the flow span fell outside both timing buckets",
            measured - bucketed
        );
    }
}
