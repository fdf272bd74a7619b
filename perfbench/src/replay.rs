//! The traced run's instrument: bench-side timers around the public calls
//! into each layer, and a replay of the select-then-optimize loop built
//! only from those calls.
//!
//! The replay mirrors the loop that `LdmoFlow::run`, the chip tile runner
//! and the serving pipeline each run internally (rank → abort-checked ILT
//! attempts → complete the best-ranked candidate), so a traced unit can be
//! split into per-layer time without adding a span inside the program.
//! Every traced run checks that the replay's masks are bit-identical to
//! the real entry point's, which is what makes its per-layer split
//! trustworthy.

use ldmo_core::predictor::PrintabilityPredictor;
use ldmo_core::score::{printability_score, ScoreWeights};
use ldmo_decomp::{generate_candidates, DecompConfig};
use ldmo_geom::Grid;
use ldmo_ilt::{
    forward_multi_into, l2_gradient_multi_into, IltConfig, IltContext, IltOutcome, PairForward,
    ViolationPolicy,
};
use ldmo_layout::{Layout, MaskAssignment};
use ldmo_litho::{
    combine_double_pattern, detect_violations, measure_epe, simulate_print, LithoWorkspace,
};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Accumulated wall time and call count of one timed call site.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Summed wall time of every timed call.
    pub total: Duration,
    /// Number of timed calls.
    pub calls: u64,
}

impl Acc {
    /// Runs `f`, adding its wall time to this accumulator.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.total += t0.elapsed();
        self.calls += 1;
        r
    }

    /// Mean microseconds per call (0 before any call).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e6 / self.calls as f64
        }
    }
}

/// Timers of the calls one traced pass makes into each layer.
///
/// The fields above `forward` are the calls a unit of work is made of;
/// none nests inside another, so their sum is the accounted part of the
/// unit's wall time. `forward`/`gradient` time the two halves of
/// `step_one` by calling them directly on the same inputs, and `rank_nn`
/// or `eval` may also be probes (see each workload) — those are kept out
/// of the sum.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `Layout::extract_window` (layout).
    pub extract: Acc,
    /// `ldmo_decomp::generate_candidates` (decomp).
    pub gen: Acc,
    /// `PrintabilityPredictor::rank` (nn through core).
    pub rank_nn: Acc,
    /// `IltContext::evaluate_unoptimized`, per candidate (litho).
    pub eval: Acc,
    /// `IltContext::session`: rasterizing targets and corridors (ilt).
    pub session: Acc,
    /// `IltSession::step_one` (ilt).
    pub step: Acc,
    /// `IltSession::current_print` at abort checks (litho).
    pub print: Acc,
    /// `ldmo_litho::detect_violations` at abort checks (litho).
    pub violations: Acc,
    /// `ldmo_litho::measure_epe` at abort checks (litho).
    pub epe: Acc,
    /// `IltSession::snapshot`: the final print and EPE of an attempt (ilt).
    pub finish: Acc,
    /// `ldmo_chip::stitch_masks` (chip).
    pub stitch: Acc,
    /// `ldmo_layout::io::from_str` + `to_string` (layout).
    pub io: Acc,
    /// `ResultCache::get` (serve).
    pub cache_get: Acc,
    /// `ResultCache::insert` (serve).
    pub cache_insert: Acc,
    /// `ldmo_serve::mask_hash` (serve).
    pub hash: Acc,
    /// `ldmo_ilt::forward_multi_into`, called directly (probe).
    pub forward: Acc,
    /// `ldmo_ilt::l2_gradient_multi_into`, called directly (probe).
    pub gradient: Acc,
    /// Decomposition candidates generated.
    pub candidates: u64,
    /// ILT attempts replayed (aborted, accepted and fallback).
    pub attempts: u64,
    /// ILT iterations replayed.
    pub iterations: u64,
}

impl LayerTimes {
    /// Adds another pass's timers (e.g. one pool worker's) into these.
    pub fn merge(&mut self, other: &LayerTimes) {
        let pairs = [
            (&mut self.extract, other.extract),
            (&mut self.gen, other.gen),
            (&mut self.rank_nn, other.rank_nn),
            (&mut self.eval, other.eval),
            (&mut self.session, other.session),
            (&mut self.step, other.step),
            (&mut self.print, other.print),
            (&mut self.violations, other.violations),
            (&mut self.epe, other.epe),
            (&mut self.finish, other.finish),
            (&mut self.stitch, other.stitch),
            (&mut self.io, other.io),
            (&mut self.cache_get, other.cache_get),
            (&mut self.cache_insert, other.cache_insert),
            (&mut self.hash, other.hash),
            (&mut self.forward, other.forward),
            (&mut self.gradient, other.gradient),
        ];
        for (mine, theirs) in pairs {
            mine.total += theirs.total;
            mine.calls += theirs.calls;
        }
        self.candidates += other.candidates;
        self.attempts += other.attempts;
        self.iterations += other.iterations;
    }

    /// Summed time of the calls a unit is made of, given which of the
    /// ranking timers were on the unit's path (the other is a probe).
    pub fn accounted(&self, rank_nn_on_path: bool) -> Duration {
        let rank = if rank_nn_on_path {
            self.rank_nn.total
        } else {
            self.eval.total
        };
        rank + [
            self.extract,
            self.gen,
            self.session,
            self.step,
            self.print,
            self.violations,
            self.epe,
            self.finish,
            self.stitch,
            self.io,
            self.cache_get,
            self.cache_insert,
            self.hash,
        ]
        .iter()
        .map(|a| a.total)
        .sum::<Duration>()
    }
}

/// How the replay ranks candidates.
pub enum Ranker<'a> {
    /// The paper's CNN (`SelectionStrategy::Cnn`).
    Cnn(&'a mut PrintabilityPredictor),
    /// The litho proxy: Eq. 9 score of each candidate's unoptimized print.
    Proxy(ScoreWeights),
}

/// The attempt-loop knobs that differ between the three real loops.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Candidates tried under the abort policy before the fallback.
    pub max_attempts: usize,
    /// Skip candidates already rejected (flow and chip do, serve does not).
    pub dedupe: bool,
}

/// What one replayed select-then-optimize produced.
pub struct Replayed {
    /// The accepted (or fallback) ILT outcome.
    pub outcome: IltOutcome,
    /// The decomposition the outcome came from.
    pub assignment: MaskAssignment,
}

/// Replays rank → abort-checked attempts → fallback on `layout`, timing
/// every layer call into `t`. `ctx` carries the run (non-abort) policy.
pub fn select_and_optimize(
    layout: &Layout,
    ctx: &IltContext,
    decomp: &DecompConfig,
    ranker: Ranker<'_>,
    plan: Plan,
    t: &mut LayerTimes,
) -> Replayed {
    let candidates = t.gen.time(|| generate_candidates(layout, decomp));
    t.candidates += candidates.len() as u64;
    let order = match ranker {
        Ranker::Cnn(predictor) => t.rank_nn.time(|| predictor.rank(layout, &candidates)),
        Ranker::Proxy(weights) => {
            let scores: Vec<f64> = candidates
                .iter()
                .map(|c| {
                    proxy_score(
                        &t.eval.time(|| ctx.evaluate_unoptimized(layout, c)),
                        &weights,
                    )
                })
                .collect();
            order_by(&scores)
        }
    };
    let abort_ctx = ctx.with_config(&IltConfig {
        policy: ViolationPolicy::AbortOnViolation,
        ..ctx.cfg().clone()
    });
    let mut rejected: HashSet<&MaskAssignment> = HashSet::new();
    for &ci in order.iter().take(plan.max_attempts.max(1)) {
        let cand = &candidates[ci];
        if plan.dedupe && rejected.contains(cand) {
            continue;
        }
        let outcome = attempt(layout, &abort_ctx, cand, t);
        if outcome.aborted_at.is_none() {
            return Replayed {
                outcome,
                assignment: cand.clone(),
            };
        }
        rejected.insert(cand);
    }
    let best = &candidates[order[0]];
    Replayed {
        outcome: attempt(layout, ctx, best, t),
        assignment: best.clone(),
    }
}

/// The proxy ranking's score: Eq. 9, or the guard's penalty for a
/// degraded evaluation.
fn proxy_score(out: &IltOutcome, weights: &ScoreWeights) -> f64 {
    match out.health {
        ldmo_ilt::OutcomeHealth::Degraded { reason } => ldmo_guard::penalty_score(reason),
        _ => printability_score(out, weights),
    }
}

/// Candidate indices, best (lowest score) first; ties keep index order.
fn order_by(scores: &[f64]) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    scored.into_iter().map(|(i, _)| i).collect()
}

/// One ILT run of `assignment` under `ctx`'s policy, stepped and checked
/// exactly as the engine's own loop does.
fn attempt(layout: &Layout, ctx: &IltContext, assignment: &[u8], t: &mut LayerTimes) -> IltOutcome {
    t.attempts += 1;
    let cfg = ctx.cfg();
    let mut session = t.session.time(|| ctx.session(layout, assignment));
    let mut aborted_at = None;
    let mut last_check: Option<usize> = None;
    for iter in 0..cfg.max_iterations {
        t.step.time(|| session.step_one());
        t.iterations += 1;
        let check = cfg.policy == ViolationPolicy::AbortOnViolation
            && iter + 1 >= cfg.abort_warmup
            && (iter + 1) % cfg.check_interval.max(1) == 0;
        if !check {
            continue;
        }
        let printed = t.print.time(|| session.current_print());
        let report = t.violations.time(|| {
            detect_violations(
                &printed,
                layout.patterns(),
                cfg.litho.print_level,
                cfg.litho.nm_per_px,
            )
        });
        let epe = t
            .epe
            .time(|| measure_epe(&printed, layout.patterns(), &cfg.litho));
        let saturation = 2.0 * cfg.litho.epe_threshold_nm - 1e-6;
        let saturated = epe.sites.iter().any(|s| s.epe_nm.abs() >= saturation);
        let v = epe.violations();
        let stagnant = v > 0 && last_check.is_some_and(|prev| v >= prev);
        last_check = Some(v);
        if report.count() > 0 || saturated || stagnant {
            aborted_at = Some(iter);
            break;
        }
    }
    t.finish.time(|| session.snapshot(Vec::new(), aborted_at))
}

/// Times one direct call each of the ILT forward pass and gradient on
/// `assignment`'s initial parameters — the two halves of `step_one`.
pub fn probe_forward_gradient(
    layout: &Layout,
    ctx: &IltContext,
    assignment: &[u8],
    t: &mut LayerTimes,
) {
    let cfg = ctx.cfg();
    let scale = cfg.litho.nm_per_px;
    let target = layout.rasterize_target(scale);
    // the session's Eq. 1 initialization: P = ±0.25 around the drawn mask
    let p: Vec<Grid> = (0..2u8)
        .map(|m| {
            layout
                .rasterize_mask(assignment, m, scale)
                .expect("assignment covers the layout")
                .map(|v| if v > 0.5 { 0.25 } else { -0.25 })
        })
        .collect();
    let (w, h) = target.shape();
    let mut ws = LithoWorkspace::new(w, h);
    let mut fwd = PairForward::zeros(w, h, 2, ctx.bank().kernels().len());
    let mut grads = [Grid::zeros(w, h), Grid::zeros(w, h)];
    t.forward.time(|| {
        forward_multi_into(
            &p,
            &target,
            cfg.theta_m,
            ctx.bank(),
            &cfg.litho,
            &mut ws,
            &mut fwd,
        );
    });
    t.gradient.time(|| {
        l2_gradient_multi_into(
            &fwd,
            &target,
            cfg.theta_m,
            ctx.bank(),
            &cfg.litho,
            &mut ws,
            &mut grads,
        );
    });
}

/// Times one abort check's litho calls (print, violations, EPE) on
/// finished masks — a probe for workloads whose ILT runs end before the
/// first check (6 iterations against a warm-up of 9).
pub fn probe_checks(layout: &Layout, ctx: &IltContext, masks: &[Grid; 2], t: &mut LayerTimes) {
    let cfg = ctx.cfg();
    let printed = t.print.time(|| {
        let t1 = simulate_print(&masks[0], ctx.bank(), &cfg.litho);
        let t2 = simulate_print(&masks[1], ctx.bank(), &cfg.litho);
        combine_double_pattern(&t1, &t2)
    });
    t.violations.time(|| {
        detect_violations(
            &printed,
            layout.patterns(),
            cfg.litho.print_level,
            cfg.litho.nm_per_px,
        )
    });
    t.epe
        .time(|| measure_epe(&printed, layout.patterns(), &cfg.litho));
}

/// Times `from_str(to_string(layout))`, the text round trip every served
/// request pays for its cache key, and checks it is lossless.
pub fn probe_io(layout: &Layout, t: &mut LayerTimes) -> bool {
    let back =
        t.io.time(|| ldmo_layout::io::from_str(&ldmo_layout::io::to_string(layout)));
    back.is_ok_and(|l| l.patterns() == layout.patterns() && l.window() == layout.window())
}
