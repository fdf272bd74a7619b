//! The ILT optimization loop (paper Section III-C).
//!
//! [`IltSession`] is the resumable core: it owns the mask parameters and
//! advances one gradient iteration at a time, which both the paper's flow
//! (violation checks every 3 iterations) and the ICCAD'17 unified baseline
//! (greedy pruning of partially optimized candidates) are built on.
//! [`optimize`] is the one-shot convenience wrapper.
//!
//! The session, its outcome and its scratch are generic over the mask
//! count `K` (default 2, the paper's double patterning): Eq. 1 relaxes
//! each of the `K` masks independently and Eq. 3 becomes
//! `T = min(Σ_i T_i, 1)`. [`IltSession::prepare`] is the entry point for
//! any `K`; the double-patterning names ([`optimize`], [`IltSession::new`],
//! the [`IltContext`] methods) stay non-generic because const-generic
//! defaults do not drive type inference.

use crate::gradient::{forward_multi_into, l2_gradient_multi_into, PairForward};
use ldmo_geom::Grid;
use ldmo_guard::{fault, sampled_finite, Budget, DegradeReason, GuardPolicy, OutcomeHealth};
use ldmo_layout::Layout;
use ldmo_litho::{
    combine_prints, detect_violations, measure_epe, simulate_print, EpeReport, KernelBank,
    LithoConfig, LithoWorkspace, ViolationReport,
};
use std::sync::Arc;

/// How the engine reacts to print violations detected mid-optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Run all iterations regardless; report violations only at the end.
    /// Used when labeling training data (the score needs the final count).
    #[default]
    Run,
    /// Abort as soon as a check (every `check_interval` iterations, after
    /// `abort_warmup`) finds a print violation — the Fig. 2 feedback edge
    /// that sends the flow back to decomposition selection. A violation is
    /// a bridge, a missing pattern, a *saturated* EPE site (no printed
    /// contour within ±2× the EPE threshold of a target edge), or an EPE
    /// violation count that failed to improve since the previous check —
    /// all signs that the decomposition, not the mask, is at fault.
    AbortOnViolation,
}

/// ILT engine configuration. Defaults are the paper's constants.
#[derive(Debug, Clone, PartialEq)]
pub struct IltConfig {
    /// Mask relaxation steepness `θm` (paper Eq. 1: 8).
    pub theta_m: f32,
    /// Gradient-descent step size applied to the max-normalized gradient
    /// (each iteration moves the most-active parameter by exactly this much,
    /// which makes convergence insensitive to the objective's scale).
    pub step_size: f32,
    /// Mask-rule-check corridor, nm: ILT may grow a mask feature at most
    /// this far beyond its drawn edge (shrinking inward is unrestricted).
    /// Without this bound a gradient ILT can "cheat" sub-resolution
    /// spacings with disconnected assist dots no mask shop would accept.
    pub mrc_expand_nm: i32,
    /// Maximum iteration count (paper: 29).
    pub max_iterations: usize,
    /// Violation-check cadence (paper: every 3 iterations).
    pub check_interval: usize,
    /// Iterations to skip before violation checks can abort: early masks
    /// have not converged yet and transiently under-print, which is not a
    /// decomposition defect.
    pub abort_warmup: usize,
    /// Violation reaction policy.
    pub policy: ViolationPolicy,
    /// Optical/resist model.
    pub litho: LithoConfig,
    /// Whether to record per-iteration EPE (needed by Fig. 1(b); costs one
    /// EPE measurement per iteration).
    pub record_epe_trajectory: bool,
    /// Numeric-health guard policy (DESIGN.md §11). Enabled by default;
    /// with no rollback firing the trajectory is bit-identical to the
    /// unguarded engine (the step-scale multiplier starts at exactly 1.0).
    pub guard: GuardPolicy,
    /// Per-run iteration/wall-clock budget. Unlimited by default; when it
    /// exhausts, the run stops early and the outcome is marked
    /// [`DegradeReason::BudgetExhausted`] instead of stalling callers.
    pub budget: Budget,
}

impl Default for IltConfig {
    fn default() -> Self {
        IltConfig {
            theta_m: 8.0,
            step_size: 0.5,
            mrc_expand_nm: 28,
            max_iterations: 29,
            check_interval: 3,
            abort_warmup: 9,
            policy: ViolationPolicy::Run,
            litho: LithoConfig::default(),
            record_epe_trajectory: false,
            guard: GuardPolicy::default(),
            budget: Budget::UNLIMITED,
        }
    }
}

/// Statistics of one ILT iteration (`Fig. 1(b)` plots `epe_violations`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStats {
    /// 0-based iteration index.
    pub iteration: usize,
    /// L2 error before the update of this iteration.
    pub l2: f64,
    /// EPE violation count (only populated when
    /// [`IltConfig::record_epe_trajectory`] is set; otherwise `None`).
    pub epe_violations: Option<usize>,
}

/// Result of one ILT run over `K` masks.
#[derive(Debug, Clone)]
pub struct IltOutcome<const K: usize = 2> {
    /// Final binarized masks (mask 0 … mask `K − 1`), at the litho raster
    /// scale.
    pub masks: [Grid; K],
    /// Final printed image from the binarized masks.
    pub printed: Grid,
    /// EPE report of the final print against the layout.
    pub epe: EpeReport,
    /// Final L2 error (Definition 2), binarized-mask print vs target.
    pub l2: f64,
    /// Print violations of the final print.
    pub violations: ViolationReport,
    /// Per-iteration stats.
    pub trajectory: Vec<IterationStats>,
    /// The iteration at which an abort-policy check fired, if any.
    pub aborted_at: Option<usize>,
    /// Iterations actually executed.
    pub iterations_run: usize,
    /// Guard verdict: `Clean`, `RecoveredAfterRollback`, or
    /// `Degraded { reason }`. Degraded outcomes carry the best finite
    /// iterate found, but their score must be replaced by
    /// [`ldmo_guard::penalty_score`].
    pub health: OutcomeHealth,
    /// How many divergence rollbacks fired during the run.
    pub rollbacks: u32,
}

impl<const K: usize> IltOutcome<K> {
    /// The paper's headline metric: the number of EPE violations.
    pub fn epe_violations(&self) -> usize {
        self.epe.violations()
    }

    /// Whether the run finished without a violation abort, the final
    /// print is violation-free, and no guard degraded the outcome.
    pub fn is_clean(&self) -> bool {
        self.aborted_at.is_none() && self.violations.is_clean() && self.health.is_usable()
    }
}

/// Recyclable per-worker session buffers: the litho workspace, forward
/// artifacts and gradient fields — exactly the DESIGN.md §6 scratch a
/// session allocates at construction. Labeling and ranking loops hand one
/// `Option<IltScratch>` per pool worker to
/// [`IltContext::optimize_reusing`] / [`IltContext::evaluate_unoptimized_reusing`],
/// which take the buffers when the grid shape matches and return them
/// after the run, so the big buffers are allocated once per worker (at
/// region start) instead of once per sample. The per-sample inputs —
/// target/corridor rasters, parameter fields, and the kernel-bank handle —
/// are still built per session; only the overwritten-every-iteration
/// scratch is recycled, which is what keeps reuse bit-exact.
#[derive(Debug, Clone)]
pub struct IltScratch<const K: usize = 2> {
    ws: LithoWorkspace,
    fwd: PairForward,
    grads: [Grid; K],
}

impl<const K: usize> IltScratch<K> {
    /// Whether these buffers fit a `width × height` session under a bank
    /// of `num_kernels` kernels.
    fn matches(&self, width: usize, height: usize, num_kernels: usize) -> bool {
        self.ws.shape() == (width, height)
            && self.fwd.printed.shape() == (width, height)
            && self.fwd.aerials[0].fields.len() == num_kernels
    }
}

/// Shared, immutable per-configuration state of the ILT engine: the config
/// plus the kernel bank expanded once for its optical model.
///
/// Building a [`KernelBank`] samples every separable kernel profile;
/// constructing it once per [`IltConfig`] and spawning sessions from the
/// context keeps that cost out of per-candidate loops (the ranking and
/// baseline flows evaluate dozens of decompositions under one config).
/// The bank lives behind an [`Arc`], so every session spawned from the
/// context shares the one expansion — per-candidate loops no longer deep-
/// copy the profile buffers (the `litho.kernel_expansions` counter stays
/// O(1) in the candidate count; `tests/kernel_reload.rs` pins this).
#[derive(Debug, Clone)]
pub struct IltContext {
    cfg: IltConfig,
    bank: Arc<KernelBank>,
}

impl IltContext {
    /// Expands the kernel bank for `cfg` once.
    pub fn new(cfg: &IltConfig) -> Self {
        IltContext {
            cfg: cfg.clone(),
            bank: Arc::new(KernelBank::paper_bank(&cfg.litho)),
        }
    }

    /// The configuration this context was built for.
    pub fn cfg(&self) -> &IltConfig {
        &self.cfg
    }

    /// The pre-expanded kernel bank.
    pub fn bank(&self) -> &KernelBank {
        &self.bank
    }

    /// Derives a context for a config variant (e.g. a different violation
    /// policy), sharing this context's kernel bank.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.litho` differs — the bank is not re-expanded here.
    pub fn with_config(&self, cfg: &IltConfig) -> IltContext {
        assert_eq!(
            cfg.litho, self.cfg.litho,
            "with_config cannot change the optical model"
        );
        IltContext {
            cfg: cfg.clone(),
            bank: self.bank.clone(),
        }
    }

    /// Prepares a resumable session for `layout` under `assignment`,
    /// reusing this context's kernel bank.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != layout.len()` or contains mask
    /// indices other than 0/1.
    pub fn session(&self, layout: &Layout, assignment: &[u8]) -> IltSession {
        IltSession::from_parts(layout, assignment, &self.cfg, self.bank.clone(), None)
    }

    /// Runs the full optimization loop (see [`optimize`]).
    pub fn optimize(&self, layout: &Layout, assignment: &[u8]) -> IltOutcome {
        self.session(layout, assignment).run()
    }

    /// [`IltContext::optimize`] with buffer recycling: the session takes
    /// its workspace/forward/gradient buffers from `scratch` when the grid
    /// shape matches (allocating them only otherwise) and returns them to
    /// `scratch` after the run. Bit-identical to [`IltContext::optimize`]
    /// — the recycled buffers are fully overwritten before first read
    /// (DESIGN.md §6).
    pub fn optimize_reusing(
        &self,
        layout: &Layout,
        assignment: &[u8],
        scratch: &mut Option<IltScratch>,
    ) -> IltOutcome {
        let session = IltSession::from_parts(
            layout,
            assignment,
            &self.cfg,
            self.bank.clone(),
            scratch.take(),
        );
        run_session_recycling(session, Some(scratch))
    }

    /// Forward-only evaluation of a decomposition (see
    /// [`evaluate_unoptimized`]).
    pub fn evaluate_unoptimized(&self, layout: &Layout, assignment: &[u8]) -> IltOutcome {
        self.evaluate_unoptimized_reusing(layout, assignment, &mut None)
    }

    /// [`IltContext::evaluate_unoptimized`] with buffer recycling, for
    /// per-worker candidate-ranking loops (same contract as
    /// [`IltContext::optimize_reusing`]).
    pub fn evaluate_unoptimized_reusing(
        &self,
        layout: &Layout,
        assignment: &[u8],
        scratch: &mut Option<IltScratch>,
    ) -> IltOutcome {
        let mut span = ldmo_obs::span("ilt.evaluate");
        let session = IltSession::from_parts(
            layout,
            assignment,
            &self.cfg,
            self.bank.clone(),
            scratch.take(),
        );
        let outcome = session.snapshot(Vec::new(), None);
        *scratch = Some(session.into_scratch());
        span.set("epe", outcome.epe_violations() as f64);
        outcome
    }
}

/// A resumable ILT optimization of one (layout, decomposition) pair over
/// `K` masks.
///
/// All per-iteration buffers (forward artifacts, gradients, convolution
/// scratch) are allocated here at construction; [`IltSession::step_one`]
/// performs no heap allocation.
pub struct IltSession<const K: usize = 2> {
    patterns: Vec<ldmo_geom::Rect>,
    cfg: IltConfig,
    bank: Arc<KernelBank>,
    target: Grid,
    corridors: [Grid; K],
    p: [Grid; K],
    ws: LithoWorkspace,
    fwd: PairForward,
    grads: [Grid; K],
    iterations_done: usize,
    last_l2: f64,
    /// Best-L2 iterate seen so far (preallocated at construction; rollback
    /// restores from it without allocating).
    best_p: [Grid; K],
    best_l2: f64,
    /// Multiplier on `cfg.step_size`; starts at exactly 1.0 (bit-identity
    /// on healthy runs) and halves on every divergence rollback.
    step_scale: f32,
    rollbacks: u32,
    degraded: Option<DegradeReason>,
}

impl IltSession {
    /// Prepares a double-patterning session for `layout` under
    /// `assignment` ([`IltSession::prepare`] with `K = 2`).
    ///
    /// Expands a fresh kernel bank; prefer [`IltContext::session`] when
    /// running several sessions under one configuration.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != layout.len()` or contains mask
    /// indices other than 0/1.
    pub fn new(layout: &Layout, assignment: &[u8], cfg: &IltConfig) -> Self {
        IltSession::prepare(layout, assignment, cfg)
    }
}

impl<const K: usize> IltSession<K> {
    /// Prepares a `K`-mask session for `layout` under `assignment`
    /// (pattern `i` → mask `assignment[i]`), expanding a fresh kernel
    /// bank. `K = 3` is triple patterning, `K = 1` a single exposure.
    ///
    /// # Panics
    ///
    /// Panics if `K == 0`, `assignment.len() != layout.len()`, or an
    /// assignment entry is `K` or more.
    pub fn prepare(layout: &Layout, assignment: &[u8], cfg: &IltConfig) -> Self {
        let bank = Arc::new(KernelBank::paper_bank(&cfg.litho));
        IltSession::from_parts(layout, assignment, cfg, bank, None)
    }

    fn from_parts(
        layout: &Layout,
        assignment: &[u8],
        cfg: &IltConfig,
        bank: Arc<KernelBank>,
        recycled: Option<IltScratch<K>>,
    ) -> Self {
        if ldmo_obs::enabled() {
            ldmo_obs::counter("ilt.sessions").incr();
        }
        assert!(K > 0, "need at least one mask");
        assert_eq!(
            assignment.len(),
            layout.len(),
            "assignment must cover every pattern"
        );
        assert!(
            assignment.iter().all(|&m| usize::from(m) < K),
            "assignment references a mask beyond the session's mask count"
        );
        let scale = cfg.litho.nm_per_px;
        let target = layout.rasterize_target(scale);
        let drawn: [Grid; K] = std::array::from_fn(|m| {
            layout
                .rasterize_mask(assignment, m as u8, scale)
                .expect("assignment length checked")
        });
        let corridors = std::array::from_fn(|m| {
            layout
                .rasterize_mask_expanded(assignment, m as u8, scale, cfg.mrc_expand_nm)
                .expect("assignment length checked")
        });
        // Eq. 1 initialization: P = ±p0 puts M near the drawn mask while
        // keeping sigmoid'(θm P) large enough for gradient flow.
        let p0 = 0.25f32;
        let p = drawn
            .each_ref()
            .map(|d| d.map(|v| if v > 0.5 { p0 } else { -p0 }));
        let (w, h) = target.shape();
        let nk = bank.kernels().len();
        let IltScratch { ws, fwd, grads } = match recycled {
            Some(scratch) if scratch.matches(w, h, nk) => scratch,
            _ => IltScratch {
                ws: LithoWorkspace::new(w, h),
                fwd: PairForward::zeros(w, h, K, nk),
                grads: std::array::from_fn(|_| Grid::zeros(w, h)),
            },
        };
        let best_p = p.clone();
        IltSession {
            patterns: layout.patterns().to_vec(),
            cfg: cfg.clone(),
            bank,
            target,
            corridors,
            p,
            ws,
            fwd,
            grads,
            iterations_done: 0,
            last_l2: f64::NAN,
            best_p,
            best_l2: f64::INFINITY,
            step_scale: 1.0,
            rollbacks: 0,
            degraded: None,
        }
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations_done
    }

    /// L2 error observed at the start of the most recent iteration
    /// (`NaN` before the first [`IltSession::step_one`]).
    pub fn last_l2(&self) -> f64 {
        self.last_l2
    }

    /// Current guard verdict of this session (what the outcome's
    /// [`IltOutcome::health`] will be if the run stopped now).
    pub fn health(&self) -> OutcomeHealth {
        match self.degraded {
            Some(reason) => OutcomeHealth::Degraded { reason },
            None if self.rollbacks > 0 => OutcomeHealth::RecoveredAfterRollback,
            None => OutcomeHealth::Clean,
        }
    }

    /// Latches the first degradation reason (later reasons do not
    /// overwrite it — the first failure is the diagnosis).
    fn mark_degraded(&mut self, reason: DegradeReason) {
        if self.degraded.is_none() {
            self.degraded = Some(reason);
            ldmo_obs::incr("guard.degraded");
            if matches!(reason, DegradeReason::DivergenceLimit) {
                // rollback budget exhausted: capture the flight ring while
                // the divergent tail is still in it
                let _ = ldmo_guard::ops::dump_flight("divergence-limit");
            }
        }
    }

    /// Divergence recovery: restore the best iterate, halve the step, and
    /// account the skipped update as one iteration. No allocation — the
    /// restore is a copy into the preallocated parameter grids.
    fn rollback(&mut self, step_start: Option<std::time::Instant>, l2: f64) -> f64 {
        for (p, best) in self.p.iter_mut().zip(&self.best_p) {
            p.copy_from(best);
        }
        self.step_scale *= 0.5;
        self.rollbacks += 1;
        ldmo_obs::incr("guard.rollback");
        if self.rollbacks > self.cfg.guard.max_rollbacks {
            self.mark_degraded(DegradeReason::DivergenceLimit);
        }
        self.iterations_done += 1;
        if l2.is_finite() {
            self.last_l2 = l2;
        }
        if let Some(start) = step_start {
            ldmo_obs::convergence((self.iterations_done - 1) as u32, l2, f64::NAN, -1);
            step_histogram().record_duration(start.elapsed());
        }
        l2
    }

    /// Runs one gradient iteration; returns the pre-update L2 error.
    ///
    /// Allocation-free — even with the `ldmo-obs` collector enabled: the
    /// forward pass, gradients and scratch live in buffers owned by the
    /// session, and the per-iteration convergence record (L2, step norm)
    /// lands in the collector's preallocated buffer. With the collector
    /// disabled the telemetry cost is one relaxed atomic load.
    pub fn step_one(&mut self) -> f64 {
        let step_start = ldmo_obs::enabled().then(std::time::Instant::now);
        forward_multi_into(
            &self.p,
            &self.target,
            self.cfg.theta_m,
            &self.bank,
            &self.cfg.litho,
            &mut self.ws,
            &mut self.fwd,
        );
        let l2 = self.fwd.l2;
        let guard = self.cfg.guard;
        if guard.enabled {
            // Pre-update health: a non-finite objective, non-finite samples
            // in the combined print, or an L2 blow-up past the divergence
            // tolerance all mean the last update overshot — roll back.
            let healthy = l2.is_finite()
                && l2 <= self.best_l2 * (1.0 + guard.divergence_tolerance)
                && sampled_finite(self.fwd.printed.as_slice(), guard.scan_stride);
            if !healthy {
                return self.rollback(step_start, l2);
            }
            if l2 < self.best_l2 {
                for (best, p) in self.best_p.iter_mut().zip(&self.p) {
                    best.copy_from(p);
                }
                self.best_l2 = l2;
            }
        }
        l2_gradient_multi_into(
            &self.fwd,
            &self.target,
            self.cfg.theta_m,
            &self.bank,
            &self.cfg.litho,
            &mut self.ws,
            &mut self.grads,
        );
        if fault::active() && fault::nan_grad_at(self.iterations_done) {
            // Poison a stride-aligned slot so the sampled scan (offset 0)
            // deterministically sees the injection.
            self.grads[0].as_mut_slice()[0] = f32::NAN;
        }
        if guard.enabled
            && !self
                .grads
                .iter()
                .all(|g| sampled_finite(g.as_slice(), guard.scan_stride))
        {
            return self.rollback(step_start, l2);
        }
        let step = self.cfg.step_size * self.step_scale;
        let step_norm = match step_start {
            Some(_) => update_norm(&self.grads, step),
            None => f64::NAN,
        };
        for ((p, g), corridor) in self.p.iter_mut().zip(&self.grads).zip(&self.corridors) {
            descend(p, g, step);
            clamp_to_corridor(p, corridor);
        }
        self.iterations_done += 1;
        self.last_l2 = l2;
        if let Some(start) = step_start {
            ldmo_obs::convergence(
                (self.iterations_done - 1) as u32,
                self.fwd.l2,
                step_norm,
                -1,
            );
            step_histogram().record_duration(start.elapsed());
        }
        self.fwd.l2
    }

    /// Runs `n` further iterations (no violation checks).
    pub fn step(&mut self, n: usize) {
        for _ in 0..n {
            let _ = self.step_one();
        }
    }

    /// The combined print `T = min(Σ_i T_i, 1)` (Eq. 3) of the current
    /// *binarized* masks — what manufacturing would produce right now.
    pub fn current_print(&self) -> Grid {
        combine_prints(&self.prints(&binarize(&self.p)))
    }

    /// Per-mask prints `T_i` of binarized masks.
    fn prints(&self, masks: &[Grid; K]) -> [Grid; K] {
        masks
            .each_ref()
            .map(|m| simulate_print(m, &self.bank, &self.cfg.litho))
    }

    /// EPE report of the current print.
    pub fn current_epe(&self) -> EpeReport {
        measure_epe(&self.current_print(), &self.patterns, &self.cfg.litho)
    }

    /// Full evaluation of the current state (does not consume the session).
    pub fn snapshot(
        &self,
        trajectory: Vec<IterationStats>,
        aborted_at: Option<usize>,
    ) -> IltOutcome<K> {
        // On guarded runs where a rollback fired, fall back to the best
        // evaluated iterate unless the current one is provably no worse —
        // this is what makes the outcome "the best finite iterate". Clean
        // runs always use the current parameters (bit-identity).
        let intervened = self.cfg.guard.enabled && (self.rollbacks > 0 || self.degraded.is_some());
        let current_ok = self.last_l2.is_finite() && self.last_l2 <= self.best_l2;
        let src = if intervened && self.best_l2.is_finite() && !current_ok {
            &self.best_p
        } else {
            &self.p
        };
        let masks = binarize(src);
        // the per-mask prints stay alive until the outcome is built: freeing
        // them before the EPE and violation passes changes the allocator's
        // heap layout and measurably raises peak RSS
        let prints = self.prints(&masks);
        let printed = combine_prints(&prints);
        let epe = measure_epe(&printed, &self.patterns, &self.cfg.litho);
        let l2 = printed.l2_dist_sq(&self.target).expect("shapes match");
        let violations = detect_violations(
            &printed,
            &self.patterns,
            self.cfg.litho.print_level,
            self.cfg.litho.nm_per_px,
        );
        IltOutcome {
            masks,
            printed,
            epe,
            l2,
            violations,
            trajectory,
            aborted_at,
            iterations_run: self.iterations_done,
            health: self.health(),
            rollbacks: self.rollbacks,
        }
    }

    /// Finishes the session into an outcome with an empty trajectory.
    pub fn into_outcome(self) -> IltOutcome<K> {
        self.snapshot(Vec::new(), None)
    }

    /// Drives the session through the full optimization loop with
    /// violation checks and budget, as configured by its [`IltConfig`].
    pub fn run(self) -> IltOutcome<K> {
        run_session_recycling(self, None)
    }

    /// Recovers the recyclable buffers for the next session of the same
    /// shape (see [`IltScratch`]).
    fn into_scratch(self) -> IltScratch<K> {
        IltScratch {
            ws: self.ws,
            fwd: self.fwd,
            grads: self.grads,
        }
    }
}

/// Runs double-patterning ILT on `layout` under the decomposition
/// `assignment` (pattern `i` → mask `assignment[i]`). Other mask counts
/// run through [`IltSession::prepare`] and [`IltSession::run`].
///
/// # Panics
///
/// Panics if `assignment.len() != layout.len()` or contains values other
/// than 0/1.
pub fn optimize(layout: &Layout, assignment: &[u8], cfg: &IltConfig) -> IltOutcome {
    IltSession::new(layout, assignment, cfg).run()
}

/// [`IltSession::run`], optionally returning the session's recyclable
/// buffers through `recycle` for the next same-shape session.
fn run_session_recycling<const K: usize>(
    mut session: IltSession<K>,
    recycle: Option<&mut Option<IltScratch<K>>>,
) -> IltOutcome<K> {
    let mut span = ldmo_obs::span("ilt.run");
    let cfg = session.cfg.clone();
    let mut trajectory = Vec::with_capacity(cfg.max_iterations);
    let mut aborted_at = None;
    let mut last_check_epe: Option<usize> = None;
    let clock = cfg.budget.start();
    for iter in 0..cfg.max_iterations {
        if !cfg.budget.is_unlimited() && clock.exhausted(session.iterations_done) {
            session.mark_degraded(DegradeReason::BudgetExhausted);
            ldmo_obs::incr("guard.budget_exhausted");
            break;
        }
        let l2 = session.step_one();
        let epe_violations = cfg
            .record_epe_trajectory
            .then(|| session.current_epe().violations());
        // step_one already recorded (iter, l2, step_norm); when an EPE count
        // exists for this iteration, a second row carries it (epe >= 0)
        if let Some(v) = epe_violations.filter(|_| ldmo_obs::enabled()) {
            ldmo_obs::convergence(iter as u32, l2, f64::NAN, v as i64);
        }
        trajectory.push(IterationStats {
            iteration: iter,
            l2,
            epe_violations,
        });

        if cfg.policy == ViolationPolicy::AbortOnViolation
            && iter + 1 >= cfg.abort_warmup
            && (iter + 1) % cfg.check_interval.max(1) == 0
        {
            if ldmo_obs::enabled() {
                ldmo_obs::counter("ilt.violation_checks").incr();
            }
            let printed = session.current_print();
            let report = detect_violations(
                &printed,
                &session.patterns,
                cfg.litho.print_level,
                cfg.litho.nm_per_px,
            );
            let epe = measure_epe(&printed, &session.patterns, &cfg.litho);
            let saturation = 2.0 * cfg.litho.epe_threshold_nm - 1e-6;
            let saturated = epe.sites.iter().any(|s| s.epe_nm.abs() >= saturation);
            let v = epe.violations();
            let stagnant = v > 0 && last_check_epe.is_some_and(|prev| v >= prev);
            last_check_epe = Some(v);
            if ldmo_obs::enabled() && epe_violations.is_none() {
                ldmo_obs::convergence(iter as u32, l2, f64::NAN, v as i64);
            }
            if report.count() > 0 || saturated || stagnant {
                if ldmo_obs::enabled() {
                    ldmo_obs::counter("ilt.aborts").incr();
                }
                aborted_at = Some(iter);
                break;
            }
        }
    }
    let outcome = session.snapshot(trajectory, aborted_at);
    if let Some(slot) = recycle {
        *slot = Some(session.into_scratch());
    }
    span.set("iterations", outcome.iterations_run as f64);
    span.set(
        "aborted",
        if outcome.aborted_at.is_some() {
            1.0
        } else {
            0.0
        },
    );
    span.set("l2", outcome.l2);
    span.set("epe", outcome.epe_violations() as f64);
    span.set("rollbacks", f64::from(outcome.rollbacks));
    outcome
}

/// Telemetry: wall-time histogram of [`IltSession::step_one`], µs.
fn step_histogram() -> ldmo_obs::Histogram {
    static HIST: std::sync::OnceLock<ldmo_obs::Histogram> = std::sync::OnceLock::new();
    *HIST.get_or_init(|| ldmo_obs::histogram("ilt.step_us"))
}

/// L2 norm of the update [`descend`] is about to apply: each mask's
/// gradient is scaled by `step / max|g|`, so the applied step has norm
/// `step · ‖g‖₂ / max|g|` per mask, combined in quadrature. Only computed
/// when the collector is enabled — it costs one extra pass over the
/// gradients.
fn update_norm(grads: &[Grid], step: f32) -> f64 {
    let mut total = 0.0f64;
    for g in grads {
        let mut max_abs = 0.0f32;
        let mut sum_sq = 0.0f64;
        for &v in g.as_slice() {
            max_abs = max_abs.max(v.abs());
            sum_sq += f64::from(v) * f64::from(v);
        }
        if max_abs > f32::EPSILON {
            let scale = f64::from(step) / f64::from(max_abs);
            total += scale * scale * sum_sq;
        }
    }
    total.sqrt()
}

/// Max-normalized gradient step: the most-active parameter moves by
/// exactly `step`.
fn descend(p: &mut Grid, g: &Grid, step: f32) {
    let max_abs = g.as_slice().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
    if max_abs <= f32::EPSILON {
        return;
    }
    let scale = step / max_abs;
    let ps = p.as_mut_slice();
    let gs = g.as_slice();
    for (v, &d) in ps.iter_mut().zip(gs) {
        *v -= scale * d;
    }
}

/// Enforces the MRC corridor: parameters outside it are pinned shut.
fn clamp_to_corridor(p: &mut Grid, corridor: &Grid) {
    let ps = p.as_mut_slice();
    let cs = corridor.as_slice();
    for (v, &c) in ps.iter_mut().zip(cs) {
        if c < 0.5 {
            *v = -1.0;
        }
    }
}

/// The manufactured masks of parameter fields: open where `P > 0`.
fn binarize<const K: usize>(p: &[Grid; K]) -> [Grid; K] {
    p.each_ref()
        .map(|p| p.map(|v| if v > 0.0 { 1.0 } else { 0.0 }))
}

/// A convenience forward-only evaluation of a decomposition *without*
/// optimization: rasterize the drawn masks, print, and measure. Useful as
/// the "iteration 0" point of trajectories and as a cheap lower bound.
pub fn evaluate_unoptimized(layout: &Layout, assignment: &[u8], cfg: &IltConfig) -> IltOutcome {
    let session = IltSession::new(layout, assignment, cfg);
    session.into_outcome()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_geom::Rect;

    fn two_contact_layout(gap: i32) -> Layout {
        let size = 64;
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 192, size),
                Rect::square(120 + size + gap, 192, size),
            ],
        )
    }

    /// 2×2 contact grid at the given gap: the dense 2-D structure where a
    /// same-mask decomposition measurably fails under our optics.
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

    /// Three contacts in a mutual-conflict triangle, one per mask: the
    /// triple-patterning case the generic session must guard like a pair.
    fn triangle_layout() -> Layout {
        Layout::new(
            Rect::new(0, 0, 448, 448),
            vec![
                Rect::square(120, 120, 64),
                Rect::square(248, 120, 64),
                Rect::square(184, 230, 64),
            ],
        )
    }

    fn fast_cfg() -> IltConfig {
        IltConfig::default()
    }

    #[test]
    fn isolated_contacts_converge_to_clean_print() {
        // two far-apart contacts split across masks: ILT must reach zero
        // EPE violations and a clean print within the 29-iteration budget
        let layout = two_contact_layout(160);
        let out = optimize(&layout, &[0, 1], &fast_cfg());
        assert!(
            out.violations.is_clean(),
            "violations: {:?}",
            out.violations
        );
        assert_eq!(
            out.epe_violations(),
            0,
            "EPE violations remain: max |EPE| = {:.1}nm",
            out.epe.max_abs_nm()
        );
    }

    #[test]
    fn optimization_reduces_l2() {
        let layout = two_contact_layout(160);
        let out = optimize(&layout, &[0, 1], &fast_cfg());
        let first = out.trajectory.first().expect("trajectory").l2;
        let last = out.trajectory.last().expect("trajectory").l2;
        assert!(last < first * 0.8, "L2 did not improve: {first} -> {last}");
    }

    #[test]
    fn bad_decomposition_is_worse_than_good() {
        // a dense 2×2 SP cluster (60 nm gaps): the all-same-mask assignment
        // must end up clearly worse than the checkerboard
        let layout = quad_layout(60);
        let good = optimize(&layout, &[0, 1, 1, 0], &fast_cfg());
        let bad = optimize(&layout, &[0, 0, 0, 0], &fast_cfg());
        let good_score = good.epe_violations() + 100 * good.violations.count();
        let bad_score = bad.epe_violations() + 100 * bad.violations.count();
        assert!(
            bad_score > good_score,
            "bad {bad_score} vs good {good_score} (bad epe {}, viol {:?})",
            bad.epe_violations(),
            bad.violations
        );
    }

    #[test]
    fn abort_policy_fires_on_hopeless_decomposition() {
        // dense 2×2 cluster on one mask cannot print; the mid-run violation
        // check (bridge / missing / saturated EPE / stagnation) must abort
        let layout = quad_layout(56);
        let cfg = IltConfig {
            policy: ViolationPolicy::AbortOnViolation,
            ..fast_cfg()
        };
        let out = optimize(&layout, &[0, 0, 0, 0], &cfg);
        assert!(
            out.aborted_at.is_some(),
            "hopeless decomposition was not aborted (epe = {}, viol = {:?})",
            out.epe_violations(),
            out.violations
        );
    }

    #[test]
    fn abort_policy_spares_good_decomposition() {
        let layout = quad_layout(56);
        let cfg = IltConfig {
            policy: ViolationPolicy::AbortOnViolation,
            ..fast_cfg()
        };
        let out = optimize(&layout, &[0, 1, 1, 0], &cfg);
        assert_eq!(out.aborted_at, None, "good decomposition wrongly aborted");
    }

    #[test]
    fn run_policy_never_aborts() {
        let layout = two_contact_layout(56);
        let out = optimize(&layout, &[0, 0], &fast_cfg());
        assert_eq!(out.aborted_at, None);
        assert_eq!(out.iterations_run, fast_cfg().max_iterations);
    }

    #[test]
    fn trajectory_records_epe_when_requested() {
        let layout = two_contact_layout(160);
        let cfg = IltConfig {
            record_epe_trajectory: true,
            max_iterations: 6,
            ..fast_cfg()
        };
        let out = optimize(&layout, &[0, 1], &cfg);
        assert_eq!(out.trajectory.len(), 6);
        assert!(out.trajectory.iter().all(|s| s.epe_violations.is_some()));
    }

    #[test]
    fn unoptimized_evaluation_is_fast_baseline() {
        let layout = two_contact_layout(160);
        let out = evaluate_unoptimized(&layout, &[0, 1], &fast_cfg());
        assert_eq!(out.iterations_run, 0);
        assert!(out.trajectory.is_empty());
    }

    #[test]
    fn session_stepping_matches_one_shot() {
        // driving a session manually for max_iterations must land on the
        // same result as optimize() with the Run policy
        let layout = two_contact_layout(120);
        let cfg = IltConfig {
            max_iterations: 6,
            ..fast_cfg()
        };
        let one_shot = optimize(&layout, &[0, 1], &cfg);
        let mut session = IltSession::new(&layout, &[0, 1], &cfg);
        session.step(6);
        let stepped = session.into_outcome();
        assert_eq!(stepped.iterations_run, one_shot.iterations_run);
        assert!((stepped.l2 - one_shot.l2).abs() < 1e-9);
        assert_eq!(stepped.epe_violations(), one_shot.epe_violations());
    }

    #[test]
    fn session_l2_decreases_over_steps() {
        let layout = two_contact_layout(120);
        let mut session = IltSession::new(&layout, &[0, 1], &fast_cfg());
        let first = session.step_one();
        session.step(8);
        let later = session.step_one();
        assert!(later < first, "L2 {first} -> {later}");
        assert_eq!(session.iterations(), 10);
        assert!(session.last_l2().is_finite());
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn wrong_assignment_length_panics() {
        let layout = two_contact_layout(160);
        let _ = optimize(&layout, &[0], &fast_cfg());
    }

    /// Serializes tests that install a global fault plan.
    static FAULT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn guards_are_bit_identical_to_disabled_on_healthy_runs() {
        let layout = two_contact_layout(120);
        let cfg_on = IltConfig {
            max_iterations: 8,
            ..fast_cfg()
        };
        let cfg_off = IltConfig {
            guard: GuardPolicy::disabled(),
            ..cfg_on.clone()
        };
        let on = optimize(&layout, &[0, 1], &cfg_on);
        let off = optimize(&layout, &[0, 1], &cfg_off);
        assert_eq!(
            on.l2.to_bits(),
            off.l2.to_bits(),
            "guards changed a healthy run"
        );
        assert_eq!(on.masks[0].as_slice(), off.masks[0].as_slice());
        assert_eq!(on.health, OutcomeHealth::Clean);
        assert_eq!(on.rollbacks, 0);
    }

    #[test]
    fn nan_gradient_injection_rolls_back_and_recovers() {
        let _g = FAULT_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let layout = two_contact_layout(120);
        let cfg = IltConfig {
            max_iterations: 8,
            ..fast_cfg()
        };
        fault::install(ldmo_guard::FaultPlan {
            nan_grad_at: Some(3),
            ..Default::default()
        });
        let pair = optimize(&layout, &[0, 1], &cfg);
        let triple = IltSession::<3>::prepare(&triangle_layout(), &[0, 1, 2], &cfg).run();
        fault::clear();
        for (health, rollbacks, l2, mask0) in [
            (pair.health, pair.rollbacks, pair.l2, &pair.masks[0]),
            (triple.health, triple.rollbacks, triple.l2, &triple.masks[0]),
        ] {
            assert_eq!(health, OutcomeHealth::RecoveredAfterRollback);
            assert_eq!(rollbacks, 1);
            assert!(l2.is_finite(), "recovered outcome must be finite");
            assert!(mask0.as_slice().iter().all(|v| v.is_finite()));
        }
        // and with the plan cleared the run is healthy again
        let clean = optimize(&layout, &[0, 1], &cfg);
        assert_eq!(clean.health, OutcomeHealth::Clean);
    }

    #[test]
    fn iteration_budget_degrades_instead_of_running_forever() {
        let layout = two_contact_layout(120);
        let cfg = IltConfig {
            max_iterations: 29,
            budget: Budget {
                max_iterations: Some(4),
                max_wall: None,
            },
            ..fast_cfg()
        };
        let pair = optimize(&layout, &[0, 1], &cfg);
        let triple = IltSession::<3>::prepare(&triangle_layout(), &[0, 1, 2], &cfg).run();
        for (iterations_run, health, clean, l2) in [
            (pair.iterations_run, pair.health, pair.is_clean(), pair.l2),
            (
                triple.iterations_run,
                triple.health,
                triple.is_clean(),
                triple.l2,
            ),
        ] {
            assert_eq!(iterations_run, 4);
            assert_eq!(
                health,
                OutcomeHealth::Degraded {
                    reason: DegradeReason::BudgetExhausted
                }
            );
            assert!(!clean);
            assert!(l2.is_finite(), "degraded outcome still carries an iterate");
        }
    }

    #[test]
    fn zero_wall_budget_degrades_before_the_first_iteration() {
        let layout = two_contact_layout(160);
        let cfg = IltConfig {
            budget: Budget {
                max_iterations: None,
                max_wall: Some(std::time::Duration::ZERO),
            },
            ..fast_cfg()
        };
        let out = optimize(&layout, &[0, 1], &cfg);
        assert_eq!(out.iterations_run, 0);
        assert!(out.health.is_degraded());
    }

    #[test]
    fn oscillating_candidate_terminates_at_its_deadline_with_a_penalty() {
        // a crafted never-converging run: an absurd step size makes every
        // update overshoot the corridor, so L2 oscillates instead of
        // descending. The budget must cut it off, mark it Degraded, and
        // the penalty for its reason must dwarf any healthy Eq. 9 score.
        let layout = two_contact_layout(120);
        let cfg = IltConfig {
            step_size: 64.0,
            max_iterations: 29,
            budget: Budget {
                max_iterations: Some(6),
                max_wall: None,
            },
            ..fast_cfg()
        };
        let out = optimize(&layout, &[0, 1], &cfg);
        assert!(out.iterations_run <= 6, "deadline did not cut the run");
        assert!(
            out.health.is_degraded(),
            "never-converging run must degrade, got {:?}",
            out.health
        );
        assert!(out.l2.is_finite(), "best iterate must still be usable");
        let OutcomeHealth::Degraded { reason } = out.health else {
            unreachable!("checked degraded above");
        };
        assert!(ldmo_guard::penalty_score(reason) > 1.0e12);
    }
}
