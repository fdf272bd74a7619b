//! Per-mask lanes: the hook through which a caller runs the independent
//! per-mask work of an ILT step on threads of its own.
//!
//! Eq. 3 couples the masks only through `T = min(Σ_i T_i, 1)`, so each
//! mask's relaxation, aerial image and resist (its forward job) and its
//! back-projection (its gradient job) depend on no other mask. A session
//! whose [`IltContext`](crate::IltContext) carries a [`LaneRunner`] hands
//! the runner one job per mask, each on a `LithoWorkspace` of its own, and
//! computes the shared terms on the calling thread between the two
//! phases: the combined print, the L2, the guard check and the gated
//! `∂L/∂T`. The check and snapshot prints run one job per mask too. Each
//! job writes only its own mask's buffers, so the outcome is bit-identical
//! whatever order and threads the runner picks. This crate owns no thread
//! pool: `ldmo-core` implements the runner over an `ldmo_par::ThreadPool`.

/// Runs the independent per-mask jobs of an ILT step.
pub trait LaneRunner: Send + Sync {
    /// Runs every job in `jobs` exactly once, in any order and on any
    /// threads, and returns when all have finished. A job's panic must
    /// reach the caller.
    fn run(&self, jobs: &mut [&mut (dyn FnMut() + Send)]);
}

/// Hands one job per mask to `runner` without allocating: the jobs wait
/// in a stack array and go over as trait objects.
pub(crate) fn run_lanes<const K: usize, J: FnMut() + Send>(
    runner: &dyn LaneRunner,
    jobs: impl IntoIterator<Item = J>,
) {
    let mut jobs = jobs.into_iter();
    let mut owned: [J; K] = std::array::from_fn(|_| jobs.next().expect("one job per mask"));
    let mut erased = owned.each_mut().map(|job| job as &mut (dyn FnMut() + Send));
    runner.run(&mut erased);
}
