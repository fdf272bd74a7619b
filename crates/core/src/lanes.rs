//! Per-mask ILT lanes on an [`ldmo_par`] pool (DESIGN.md §10).
//!
//! `ldmo-ilt` declares the [`LaneRunner`] hook and owns no threads; this
//! module runs its jobs on a [`ThreadPool`] through the allocation-free
//! [`ThreadPool::run_each`] region. The flow and the Table I baselines
//! attach lanes to the contexts they optimize with; callers whose
//! sessions already run inside a pool region (chip tiles, dataset
//! labeling) and the serving daemon keep serial contexts.

use ldmo_ilt::{IltContext, LaneRunner};
use ldmo_par::ThreadPool;
use std::sync::Arc;

/// Runs each ILT step's per-mask jobs on a pool.
#[derive(Debug, Clone)]
pub struct PoolLanes(pub ThreadPool);

impl LaneRunner for PoolLanes {
    fn run(&self, jobs: &mut [&mut (dyn FnMut() + Send)]) {
        self.0.run_each(jobs);
    }
}

/// `ctx` with its sessions' per-mask jobs on `pool` when the pool has a
/// second thread; on a one-thread pool `ctx` stays serial, since lanes
/// there would only add a workspace per mask.
pub fn on_pool(ctx: IltContext, pool: &ThreadPool) -> IltContext {
    if pool.threads() > 1 {
        ctx.with_lanes(Arc::new(PoolLanes(pool.clone())))
    } else {
        ctx
    }
}
