//! Allocation-count regression test for ILT steps on per-mask lanes: with
//! a context whose jobs run on a 2-thread pool, `IltSession::step_one`
//! must touch the heap on no thread. The `ThreadPool::run_each` region
//! keeps its state on the caller's stack, the jobs sit in a stack array,
//! and the lane workspaces are allocated with the session.
//!
//! The sessions are the three of `crates/ilt/tests/alloc_free.rs`, which
//! covers the serial engine. This binary installs the counting
//! `#[global_allocator]`, which sees every thread's allocations, so it
//! holds one test only.

use ldmo_core::lanes::PoolLanes;
use ldmo_geom::Rect;
use ldmo_ilt::{IltConfig, IltContext, IltSession};
use ldmo_layout::Layout;
use ldmo_litho::backend::{self, BackendKind};
use ldmo_obs::alloc::{alloc_event_count, CountingAlloc};
use ldmo_par::ThreadPool;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn lane_steps_are_allocation_free_at_two_threads() {
    let layout = Layout::new(
        Rect::new(0, 0, 448, 448),
        vec![
            Rect::square(120, 120, 64),
            Rect::square(248, 120, 64),
            Rect::square(120, 248, 64),
            Rect::square(248, 248, 64),
        ],
    );
    // 800 px wide: the widest profile's padded row outgrows a stack
    // buffer, so each lane's row must come from its own workspace
    let wide = Layout::new(
        Rect::new(0, 0, 1600, 448),
        vec![
            Rect::square(200, 120, 64),
            Rect::square(600, 248, 64),
            Rect::square(1000, 120, 64),
            Rect::square(1400, 248, 64),
        ],
    );
    // with the collector on, the pool's self-profiling runs too
    ldmo_obs::enable();
    assert!(
        ldmo_obs::alloc::installed(),
        "the counting allocator must have observed the setup allocations"
    );
    let lanes = PoolLanes(ThreadPool::new(2));
    let ctx = IltContext::new(&IltConfig::default()).with_lanes(Arc::new(lanes));
    let prev = backend::backend_kind();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        assert_steps_allocation_free(ctx.prepare::<2>(&layout, &[0, 1, 1, 0]), kind);
        assert_steps_allocation_free(ctx.prepare::<3>(&layout, &[0, 1, 2, 0]), kind);
        assert_steps_allocation_free(ctx.prepare::<2>(&wide, &[0, 1, 0, 1]), kind);
    }
    backend::set_backend(prev);
}

fn assert_steps_allocation_free<const K: usize>(mut session: IltSession<K>, kind: BackendKind) {
    let (width, _) = session.current_print().shape();
    // warmup: lazy metric registration and the SIMD feature cache
    session.step(2);

    let before = alloc_event_count();
    for _ in 0..3 {
        assert!(session.step_one().is_finite());
    }
    let allocated = alloc_event_count() - before;
    assert_eq!(
        allocated, 0,
        "3 lane steps of a {K}-mask {width} px session under backend '{kind}' performed \
         {allocated} heap allocations; the lanes must reuse session buffers"
    );
}
