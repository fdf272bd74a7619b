//! Allocation-count regression test: `IltSession::step_one` must not touch
//! the heap once the session is constructed — every per-iteration buffer
//! (forward artifacts, gradients, convolution scratch) is owned by the
//! session.
//!
//! The counting allocator that started life in this file is now the
//! reusable `ldmo_obs::alloc::CountingAlloc`. The test runs with the trace
//! collector enabled, so it doubles as proof that recording telemetry on
//! the hot path allocates nothing either.
//!
//! This test lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`, which must not observe allocations from
//! unrelated concurrently running tests.

use ldmo_ilt::{IltConfig, IltSession};
use ldmo_litho::backend::{self, BackendKind};
use ldmo_obs::alloc::{alloc_event_count, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn step_one_is_allocation_free_after_warmup() {
    use ldmo_geom::Rect;
    use ldmo_layout::Layout;

    let layout = Layout::new(
        Rect::new(0, 0, 448, 448),
        vec![
            Rect::square(120, 120, 64),
            Rect::square(248, 120, 64),
            Rect::square(120, 248, 64),
            Rect::square(248, 248, 64),
        ],
    );
    // 800 px wide: the widest profile's padded row (800 + 2·135 floats)
    // outgrows a 1024-float stack buffer, well inside the 2048 px windows
    // the daemon admits, so the row must come from the session's workspace
    let wide = Layout::new(
        Rect::new(0, 0, 1600, 448),
        vec![
            Rect::square(200, 120, 64),
            Rect::square(600, 248, 64),
            Rect::square(1000, 120, 64),
            Rect::square(1400, 248, 64),
        ],
    );
    // The trace collector must also be allocation-free on the hot path:
    // records go into a preallocated buffer, metric handles are leaked
    // statics. Enabling it here makes the guard cover the instrumented
    // path, not just the disabled fast path.
    ldmo_obs::enable();
    assert!(
        ldmo_obs::alloc::installed(),
        "the counting allocator must have observed the setup allocations"
    );
    // Every backend must keep the hot loop allocation-free — the SIMD
    // passes use the same caller-owned buffers as scalar — and so must
    // every mask count. One loop in one test: the counting allocator is
    // process-global, so parallel per-backend tests would observe each
    // other's setup allocations.
    let prev = backend::backend_kind();
    let cfg = IltConfig::default();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        backend::set_backend(kind);
        assert_step_allocation_free(IltSession::new(&layout, &[0, 1, 1, 0], &cfg), kind);
        assert_step_allocation_free(IltSession::<3>::prepare(&layout, &[0, 1, 2, 0], &cfg), kind);
        assert_step_allocation_free(IltSession::new(&wide, &[0, 1, 0, 1], &cfg), kind);
    }
    backend::set_backend(prev);
    // the self-profiling counters themselves must have seen real traffic
    assert!(ldmo_obs::alloc::peak_bytes() > 0);
    assert!(ldmo_obs::alloc::current_bytes() <= ldmo_obs::alloc::peak_bytes());
}

fn assert_step_allocation_free<const K: usize>(mut session: IltSession<K>, kind: BackendKind) {
    let (width, _) = session.current_print().shape();
    // warmup: the first iterations populate anything touched lazily
    // (including lazy metric registration in ldmo-obs and the SIMD
    // feature-detection cache)
    session.step_one();
    session.step_one();

    let before = alloc_event_count();
    let l2 = session.step_one();
    let allocated = alloc_event_count() - before;
    assert!(l2.is_finite());
    assert_eq!(
        allocated, 0,
        "step_one of a {K}-mask {width} px session under backend '{kind}' performed \
         {allocated} heap allocations; the hot path must reuse session buffers"
    );
}
