//! A counting global allocator for allocation-free regression tests.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps four atomics:
//! allocation count, reallocation count, live bytes, and a high-water
//! mark. A test binary installs it and asserts on the counts, as
//! `crates/ilt/tests/alloc_free.rs` does for the ILT hot loop:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: ldmo_obs::alloc::CountingAlloc = ldmo_obs::alloc::CountingAlloc;
//! ```
//!
//! Binaries that do not install it pay nothing ([`installed`] stays
//! false). The instrumentation itself is three relaxed atomic RMWs per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A `#[global_allocator]` wrapper over [`System`] that feeds the
/// process-wide counters read by [`alloc_event_count`], [`current_bytes`]
/// and [`peak_bytes`].
pub struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the bookkeeping never
// allocates (plain statics) and never observes the pointers it counts.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let size = layout.size() as u64;
        let live = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        let live = if new >= old {
            CURRENT_BYTES.fetch_add(new - old, Ordering::Relaxed) + (new - old)
        } else {
            CURRENT_BYTES.fetch_sub(old - new, Ordering::Relaxed) - (old - new)
        };
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Whether a [`CountingAlloc`] is installed as the global allocator in
/// this process (detected on its first allocation).
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Allocations plus reallocations — the quantity the zero-allocation
/// hot-path regression tests assert on.
pub fn alloc_event_count() -> u64 {
    ALLOCS.load(Ordering::SeqCst) + REALLOCS.load(Ordering::SeqCst)
}

/// Live heap bytes right now (as seen by the counting allocator).
pub fn current_bytes() -> u64 {
    CURRENT_BYTES.load(Ordering::SeqCst)
}

/// High-water live-byte mark since process start.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::SeqCst)
}
