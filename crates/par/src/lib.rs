#![warn(missing_docs)]
//! # ldmo-par — deterministic fork-join parallelism
//!
//! A dependency-free scoped thread pool (the build environment has no
//! crates.io access, and the vendor policy forbids rayon) built for one
//! job: fan a slice of independent work items across threads **without
//! changing a single bit of the result**.
//!
//! Determinism comes from three rules (DESIGN.md §10):
//!
//! - **Index-keyed output.** [`ThreadPool::par_map`] writes `result[i]`
//!   for item `i`, whichever thread computed it.
//! - **State is scratch only.** The state [`ThreadPool::par_map_init`]
//!   hands `f` must not carry one item's work into another item's result:
//!   which items share a state changes with the thread count.
//! - **Fixed-order reduction.** Any cross-item reduction happens on the
//!   calling thread in item order, replaying the serial fold exactly.
//!
//! Together these make results identical for *any* thread count, not just
//! reproducible at a fixed one.
//!
//! Every fork-join call is one *region* with one protocol: the caller
//! publishes a set of jobs, then it and every helper that wakes in time
//! claim jobs from one atomic counter. Once every job is claimed the
//! caller retracts the region, so a helper that has not woken yet skips
//! it, and waits only for the helpers still inside a job. A map's jobs
//! are its items split into at most one contiguous chunk per thread; each
//! chunk runs its items in order on one `init()` state, so the
//! workspace-reuse discipline of DESIGN.md §6 (e.g. an `IltScratch` per
//! chunk) survives parallelism: chunks allocate at region start, not per
//! item. [`ThreadPool::run_each`] publishes a handful of coarse jobs the
//! caller owns (one ILT step's per-mask passes) and allocates nothing.
//!
//! A pool with `threads == 1`, a single item and any nested call take the
//! exact serial code path — a plain `iter().map()` fold with one scratch
//! state — so `--threads 1` is byte-for-byte the pre-parallel engine.
//!
//! Telemetry: every top-level region adds its item (or job) count to the
//! `par.tasks` counter, and helpers adopt the dispatching thread's
//! innermost span as their parent (via `ldmo_obs::adopt_parent_span`), so
//! spans opened inside parallel regions stay attached to the trace tree
//! instead of floating at the root. With the collector enabled the pool
//! also self-profiles (DESIGN.md §12): each participating thread records
//! its busy time into the `par.worker_busy_us` histogram, helpers record
//! the publish-to-pickup latency into `par.worker_wait_us`, each region
//! records its wall time into `par.region_us`, and the `par.busy_fraction`
//! gauge carries the last region's utilization (summed busy time over
//! `threads × wall`) — the measurement the multi-core scaling analysis
//! reads. All of it is timing only: the computation and its chunking are
//! bit-identical with profiling on or off.

use std::any::Any;
use std::cell::Cell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread;
use std::time::Instant;

/// Locks ignoring poison: the pool's mutexes only guard state that stays
/// valid across a panic (job panics are caught before any lock is
/// touched; the one unwind-while-held is the dispatcher re-raising a
/// job's panic after the region fully completed).
fn lock_pool<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// The first panic payload of a region, re-raised on the dispatcher.
type PanicSlot = Mutex<Option<Box<dyn Any + Send + 'static>>>;

/// One fork-join call, on the dispatching thread's stack: jobs `0..len`,
/// each claimed from `next` by exactly one thread.
struct Region<'a> {
    /// Runs job `i` on whichever thread claimed it.
    run: &'a (dyn Fn(usize) + Sync),
    len: usize,
    /// The next unclaimed job index.
    next: AtomicUsize,
    /// First panic payload from any job (the dispatcher re-raises it).
    panic: PanicSlot,
    /// Innermost span of the dispatching thread, adopted by helpers.
    parent_span: u64,
    /// When the region was published — helpers measure their pickup
    /// latency against it (self-profiling; only read with obs enabled).
    published: Instant,
    /// Summed busy microseconds of the participating threads, feeding
    /// `par.busy_fraction`.
    busy_us: AtomicU64,
}

impl Region<'_> {
    /// Runs job `i`, keeping its panic payload if it is the first.
    fn run_caught(&self, i: usize) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
            lock_pool(&self.panic).get_or_insert(payload);
        }
    }
}

/// A published region, its lifetime erased for broadcast to the helpers.
/// The dispatcher retracts it and waits until no helper is inside it
/// before returning — the pointer never outlives its referent.
#[derive(Clone, Copy)]
struct Job(*const Region<'static>);

// SAFETY: every field of `Region` is `Sync` (a `Sync` closure, atomics, a
// mutex, plain values), so a helper may use it through this pointer; a
// helper takes the pointer and raises `State::active` under one lock, and
// the dispatcher keeps the region alive until `active` is back to 0.
unsafe impl Send for Job {}

/// A caller's slice, shared with a region's threads by its base pointer:
/// each index is claimed by one thread, so no two threads touch one
/// element.
struct Slots<T>(*mut T);

// SAFETY: the one field is the base pointer; element `i` is reached only
// by the thread that claimed `i`, which may mutate or drop it there, so
// `T: Send` suffices and no `&T` is shared between threads.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Element `i`.
    ///
    /// # Safety
    ///
    /// `i` is in bounds of the slice, and only the thread that claimed it
    /// touches element `i` until the region ends.
    unsafe fn at(&self, i: usize) -> *mut T {
        // SAFETY: in bounds, by the caller's contract
        unsafe { self.0.add(i) }
    }
}

struct State {
    /// Region generation counter; helpers pick up one job per new epoch.
    epoch: u64,
    /// The current epoch's region; `None` once the dispatcher retracted
    /// it, so a helper that wakes late skips it.
    job: Option<Job>,
    /// Helpers inside the current epoch's region.
    active: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

struct Inner {
    threads: usize,
    shared: Arc<Shared>,
    /// Serializes regions: one fork-join at a time per pool.
    region: Mutex<()>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut st = lock_pool(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in lock_pool(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

thread_local! {
    /// Set on a helper for its whole life, and on the dispatching thread
    /// while it claims jobs of its own region. Nested `par_map` calls
    /// check it and degrade to the serial path instead of deadlocking on
    /// the region lock.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

fn in_region() -> bool {
    IN_REGION.with(Cell::get)
}

fn worker_loop(shared: Arc<Shared>) {
    IN_REGION.with(|f| f.set(true));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock_pool(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    // a retracted region has no job left for this helper
                    if let Some(job) = st.job {
                        st.active += 1;
                        break job;
                    }
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: this helper raised `active` when it took the job, and the
        // dispatcher keeps the region alive until `active` falls back to 0
        // below.
        claim(unsafe { &*job.0 }, true);
        let mut st = lock_pool(&shared.state);
        st.active -= 1;
        shared.done_cv.notify_all();
    }
}

/// Claims and runs `region`'s jobs until none is left. A helper records
/// its pickup latency and works under the dispatcher's span; a thread
/// that ran a job adds its busy time to the region's.
fn claim(region: &Region<'_>, helper: bool) {
    let started = ldmo_obs::enabled().then(Instant::now);
    if let Some(t0) = started.filter(|_| helper) {
        let wait = t0.duration_since(region.published);
        metric_handles().worker_wait.record(wait.as_micros() as u64);
    }
    let previous = helper.then(|| ldmo_obs::adopt_parent_span(region.parent_span));
    let mut ran = false;
    loop {
        // Relaxed: the counter only hands out indices. The region's data
        // reaches a helper, and its results reach the dispatcher, through
        // the state mutex (the publish, and the `active` decrement).
        let i = region.next.fetch_add(1, Ordering::Relaxed);
        if i >= region.len {
            break;
        }
        ran = true;
        region.run_caught(i);
    }
    if let Some(parent) = previous {
        ldmo_obs::adopt_parent_span(parent);
    }
    if let Some(t0) = started.filter(|_| ran) {
        let busy = t0.elapsed().as_micros() as u64;
        metric_handles().worker_busy.record(busy);
        region.busy_us.fetch_add(busy, Ordering::Relaxed);
    }
}

/// Contiguous static chunk of `0..n` with index `index` of `total`: the
/// first `n % total` chunks get one extra item. A pure function of
/// `(n, index, total)`, so which items share a chunk never depends on
/// timing.
fn chunk_bounds(n: usize, index: usize, total: usize) -> (usize, usize) {
    let base = n / total;
    let rem = n % total;
    let start = index * base + index.min(rem);
    (start, start + base + usize::from(index < rem))
}

/// The pool's self-profiling metrics, registered once: a registry lookup
/// locks a process-wide mutex, which [`ThreadPool::run_each`] keeps off
/// its path.
struct MetricHandles {
    tasks: ldmo_obs::Counter,
    worker_wait: ldmo_obs::Histogram,
    worker_busy: ldmo_obs::Histogram,
    region: ldmo_obs::Histogram,
    busy_fraction: ldmo_obs::Gauge,
}

fn metric_handles() -> &'static MetricHandles {
    static HANDLES: OnceLock<MetricHandles> = OnceLock::new();
    HANDLES.get_or_init(|| MetricHandles {
        tasks: ldmo_obs::counter("par.tasks"),
        worker_wait: ldmo_obs::histogram("par.worker_wait_us"),
        worker_busy: ldmo_obs::histogram("par.worker_busy_us"),
        region: ldmo_obs::histogram("par.region_us"),
        busy_fraction: ldmo_obs::gauge("par.busy_fraction"),
    })
}

/// Adds `n` to `par.tasks` for a top-level region (a nested call's items
/// are already counted by the region it runs in).
fn count_tasks(n: usize) {
    if !in_region() && ldmo_obs::enabled() {
        metric_handles().tasks.add(n as u64);
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A fixed-size fork-join pool. `threads - 1` resident helpers are spawned
/// at construction and parked on a condvar between regions; the calling
/// thread claims jobs of every region it dispatches. Cloning is a cheap
/// handle copy; the helpers shut down when the last handle drops.
pub struct ThreadPool {
    inner: Arc<Inner>,
}

impl Clone for ThreadPool {
    fn clone(&self) -> Self {
        ThreadPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Builds a pool of `threads` total workers (clamped to at least 1).
    /// `threads - 1` OS threads are spawned here — this is the only place
    /// the pool allocates.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ldmo-par-{index}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            inner: Arc::new(Inner {
                threads,
                shared,
                region: Mutex::new(()),
                handles: Mutex::new(handles),
            }),
        }
    }

    /// Total workers, including the calling thread.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Runs `run(i)` once for every `i` in `0..len` and returns the first
    /// panic payload, after every job has run. A one-thread pool, a single
    /// job and a call from inside a region run the jobs in order on the
    /// calling thread. Otherwise the region is published to the helpers,
    /// the caller claims jobs too, and once every job is claimed the
    /// caller retracts the region: a helper that has not picked it up
    /// skips it, and the caller waits only for the helpers inside it.
    fn region(&self, len: usize, run: &(dyn Fn(usize) + Sync)) -> Option<Box<dyn Any + Send>> {
        let region = Region {
            run,
            len,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            parent_span: ldmo_obs::current_span_id(),
            published: Instant::now(),
            busy_us: AtomicU64::new(0),
        };
        if self.inner.threads == 1 || len <= 1 || in_region() {
            (0..len).for_each(|i| region.run_caught(i));
        } else {
            let shared = &self.inner.shared;
            let _serial = lock_pool(&self.inner.region);
            {
                let mut st = lock_pool(&shared.state);
                st.epoch += 1;
                st.job = Some(Job(std::ptr::from_ref(&region).cast()));
                shared.work_cv.notify_all();
            }
            IN_REGION.with(|flag| flag.set(true));
            claim(&region, false);
            IN_REGION.with(|flag| flag.set(false));
            let mut st = lock_pool(&shared.state);
            st.job = None;
            while st.active > 0 {
                st = shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(st);
            if ldmo_obs::enabled() {
                // wall time, and the share of the pool's capacity that was
                // busy (1.0 = fully used; low = imbalance or few items)
                let wall_us = region.published.elapsed().as_micros() as u64;
                let busy = region.busy_us.load(Ordering::Relaxed) as f64;
                let handles = metric_handles();
                handles.region.record(wall_us);
                handles
                    .busy_fraction
                    .set(busy / (wall_us.max(1) as f64 * self.inner.threads as f64));
            }
        }
        region
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Maps `f` over `items`, preserving order: `result[i] == f(&items[i])`
    /// bit-for-bit, for any thread count.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_init(items, || (), move |(), item| f(item))
    }

    /// [`ThreadPool::par_map`] with per-chunk scratch: items are split into
    /// at most one contiguous chunk per thread, `init` runs once per chunk,
    /// and `f` receives that chunk's state for each of its items, in item
    /// order. `f` must use the state as *scratch only* — results must not
    /// depend on which items the state saw before (the chunking, and
    /// therefore the state history, changes with the thread count;
    /// fully-overwritten workspaces in the sense of DESIGN.md §6 satisfy
    /// this by construction).
    pub fn par_map_init<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        self.map_indexed(items, init, |state, _, item| f(state, item))
    }

    /// [`ThreadPool::par_map_init`], with `f` also given each item's index.
    fn map_indexed<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        count_tasks(n);
        let threads = self.inner.threads;
        if threads == 1 || n == 1 || in_region() {
            // the exact serial code path: one scratch state, a plain fold
            // in item order
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(&mut state, i, item))
                .collect();
        }

        let mut out: Vec<MaybeUninit<R>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
        let slots = Slots(out.as_mut_ptr());
        let payload = self.region(n.min(threads), &|chunk| {
            let (start, end) = chunk_bounds(n, chunk, threads);
            // per-chunk scratch: one init, reused across the chunk
            let mut state = init();
            for (i, item) in (start..end).zip(&items[start..end]) {
                let value = f(&mut state, i, item);
                // SAFETY: i < n, and the chunks are disjoint and each is
                // claimed once, so no other thread touches slot i
                unsafe { (*slots.at(i)).write(value) };
            }
        });
        if let Some(payload) = payload {
            // `out` drops as MaybeUninit (no R destructors run), so results
            // written before the panic leak instead of double-dropping
            panic::resume_unwind(payload);
        }
        let mut out = ManuallyDrop::new(out);
        // SAFETY: no chunk panicked, so every slot 0..n was written by
        // exactly one chunk, and `MaybeUninit<R>` has `R`'s layout
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
    }

    /// Runs every job in `jobs` exactly once and returns when all have
    /// finished: the allocation-free region for a few coarse jobs whose
    /// state the caller owns, such as one ILT step's per-mask passes.
    ///
    /// Each job is claimed on its own, so which thread runs it depends on
    /// timing; each job must write only what it captured, which keeps the
    /// results independent of it. A one-thread pool, a single job and a
    /// call from inside a region run the jobs in order on the calling
    /// thread. A panicking job does not stop the others; the first panic
    /// is re-raised once every job has run.
    pub fn run_each<J: FnMut() + Send>(&self, jobs: &mut [J]) {
        let len = jobs.len();
        count_tasks(len);
        let slots = Slots(jobs.as_mut_ptr());
        // SAFETY: the region hands out each index below `len` once, so no
        // other thread touches job i, and `jobs` outlives the region
        if let Some(payload) = self.region(len, &|i| unsafe { (*slots.at(i))() }) {
            panic::resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Panic-catching variants
// ---------------------------------------------------------------------------

/// A worker panic caught by [`ThreadPool::par_map_catching`] /
/// [`ThreadPool::par_map_init_catching`]: the item's slot carries this
/// instead of unwinding the whole fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// Rendered panic message (best-effort downcast of the payload).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

impl ThreadPool {
    /// [`ThreadPool::par_map`], but a panicking item yields
    /// `Err(TaskPanic)` in its slot instead of unwinding the region.
    /// All other items still complete, in order, bit-identically.
    pub fn par_map_catching<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_init_catching(items, || (), move |(), item| f(item))
    }

    /// [`ThreadPool::par_map_init`] with per-item panic isolation, for
    /// fan-outs that must degrade one slot instead of aborting the run
    /// (candidate ranking, dataset labeling). After a caught panic the
    /// chunk's scratch state is rebuilt with `init` — a panic can leave
    /// it half-written, and reusing it would let one bad item corrupt its
    /// chunk's remaining results.
    pub fn par_map_init_catching<T, S, R, I, F>(
        &self,
        items: &[T],
        init: I,
        f: F,
    ) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        self.map_indexed(
            items,
            || None,
            |state, index, item| {
                let scratch = state.get_or_insert_with(&init);
                match panic::catch_unwind(AssertUnwindSafe(|| f(scratch, item))) {
                    Ok(value) => Ok(value),
                    Err(payload) => {
                        *state = None;
                        ldmo_obs::incr("par.task_panics");
                        Err(TaskPanic {
                            index,
                            message: panic_message(payload.as_ref()),
                        })
                    }
                }
            },
        )
    }
}

// ---------------------------------------------------------------------------
// The process-global pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<RwLock<ThreadPool>> = OnceLock::new();

fn global_cell() -> &'static RwLock<ThreadPool> {
    GLOBAL.get_or_init(|| RwLock::new(ThreadPool::new(default_threads())))
}

/// The thread count the global pool starts with: `LDMO_THREADS` when set
/// to a positive integer, otherwise `std::thread::available_parallelism()`.
pub fn default_threads() -> usize {
    match std::env::var("LDMO_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// A handle to the process-global pool (created on first use).
pub fn global() -> ThreadPool {
    global_cell().read().expect("global pool lock").clone()
}

/// Thread count of the global pool.
pub fn global_threads() -> usize {
    global_cell().read().expect("global pool lock").threads()
}

/// Replaces the global pool with one of `threads` workers (clamped to at
/// least 1). Existing [`global`] handles keep their old pool; its workers
/// shut down when the last handle drops. Regions in flight on the old pool
/// finish undisturbed — swapping is safe at any time, which is what lets
/// one test process compare `--threads 1` against `--threads 4` runs.
pub fn set_global_threads(threads: usize) {
    *global_cell().write().expect("global pool lock") = ThreadPool::new(threads);
    ldmo_obs::set_run_info("threads", global_threads().to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = ThreadPool::new(4);
        let out: Vec<u64> = pool.par_map(&[], |x: &u64| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_uses_serial_path() {
        let pool = ThreadPool::new(4);
        let out = pool.par_map(&[41u64], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.par_map(&items, |&i| i * i);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * i));
        }
    }

    #[test]
    fn chunking_is_invariant_across_thread_counts() {
        // a floating-point computation whose bits would drift if the
        // reduction order changed; per-item outputs must be identical
        // regardless of pool size
        let items: Vec<f32> = (0..257).map(|i| (i as f32).sin()).collect();
        let reference: Vec<f32> = items.iter().map(|&v| (v * 1.7 + 0.1).exp()).collect();
        for threads in [1, 2, 3, 4, 5, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.par_map(&items, |&v| (v * 1.7 + 0.1).exp());
            let same = out
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "bit drift at {threads} threads");
        }
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for n in [0usize, 1, 2, 7, 8, 9, 100] {
            for total in 1..=9 {
                let mut covered = vec![0u32; n];
                let mut last_end = 0;
                for w in 0..total {
                    let (start, end) = chunk_bounds(n, w, total);
                    assert_eq!(start, last_end, "chunks must be contiguous");
                    last_end = end;
                    for slot in &mut covered[start..end] {
                        *slot += 1;
                    }
                }
                assert_eq!(last_end, n);
                assert!(covered.iter().all(|&c| c == 1));
            }
        }
    }

    #[test]
    fn init_runs_once_per_participating_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let pool = ThreadPool::new(4);
        let out = pool.par_map_init(
            &items,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, &i| {
                scratch.clear();
                scratch.push(i);
                scratch[0] * 2
            },
        );
        assert_eq!(out, items.iter().map(|&i| i * 2).collect::<Vec<_>>());
        assert_eq!(inits.load(Ordering::SeqCst), 4, "one init per worker");
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&i| {
                assert!(i != 40, "injected failure");
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the dispatcher");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("injected failure"), "payload: {message}");
        // the pool must stay usable after a panicked region
        let out = pool.par_map(&items, |&i| i + 1);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let pool = ThreadPool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = pool.par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..4).collect();
            // uses the same (global-style) pool from inside a region
            pool.par_map(&inner, |&j| i * 10 + j).iter().sum::<usize>()
        });
        assert_eq!(out[2], 20 + 21 + 22 + 23);
    }

    #[test]
    fn catching_map_isolates_the_panicking_slot() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let out = pool.par_map_catching(&items, |&i| {
                assert!(i != 40, "injected failure");
                i * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, slot) in out.iter().enumerate() {
                if i == 40 {
                    let err = slot.as_ref().expect_err("slot 40 must carry the panic");
                    assert_eq!(err.index, 40);
                    assert!(err.message.contains("injected failure"), "{err}");
                } else {
                    assert_eq!(*slot, Ok(i * 2), "slot {i} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn catching_map_rebuilds_scratch_after_a_panic() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..16).collect();
        let pool = ThreadPool::new(1); // serial path: one chunk, one state
        let out = pool.par_map_init_catching(
            &items,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, &i| {
                *seen += 1;
                assert!(i != 5, "injected failure");
                (i, *seen)
            },
        );
        assert!(out[5].is_err());
        // item 6 must see a fresh state (count restarts at 1), proving the
        // possibly-corrupt scratch was thrown away
        assert_eq!(out[6], Ok((6, 1)));
        assert_eq!(inits.load(Ordering::SeqCst), 2, "initial + one rebuild");
    }

    #[test]
    fn run_each_runs_every_job_once() {
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            for n in 0..=5 {
                let mut runs = vec![0u32; n];
                let mut jobs: Vec<_> = runs.iter_mut().map(|r| move || *r += 1).collect();
                pool.run_each(&mut jobs);
                drop(jobs);
                assert!(runs.iter().all(|&r| r == 1), "{n} jobs, {threads} threads");
            }
        }
    }

    #[test]
    fn run_each_is_serial_when_nested() {
        let pool = ThreadPool::new(4);
        let outer: Vec<usize> = (0..4).collect();
        let orders = pool.par_map(&outer, |_| {
            let order = Mutex::new(Vec::new());
            let mut jobs: Vec<_> = (0..5)
                .map(|i| {
                    let order = &order;
                    move || {
                        order.lock().unwrap().push((i, thread::current().id()));
                    }
                })
                .collect();
            pool.run_each(&mut jobs);
            drop(jobs);
            order.into_inner().unwrap()
        });
        for order in orders {
            let indices: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
            assert_eq!(indices, [0, 1, 2, 3, 4], "nested jobs run in order");
            assert!(order.iter().all(|&(_, t)| t == order[0].1), "on one thread");
        }
    }

    #[test]
    fn run_each_reraises_a_panic_after_the_other_jobs() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mut runs = [0u32; 5];
            let result = {
                let mut jobs: Vec<_> = runs
                    .iter_mut()
                    .enumerate()
                    .map(|(i, r)| {
                        move || {
                            assert!(i != 1, "injected failure");
                            *r += 1;
                        }
                    })
                    .collect();
                panic::catch_unwind(AssertUnwindSafe(|| pool.run_each(&mut jobs)))
            };
            let payload = result.expect_err("the job's panic reaches the caller");
            assert_eq!(panic_message(payload.as_ref()), "injected failure");
            assert_eq!(runs, [1, 0, 1, 1, 1], "{threads} threads");
            // the pool stays usable for both kinds of region
            let mut count = AtomicUsize::new(0);
            let mut jobs: Vec<_> = (0..3)
                .map(|_| {
                    || {
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect();
            pool.run_each(&mut jobs);
            drop(jobs);
            assert_eq!(*count.get_mut(), 3);
            assert_eq!(pool.par_map(&[1, 2, 3], |&x: &i32| x * 2), [2, 4, 6]);
        }
    }

    #[test]
    fn zst_panic_reports_its_slot() {
        // zero-sized items all share one address, so an item's index must
        // come from its position, not its pointer
        let calls = AtomicUsize::new(0);
        let out = ThreadPool::new(1).par_map_catching(&[(); 8], |()| {
            let call = calls.fetch_add(1, Ordering::SeqCst);
            assert!(call != 5, "injected failure");
        });
        let err = out[5].as_ref().expect_err("the 6th call panicked");
        assert_eq!(err.index, 5);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, slot)| i == 5 || slot.is_ok()));
    }

    #[test]
    fn one_protocol_holds_on_an_oversubscribed_pool() {
        // more threads than most hosts have cores: a helper often wakes
        // after the caller has run its chunk or job, or after the retract
        let pool = ThreadPool::new(8);
        for round in 0..300 {
            let n = round % 41;
            let items: Vec<usize> = (0..n).collect();
            let runs: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let inits = AtomicUsize::new(0);
            let out = pool.par_map_init_catching(
                &items,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    None
                },
                |last: &mut Option<usize>, &i| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    (i, last.replace(i))
                },
            );
            // results in item order; a chunk runs its items in order on
            // one state, so each item's state last saw the item before it
            let mut chunks = 0;
            for (i, slot) in out.iter().enumerate() {
                let &(item, previous) = slot.as_ref().expect("no item panics");
                assert_eq!(item, i, "round {round}");
                match previous {
                    None => chunks += 1,
                    Some(p) => assert_eq!(p + 1, i, "round {round}"),
                }
            }
            assert_eq!(chunks, n.min(8), "round {round}");
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "round {round}"
            );
            assert_eq!(inits.load(Ordering::SeqCst), chunks, "one init per chunk");

            let mut ran = vec![0u32; round % 11];
            let mut jobs: Vec<_> = ran.iter_mut().map(|r| move || *r += 1).collect();
            pool.run_each(&mut jobs);
            drop(jobs);
            assert!(ran.iter().all(|&r| r == 1), "round {round}");
        }
    }

    #[test]
    fn global_pool_resizes() {
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        let pool = global();
        assert_eq!(pool.threads(), 3);
        set_global_threads(1);
        assert_eq!(global_threads(), 1);
        // the old handle keeps its pool
        assert_eq!(pool.threads(), 3);
        let out = pool.par_map(&[1, 2, 3], |&x: &i32| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
