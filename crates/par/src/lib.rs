#![warn(missing_docs)]
//! # ldmo-par — deterministic fork-join parallelism
//!
//! A dependency-free scoped thread pool (the build environment has no
//! crates.io access, and the vendor policy forbids rayon) built for one
//! job: fan a slice of independent work items across threads **without
//! changing a single bit of the result**.
//!
//! Determinism comes from two rules (DESIGN.md §10):
//!
//! - **Static chunking.** Items are split into contiguous chunks by index
//!   arithmetic over `(len, threads)` — never work-stealing — so which
//!   worker computes which item is a pure function of the input.
//! - **Index-keyed output, fixed-order reduction.** [`ThreadPool::par_map`]
//!   writes `result[i]` for item `i`; any cross-item reduction happens on
//!   the calling thread in item order, replaying the serial fold exactly.
//!   Together these make results identical for *any* thread count, not
//!   just reproducible at a fixed one.
//!
//! [`ThreadPool::par_map_init`] gives each participating worker an owned
//! scratch state built once per parallel region, so the workspace-reuse
//! discipline of DESIGN.md §6 (e.g. a per-worker `IltScratch`) survives
//! parallelism: workers allocate at region start, not per item.
//!
//! A pool with `threads == 1` (and any nested call from inside a worker)
//! takes the exact serial code path — a plain `iter().map()` fold with one
//! scratch state — so `--threads 1` is byte-for-byte the pre-parallel
//! engine.
//!
//! [`ThreadPool::run_each`] is the allocation-free region for a handful of
//! coarse jobs the caller owns (one ILT step's per-mask passes): the caller
//! and the helpers claim jobs from an atomic counter, and once every job
//! is claimed the caller retracts the region, so a helper that has not
//! woken yet never holds the caller up.
//!
//! Telemetry: every top-level region adds its item count to the `par.tasks`
//! counter, and workers adopt the dispatching thread's innermost span as
//! their parent (via `ldmo_obs::adopt_parent_span`), so spans opened inside
//! parallel regions stay attached to the trace tree instead of floating at
//! the root. With the collector enabled the pool also self-profiles
//! (DESIGN.md §12): each working chunk records its busy time into the
//! `par.worker_busy_us` histogram, resident workers record the publish-to-
//! pickup latency into `par.worker_wait_us`, each region records its wall
//! time into `par.region_us`, and the `par.busy_fraction` gauge carries the
//! last region's utilization (summed busy time over `threads × wall`) — the
//! measurement the multi-core scaling analysis reads. All of it is timing
//! only: the computation and its chunking are bit-identical with profiling
//! on or off.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread;
use std::time::Instant;

/// Locks ignoring poison: the pool's mutexes only guard state that stays
/// valid across a panic (worker panics are caught before any lock is
/// touched; the one unwind-while-held is the dispatcher re-raising a
/// worker panic after the region fully completed).
fn lock_pool<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One parallel region, type-erased for broadcast to the resident workers.
/// `data` points at a stack-allocated region context on the dispatching
/// thread, which clears the job and waits until no helper is inside it
/// before returning — the pointer never outlives its referent.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    run: unsafe fn(*const (), usize, usize),
}

// The region context behind `data` only holds `Sync` references (items,
// closures) plus pointers to results or `Send` jobs that each index's one
// claimant touches.
unsafe impl Send for Job {}

struct State {
    /// Region generation counter; workers run one job per new epoch.
    epoch: u64,
    /// The current epoch's job; `None` once the dispatcher retracted it
    /// ([`ThreadPool::run_each`]), so a helper that wakes late skips it.
    job: Option<Job>,
    /// Helpers inside the current epoch's job.
    active: usize,
    /// Helpers that finished the current epoch's job.
    finished: usize,
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
    /// Set while this thread is executing a chunk of a parallel region —
    /// on resident workers *and* on the dispatching thread (which runs
    /// chunk 0 itself). Nested `par_map` calls check it and degrade to the
    /// serial path instead of deadlocking on the region lock.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

fn in_region() -> bool {
    IN_REGION.with(Cell::get)
}

fn worker_loop(shared: Arc<Shared>, index: usize, total: usize) {
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
        IN_REGION.with(|f| f.set(true));
        // Soundness: the dispatcher keeps the region context alive until
        // `active` falls back to 0 below.
        unsafe { (job.run)(job.data, index, total) };
        IN_REGION.with(|f| f.set(false));
        let mut st = lock_pool(&shared.state);
        st.active -= 1;
        st.finished += 1;
        shared.done_cv.notify_all();
    }
}

/// Contiguous static chunk of `0..n` owned by worker `index` of `total`:
/// the first `n % total` workers get one extra item. A pure function of
/// `(n, index, total)` — the scheduling half of the determinism rule.
fn chunk_bounds(n: usize, index: usize, total: usize) -> (usize, usize) {
    let base = n / total;
    let rem = n % total;
    let start = index * base + index.min(rem);
    (start, start + base + usize::from(index < rem))
}

/// The first panic payload of a region, re-raised on the dispatcher.
type PanicSlot = Mutex<Option<Box<dyn Any + Send + 'static>>>;

/// Region context for [`ThreadPool::par_map_init`], shared by reference
/// with every worker for the duration of one region.
struct MapCtx<'a, T, S, R, I, F> {
    items: &'a [T],
    /// Disjoint-index output: worker `w` writes exactly `chunk_bounds(w)`.
    out: *mut MaybeUninit<R>,
    init: &'a I,
    f: &'a F,
    /// Innermost span of the dispatching thread, adopted by workers.
    parent_span: u64,
    /// First panic payload from any worker (the dispatcher re-raises it).
    panic: &'a PanicSlot,
    /// When the region was published — resident workers measure their
    /// queue wait against it (self-profiling; only read with obs enabled).
    published: Instant,
    /// Summed per-worker busy microseconds, feeding `par.busy_fraction`.
    busy_us: &'a AtomicU64,
    _state: PhantomData<fn() -> S>,
}

unsafe fn run_map_chunk<T, S, R, I, F>(data: *const (), index: usize, total: usize)
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let ctx = unsafe { &*data.cast::<MapCtx<'_, T, S, R, I, F>>() };
    let (start, end) = chunk_bounds(ctx.items.len(), index, total);
    if start >= end {
        return;
    }
    let profiling = ldmo_obs::enabled();
    if profiling && index > 0 {
        // publish-to-pickup latency of a resident worker (the dispatcher
        // is index 0 and starts immediately)
        metric_handles()
            .worker_wait
            .record(ctx.published.elapsed().as_micros() as u64);
    }
    let chunk_start = profiling.then(Instant::now);
    let previous = (index > 0).then(|| ldmo_obs::adopt_parent_span(ctx.parent_span));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        // per-worker scratch: one init per region, reused across the chunk
        let mut state = (ctx.init)();
        for i in start..end {
            let value = (ctx.f)(&mut state, &ctx.items[i]);
            // disjoint chunks: no other worker touches slot i
            unsafe { (*ctx.out.add(i)).write(value) };
        }
    }));
    if let Some(parent) = previous {
        ldmo_obs::adopt_parent_span(parent);
    }
    if let Some(t0) = chunk_start {
        let busy = t0.elapsed().as_micros() as u64;
        metric_handles().worker_busy.record(busy);
        ctx.busy_us.fetch_add(busy, Ordering::Relaxed);
    }
    if let Err(payload) = result {
        let mut slot = lock_pool(ctx.panic);
        slot.get_or_insert(payload);
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A fixed-size fork-join pool. `threads - 1` resident workers are spawned
/// at construction and parked on a condvar between regions; the calling
/// thread participates as worker 0 of every region. Cloning is a cheap
/// handle copy; the workers shut down when the last handle drops.
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
                finished: 0,
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
                    .spawn(move || worker_loop(shared, index, threads))
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

    /// Publishes `job` as a new epoch and wakes every helper.
    fn publish(&self, job: Job) {
        let mut st = lock_pool(&self.inner.shared.state);
        st.epoch += 1;
        st.job = Some(job);
        st.finished = 0;
        self.inner.shared.work_cv.notify_all();
    }

    /// Waits until every helper has run the published job — each owns a
    /// static chunk of it — and clears it.
    fn join_all(&self) {
        let mut st = lock_pool(&self.inner.shared.state);
        while st.finished < self.inner.threads - 1 {
            st = self
                .inner
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
    }

    /// Retracts the published job, so a helper that has not picked it up
    /// yet skips it, and waits for the helpers already inside it.
    fn retract(&self) {
        let mut st = lock_pool(&self.inner.shared.state);
        st.job = None;
        while st.active > 0 {
            st = self
                .inner
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
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

    /// [`ThreadPool::par_map`] with per-worker scratch: `init` runs once
    /// per participating worker at region start, and `f` receives that
    /// worker's state for every item of its chunk. `f` must use the state
    /// as *scratch only* — results must not depend on which items the
    /// state saw before (the chunking, and therefore the state history,
    /// changes with the thread count; fully-overwritten workspaces in the
    /// sense of DESIGN.md §6 satisfy this by construction).
    pub fn par_map_init<T, S, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let nested = in_region();
        if !nested && ldmo_obs::enabled() {
            metric_handles().tasks.add(n as u64);
        }
        if self.inner.threads == 1 || n == 1 || nested {
            // the exact serial code path: one scratch state, a plain fold
            // in item order
            let mut state = init();
            return items.iter().map(|item| f(&mut state, item)).collect();
        }

        let mut out: Vec<MaybeUninit<R>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
        let panic_slot = Mutex::new(None);
        let busy_us = AtomicU64::new(0);
        let region_start = Instant::now();
        let ctx = MapCtx::<'_, T, S, R, I, F> {
            items,
            out: out.as_mut_ptr(),
            init: &init,
            f: &f,
            parent_span: ldmo_obs::current_span_id(),
            panic: &panic_slot,
            published: region_start,
            busy_us: &busy_us,
            _state: PhantomData,
        };
        let data = (&ctx as *const MapCtx<'_, T, S, R, I, F>).cast::<()>();
        let run = run_map_chunk::<T, S, R, I, F>;

        let _region = lock_pool(&self.inner.region);
        self.publish(Job { data, run });
        // the dispatcher works chunk 0 itself (panics are caught inside)
        IN_REGION.with(|flag| flag.set(true));
        unsafe { run(data, 0, self.inner.threads) };
        IN_REGION.with(|flag| flag.set(false));
        self.join_all();
        if ldmo_obs::enabled() {
            record_region(region_start, &busy_us, self.inner.threads);
        }

        if let Some(payload) = panic_slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            // `out` drops as MaybeUninit (no R destructors run), so results
            // written before the panic leak instead of double-dropping
            panic::resume_unwind(payload);
        }
        // every slot 0..n was written by exactly one disjoint chunk
        let mut out = ManuallyDrop::new(out);
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<R>(), n, out.capacity()) }
    }
}

// ---------------------------------------------------------------------------
// Caller-owned jobs
// ---------------------------------------------------------------------------

/// Region context for [`ThreadPool::run_each`], shared by reference with
/// the helpers that pick the region up before the caller retracts it.
struct EachCtx<J> {
    /// The caller's jobs; job `i` runs on whichever thread claims `i`.
    jobs: *mut J,
    len: usize,
    /// The next unclaimed job index.
    next: AtomicUsize,
    /// First panic payload from any job (the caller re-raises it).
    panic: PanicSlot,
    /// Summed busy microseconds of the participating threads.
    busy_us: AtomicU64,
}

/// Runs `job`, keeping its panic payload in `slot` if it is the first.
fn run_caught<J: FnMut()>(job: &mut J, slot: &PanicSlot) {
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
        lock_pool(slot).get_or_insert(payload);
    }
}

/// Claims and runs jobs of an [`EachCtx`] until none is left.
unsafe fn claim_jobs<J: FnMut() + Send>(data: *const (), _index: usize, _total: usize) {
    let ctx = unsafe { &*data.cast::<EachCtx<J>>() };
    let started = ldmo_obs::enabled().then(Instant::now);
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.len {
            break;
        }
        // the counter hands out each index once, so no other thread
        // touches job i
        run_caught(unsafe { &mut *ctx.jobs.add(i) }, &ctx.panic);
    }
    if let Some(t0) = started {
        let busy = t0.elapsed().as_micros() as u64;
        metric_handles().worker_busy.record(busy);
        ctx.busy_us.fetch_add(busy, Ordering::Relaxed);
    }
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

/// Region-level self-profiling: wall time plus the fraction of the pool's
/// capacity that was busy (1.0 = fully used; low values = imbalance or
/// too few items).
fn record_region(start: Instant, busy_us: &AtomicU64, threads: usize) {
    let wall_us = start.elapsed().as_micros() as u64;
    let handles = metric_handles();
    handles.region.record(wall_us);
    let busy = busy_us.load(Ordering::Relaxed) as f64;
    handles
        .busy_fraction
        .set(busy / (wall_us.max(1) as f64 * threads as f64));
}

impl ThreadPool {
    /// Runs every job in `jobs` exactly once and returns when all have
    /// finished: the allocation-free region for a few coarse jobs whose
    /// state the caller owns, such as one ILT step's per-mask passes.
    ///
    /// The caller and the helpers claim jobs from an atomic counter, so
    /// which thread runs a job depends on timing; each job must write
    /// only what it captured, which keeps the results independent of
    /// it. Once every job is claimed the caller retracts the region: a
    /// helper that has not woken up by then skips it instead of holding
    /// the caller up. A one-thread pool, a single job and a call from
    /// inside a region run the jobs in order on the calling thread. A
    /// panicking job does not stop the others; the first panic is
    /// re-raised once every job has run.
    pub fn run_each<J: FnMut() + Send>(&self, jobs: &mut [J]) {
        let nested = in_region();
        let profiling = ldmo_obs::enabled();
        if !nested && profiling {
            metric_handles().tasks.add(jobs.len() as u64);
        }
        let ctx = EachCtx {
            jobs: jobs.as_mut_ptr(),
            len: jobs.len(),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
            busy_us: AtomicU64::new(0),
        };
        if self.inner.threads == 1 || jobs.len() <= 1 || nested {
            for job in jobs.iter_mut() {
                run_caught(job, &ctx.panic);
            }
        } else {
            let data = (&ctx as *const EachCtx<J>).cast::<()>();
            let region_start = Instant::now();
            let _region = lock_pool(&self.inner.region);
            self.publish(Job {
                data,
                run: claim_jobs::<J>,
            });
            IN_REGION.with(|flag| flag.set(true));
            unsafe { claim_jobs::<J>(data, 0, self.inner.threads) };
            IN_REGION.with(|flag| flag.set(false));
            self.retract();
            if profiling {
                record_region(region_start, &ctx.busy_us, self.inner.threads);
            }
        }
        if let Some(payload) = ctx
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
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
    /// worker's scratch state is rebuilt with `init` — a panic can leave
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
        let base = items.as_ptr() as usize;
        let init = &init;
        let f = &f;
        self.par_map_init(
            items,
            || Some(init()),
            move |state, item| {
                // recover the item index from its address (static chunking
                // hands `f` items of the original slice by reference)
                let index = if size_of::<T>() == 0 {
                    0
                } else {
                    (std::ptr::from_ref(item) as usize - base) / size_of::<T>()
                };
                if state.is_none() {
                    *state = Some(init());
                }
                let scratch = state.as_mut().expect("replenished above");
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
