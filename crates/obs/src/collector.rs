//! The global collector: span events, the per-thread span stack, and the
//! fixed-capacity convergence-record buffer.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum numeric metadata fields per span; further [`Span::set`] calls
/// are dropped silently. Sized with headroom for the widest spans in the
/// inventory: `flow.run` carries patterns/pool/backend/attempts/sel_us/
/// opt_us.
pub const MAX_SPAN_META: usize = 8;

/// Maximum span nesting depth tracked for parent attribution; deeper spans
/// still record but their children attach to the deepest tracked ancestor.
const MAX_SPAN_DEPTH: usize = 32;

/// Capacity of the convergence-record buffer. Sized for a full Table-I
/// run with headroom: 13 testcases × ~10 ILT runs × 29 iterations ≈ 4k
/// records.
const RECORD_CAPACITY: usize = 1 << 17;

/// Capacity of the span-event store (about 7.9 MB of [`SpanEvent`]s).
/// A daemon keeps the collector on for `/metrics` and nothing drains its
/// spans, so closes past the cap are dropped and counted like convergence
/// rows. Unlike the record buffer the store is not preallocated: a CI
/// table1 trace closes about 120 spans.
const SPAN_CAPACITY: usize = 1 << 15;

/// A completed span, pushed to the collector when the [`Span`] guard drops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// Unique id (1-based; 0 means "no span").
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 at the root.
    pub parent: u64,
    /// Static span name (DESIGN.md §8 naming: `layer.operation`).
    pub name: &'static str,
    /// Start offset from the collector epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Numeric metadata recorded via [`Span::set`].
    pub meta: [Option<(&'static str, f64)>; MAX_SPAN_META],
}

/// One per-iteration ILT convergence row (the Fig. 8 trace substrate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceRecord {
    /// Innermost enclosing span at record time (0 = none).
    pub span: u64,
    /// Offset from the collector epoch, microseconds.
    pub t_us: u64,
    /// 0-based ILT iteration index.
    pub iteration: u32,
    /// L2 error at the start of the iteration.
    pub l2: f64,
    /// L2 norm of the applied parameter update (`NaN` = not measured).
    pub step_norm: f64,
    /// EPE violation count (`-1` = not measured this iteration).
    pub epe_violations: i64,
}

pub(crate) struct Collector {
    epoch: Instant,
    next_span_id: AtomicU64,
    /// At most [`SPAN_CAPACITY`] events; closes beyond it are counted.
    events: Mutex<Vec<SpanEvent>>,
    dropped_spans: AtomicU64,
    /// Preallocated at [`crate::enable`]; pushes beyond capacity are
    /// dropped and counted so recording never reallocates.
    records: Mutex<Vec<ConvergenceRecord>>,
    dropped_records: AtomicU64,
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

pub(crate) fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(0),
        events: Mutex::new(Vec::with_capacity(4096)),
        dropped_spans: AtomicU64::new(0),
        records: Mutex::new(Vec::with_capacity(RECORD_CAPACITY)),
        dropped_records: AtomicU64::new(0),
    })
}

pub(crate) fn reset() {
    let c = collector();
    c.events.lock().expect("events lock").clear();
    c.dropped_spans.store(0, Ordering::SeqCst);
    c.records.lock().expect("records lock").clear();
    c.dropped_records.store(0, Ordering::SeqCst);
    c.next_span_id.store(0, Ordering::SeqCst);
}

impl Collector {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

// ---------------------------------------------------------------------------
// Span-name intern table: maps `&'static str` span names to small integer
// keys (index + 1; 0 = "no name"). The flight ring and the sampler mirror
// store keys, never pointers, so a torn or stale read can at worst resolve
// to a *different registered name* — it can never be dereferenced as a
// dangling pointer. Registration locks and may allocate; the set of span
// names is small and static, so this happens a bounded number of times.
// ---------------------------------------------------------------------------

static NAME_TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();

fn name_table() -> &'static Mutex<Vec<&'static str>> {
    NAME_TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

pub(crate) fn intern_name(name: &'static str) -> usize {
    let mut table = name_table().lock().expect("name table lock");
    if let Some(i) = table
        .iter()
        .position(|&n| std::ptr::eq(n, name) || n == name)
    {
        return i + 1;
    }
    table.push(name);
    table.len()
}

/// Resolves an intern key back to its span name (`None` for 0 or
/// out-of-range keys — the caller renders those as unknown).
pub(crate) fn resolve_name(key: usize) -> Option<&'static str> {
    if key == 0 {
        return None;
    }
    name_table()
        .lock()
        .expect("name table lock")
        .get(key - 1)
        .copied()
}

// ---------------------------------------------------------------------------
// Sampler stack mirror: when profiling is on, each thread mirrors its span
// stack into a shared, atomically-readable shadow so the sampler thread
// can snapshot any thread's current span path without stopping it. The
// mirror is maintained only while `MIRROR` is set (profiler running), so
// unprofiled runs pay a single relaxed load per span open/close. Frames
// hold intern keys; the sampler reads `depth` then the frames with relaxed
// loads — a concurrent push/pop can yield an off-by-one-sample stale
// frame, which resolves to a recently valid name (sampling is statistical,
// DESIGN.md §14 states the tolerance).
// ---------------------------------------------------------------------------

pub(crate) struct SharedStack {
    depth: AtomicUsize,
    frames: [AtomicUsize; MAX_SPAN_DEPTH],
    retired: AtomicBool,
}

impl SharedStack {
    fn new() -> Self {
        SharedStack {
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicUsize::new(0)),
            retired: AtomicBool::new(false),
        }
    }

    /// Snapshot of the thread's current span path as intern keys,
    /// root-first. Empty when the thread is between spans.
    pub(crate) fn sample(&self) -> Vec<usize> {
        let depth = self.depth.load(Ordering::Acquire).min(MAX_SPAN_DEPTH);
        (0..depth)
            .map(|i| self.frames[i].load(Ordering::Relaxed))
            .collect()
    }

    pub(crate) fn retired(&self) -> bool {
        self.retired.load(Ordering::Relaxed)
    }
}

static STACK_REGISTRY: OnceLock<Mutex<Vec<Arc<SharedStack>>>> = OnceLock::new();
static MIRROR: AtomicBool = AtomicBool::new(false);

fn stack_registry() -> &'static Mutex<Vec<Arc<SharedStack>>> {
    STACK_REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turns the per-thread stack mirroring on or off (profiler start/stop).
pub(crate) fn set_mirror(on: bool) {
    MIRROR.store(on, Ordering::SeqCst);
}

#[inline]
pub(crate) fn mirror_active() -> bool {
    MIRROR.load(Ordering::Relaxed)
}

/// Registered, live shared stacks; retired entries (exited threads) are
/// pruned as a side effect.
pub(crate) fn sampler_stacks() -> Vec<Arc<SharedStack>> {
    let mut registry = stack_registry().lock().expect("stack registry lock");
    registry.retain(|s| !s.retired());
    registry.clone()
}

/// Ensures the calling thread has a shared span stack the sampling
/// profiler can observe. Worker pools call this once per worker at spawn;
/// span opens also ensure it lazily while profiling is on. Idempotent and
/// cheap after the first call.
pub fn register_sampler_thread() {
    SPAN_STACK.with(|s| {
        ensure_shared(&mut s.borrow_mut());
    });
}

fn ensure_shared(stack: &mut SpanStack) -> Arc<SharedStack> {
    if let Some(shared) = &stack.shared {
        return Arc::clone(shared);
    }
    let shared = Arc::new(SharedStack::new());
    stack_registry()
        .lock()
        .expect("stack registry lock")
        .push(Arc::clone(&shared));
    stack.shared = Some(Arc::clone(&shared));
    shared
}

struct SpanStack {
    ids: [u64; MAX_SPAN_DEPTH],
    depth: usize,
    /// Fallback parent while the stack is empty: pool workers adopt the
    /// span that was open on the thread that dispatched to them, so spans
    /// opened inside parallel regions stay attached to the root tree.
    adopted: u64,
    /// This thread's sampler-visible stack mirror (created on demand).
    shared: Option<Arc<SharedStack>>,
}

impl Drop for SpanStack {
    fn drop(&mut self) {
        // thread exit: retire the mirror so the sampler stops reading it
        if let Some(shared) = &self.shared {
            shared.retired.store(true, Ordering::Relaxed);
        }
    }
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack {
            ids: [0; MAX_SPAN_DEPTH],
            depth: 0,
            adopted: 0,
            shared: None,
        })
    };
}

fn current_span() -> u64 {
    SPAN_STACK.with(|s| {
        let s = s.borrow();
        if s.depth == 0 {
            s.adopted
        } else {
            s.ids[(s.depth - 1).min(MAX_SPAN_DEPTH - 1)]
        }
    })
}

/// Id of the innermost span on the calling thread (0 = none). Pool
/// dispatchers capture this and hand it to workers via
/// [`adopt_parent_span`].
pub fn current_span_id() -> u64 {
    current_span()
}

/// Sets the calling thread's fallback parent: spans opened (and
/// convergence rows recorded) while this thread's own span stack is empty
/// attach to `parent` instead of floating at the root. Returns the
/// previous fallback so callers can restore it when the parallel region
/// ends. Spans already on the stack are unaffected — the adoption only
/// fills the empty-stack case, so it cannot corrupt span nesting.
pub fn adopt_parent_span(parent: u64) -> u64 {
    SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        std::mem::replace(&mut s.adopted, parent)
    })
}

/// An RAII span guard. The span is recorded when the guard drops; when the
/// collector is disabled the guard still measures wall time (so callers can
/// keep populating legacy timing structs) but records nothing.
#[must_use = "a span measures the region until the guard drops"]
#[derive(Debug)]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    name_key: usize,
    start: Instant,
    start_us: u64,
    meta: [Option<(&'static str, f64)>; MAX_SPAN_META],
    active: bool,
    mirrored: bool,
}

/// Opens a span named `name` under the current thread's innermost span.
///
/// Names must be `'static` (recording never allocates for them) and follow
/// the `layer.operation` convention of DESIGN.md §8.
pub fn span(name: &'static str) -> Span {
    let start = Instant::now();
    if !crate::enabled() {
        return Span {
            id: 0,
            parent: 0,
            name,
            name_key: 0,
            start,
            start_us: 0,
            meta: [None; MAX_SPAN_META],
            active: false,
            mirrored: false,
        };
    }
    let c = collector();
    let id = c.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = current_span();
    // the intern key feeds the flight ring and the sampler mirror; only
    // computed when at least one of them can observe it
    let name_key = if crate::flight::active() || mirror_active() {
        intern_name(name)
    } else {
        0
    };
    let mut mirrored = false;
    SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth < MAX_SPAN_DEPTH {
            let d = s.depth;
            s.ids[d] = id;
        }
        s.depth += 1;
        if mirror_active() {
            let shared = ensure_shared(&mut s);
            let d = shared.depth.load(Ordering::Relaxed);
            if d < MAX_SPAN_DEPTH {
                shared.frames[d].store(name_key, Ordering::Relaxed);
            }
            shared.depth.store(d + 1, Ordering::Release);
            // each span pops exactly what it pushed, even if the profiler
            // stops (or starts) while it is open
            mirrored = true;
        }
    });
    Span {
        id,
        parent,
        name,
        name_key,
        start,
        start_us: c.now_us(),
        meta: [None; MAX_SPAN_META],
        active: true,
        mirrored,
    }
}

impl Span {
    /// The span id (0 when the collector was disabled at creation).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Wall time since the span opened; valid whether or not the collector
    /// is enabled.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Attaches a numeric metadata field, overwriting an existing field
    /// with the same key. At most [`MAX_SPAN_META`] distinct keys are kept;
    /// further keys are dropped.
    pub fn set(&mut self, key: &'static str, value: f64) {
        if !self.active {
            return;
        }
        for slot in &mut self.meta {
            match slot {
                Some((k, v)) if *k == key => {
                    *v = value;
                    return;
                }
                None => {
                    *slot = Some((key, value));
                    return;
                }
                _ => {}
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.depth > 0 {
                s.depth -= 1;
            }
            if self.mirrored {
                if let Some(shared) = &s.shared {
                    let d = shared.depth.load(Ordering::Relaxed);
                    shared.depth.store(d.saturating_sub(1), Ordering::Release);
                }
            }
        });
        let c = collector();
        let dur_us = self.start.elapsed().as_micros() as u64;
        if crate::flight::active() {
            let key = if self.name_key != 0 {
                self.name_key
            } else {
                // flight recording turned on after this span opened
                intern_name(self.name)
            };
            crate::flight::record_span(self.id, self.parent, key, self.start_us, dur_us);
        }
        let event = SpanEvent {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            dur_us,
            meta: self.meta,
        };
        let mut events = c.events.lock().expect("events lock");
        if events.len() < SPAN_CAPACITY {
            events.push(event);
        } else {
            c.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Records one ILT convergence row under the current span.
///
/// Allocation-free once the collector is enabled: the row is copied into a
/// buffer preallocated by [`crate::enable`]; at capacity the row is dropped
/// and counted in [`dropped_records`]. A no-op (one relaxed load) when the
/// collector is disabled.
///
/// `step_norm = NaN` and `epe_violations = -1` mean "not measured".
#[inline]
pub fn convergence(iteration: u32, l2: f64, step_norm: f64, epe_violations: i64) {
    if !crate::enabled() {
        return;
    }
    let c = collector();
    let record = ConvergenceRecord {
        span: current_span(),
        t_us: c.now_us(),
        iteration,
        l2,
        step_norm,
        epe_violations,
    };
    if crate::flight::active() {
        crate::flight::record_conv(
            record.span,
            record.t_us,
            iteration,
            l2,
            step_norm,
            epe_violations,
        );
    }
    let mut records = c.records.lock().expect("records lock");
    if records.len() < records.capacity() {
        records.push(record);
    } else {
        c.dropped_records.fetch_add(1, Ordering::Relaxed);
    }
}

/// Convergence rows dropped because the preallocated buffer was full.
pub fn dropped_records() -> u64 {
    collector().dropped_records.load(Ordering::SeqCst)
}

/// Span closes dropped because the span store was full.
pub(crate) fn dropped_spans() -> u64 {
    collector().dropped_spans.load(Ordering::SeqCst)
}

/// Capacity of the convergence-record buffer.
pub fn convergence_capacity() -> usize {
    collector().records.lock().expect("records lock").capacity()
}

/// A copy of all completed span events (test/sink access).
pub fn events_snapshot() -> Vec<SpanEvent> {
    collector().events.lock().expect("events lock").clone()
}

/// A copy of all convergence records (test/sink access).
pub fn records_snapshot() -> Vec<ConvergenceRecord> {
    collector().records.lock().expect("records lock").clone()
}
