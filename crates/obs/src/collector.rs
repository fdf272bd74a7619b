//! The global collector: span events, the per-thread span stack, and the
//! convergence-record buffer. The span store and the record buffer are
//! the one record of spans and rows: the JSONL trace, the flight dump and
//! `/spans` all read them. Each keeps its newest entries up to its cap and
//! counts the ones it evicted.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
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
/// spans, so the cap is what bounds it. Unlike the record buffer the
/// store is not preallocated: a CI table1 trace closes about 120 spans.
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

/// The newest entries of one stream, oldest first. A push at the cap
/// evicts the oldest entry and counts it, so a store that nothing drains
/// stays bounded and still holds the latest activity.
struct Newest<T> {
    cap: usize,
    entries: VecDeque<T>,
    evicted: u64,
}

impl<T: Copy> Newest<T> {
    /// An empty store of at most `cap` entries with room for `prealloc`
    /// of them; once `cap` slots exist, a push never allocates.
    fn new(cap: usize, prealloc: usize) -> Self {
        Newest {
            cap,
            entries: VecDeque::with_capacity(prealloc),
            evicted: 0,
        }
    }

    fn push(&mut self, entry: T) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry);
    }

    /// The newest `n` entries, oldest first, and how many were pushed
    /// since the last clear.
    fn newest(&self, n: usize) -> (Vec<T>, u64) {
        let skip = self.entries.len().saturating_sub(n);
        let pushed = self.entries.len() as u64 + self.evicted;
        (self.entries.range(skip..).copied().collect(), pushed)
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.evicted = 0;
    }
}

pub(crate) struct Collector {
    epoch: Instant,
    next_span_id: AtomicU64,
    spans: Mutex<Newest<SpanEvent>>,
    /// Preallocated at [`crate::enable`], so recording a row never
    /// allocates.
    records: Mutex<Newest<ConvergenceRecord>>,
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

pub(crate) fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        next_span_id: AtomicU64::new(0),
        spans: Mutex::new(Newest::new(SPAN_CAPACITY, 4096)),
        records: Mutex::new(Newest::new(RECORD_CAPACITY, RECORD_CAPACITY)),
    })
}

/// Locks a store. Every step of a push or a clear leaves the store
/// valid, so a panic cannot leave it half-written, and the crash path
/// must still read it: poisoning is ignored.
fn lock<T>(store: &Mutex<T>) -> MutexGuard<'_, T> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn reset() {
    let c = collector();
    lock(&c.spans).clear();
    lock(&c.records).clear();
    c.next_span_id.store(0, Ordering::SeqCst);
}

impl Collector {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

struct SpanStack {
    ids: [u64; MAX_SPAN_DEPTH],
    depth: usize,
    /// Fallback parent while the stack is empty: pool workers adopt the
    /// span that was open on the thread that dispatched to them, so spans
    /// opened inside parallel regions stay attached to the root tree.
    adopted: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack {
            ids: [0; MAX_SPAN_DEPTH],
            depth: 0,
            adopted: 0,
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
    start: Instant,
    start_us: u64,
    meta: [Option<(&'static str, f64)>; MAX_SPAN_META],
    active: bool,
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
            start,
            start_us: 0,
            meta: [None; MAX_SPAN_META],
            active: false,
        };
    }
    let c = collector();
    let id = c.next_span_id.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = current_span();
    SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth < MAX_SPAN_DEPTH {
            let d = s.depth;
            s.ids[d] = id;
        }
        s.depth += 1;
    });
    Span {
        id,
        parent,
        name,
        start,
        start_us: c.now_us(),
        meta: [None; MAX_SPAN_META],
        active: true,
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
            s.depth = s.depth.saturating_sub(1);
        });
        let event = SpanEvent {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us: self.start_us,
            dur_us: self.start.elapsed().as_micros() as u64,
            meta: self.meta,
        };
        lock(&collector().spans).push(event);
    }
}

/// Records one ILT convergence row under the current span.
///
/// Allocation-free once the collector is enabled: the row is copied into a
/// buffer preallocated by [`crate::enable`]; at capacity the oldest row is
/// evicted and counted in [`dropped_records`]. A no-op (one relaxed load)
/// when the collector is disabled.
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
    lock(&c.records).push(record);
}

/// Convergence rows evicted because the buffer was full.
pub fn dropped_records() -> u64 {
    lock(&collector().records).evicted
}

/// Span closes evicted because the span store was full.
pub(crate) fn dropped_spans() -> u64 {
    lock(&collector().spans).evicted
}

/// Capacity of the convergence-record buffer.
pub fn convergence_capacity() -> usize {
    RECORD_CAPACITY
}

/// A copy of the kept span events, oldest close first (test/sink access).
pub fn events_snapshot() -> Vec<SpanEvent> {
    newest_spans(SPAN_CAPACITY).0
}

/// A copy of the kept convergence records, oldest first (test/sink
/// access).
pub fn records_snapshot() -> Vec<ConvergenceRecord> {
    newest_records(RECORD_CAPACITY).0
}

/// The newest `n` span closes, oldest first, and the number of closes
/// recorded since the last reset.
pub(crate) fn newest_spans(n: usize) -> (Vec<SpanEvent>, u64) {
    lock(&collector().spans).newest(n)
}

/// The newest `n` convergence rows, oldest first, and the number of rows
/// recorded since the last reset.
pub(crate) fn newest_records(n: usize) -> (Vec<ConvergenceRecord>, u64) {
    lock(&collector().records).newest(n)
}
