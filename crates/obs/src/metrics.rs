//! Named metrics: monotonic counters, last-value gauges, and log2-bucketed
//! histograms.
//!
//! Handles are `Copy` references to leaked (`'static`) atomics, so call
//! sites can cache them in a `OnceLock` and record with nothing but a
//! relaxed atomic RMW — no allocation, no locking. Registration (the first
//! [`counter`]/[`gauge`]/[`histogram`] call per name) takes a mutex and
//! allocates once; hot paths must register at setup time (e.g. session
//! construction or a `OnceLock::get_or_init`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Number of log2 buckets per histogram: bucket `b ≥ 1` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zeros, the last bucket saturates.
pub const HISTOGRAM_BINS: usize = 64;

struct Registry {
    counters: Mutex<Vec<(&'static str, &'static AtomicU64)>>,
    gauges: Mutex<Vec<(&'static str, &'static AtomicU64)>>,
    histograms: Mutex<Vec<(&'static str, &'static HistInner)>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
    })
}

pub(crate) fn reset() {
    let r = registry();
    for (_, cell) in r.counters.lock().expect("counter lock").iter() {
        cell.store(0, Ordering::SeqCst);
    }
    for (_, cell) in r.gauges.lock().expect("gauge lock").iter() {
        cell.store(0, Ordering::SeqCst);
    }
    for (_, h) in r.histograms.lock().expect("histogram lock").iter() {
        h.count.store(0, Ordering::SeqCst);
        h.sum.store(0, Ordering::SeqCst);
        h.max.store(0, Ordering::SeqCst);
        for bin in &h.bins {
            bin.store(0, Ordering::SeqCst);
        }
    }
}

/// A monotonic counter handle. Copy it freely; recording is one relaxed
/// `fetch_add`.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// Returns the counter registered under `name`, registering it on first
/// use. Registration allocates; cache the handle near hot paths.
pub fn counter(name: &'static str) -> Counter {
    let mut counters = registry().counters.lock().expect("counter lock");
    if let Some((_, cell)) = counters.iter().find(|(n, _)| *n == name) {
        return Counter { cell };
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    counters.push((name, cell));
    Counter { cell }
}

/// Snapshot of all counters as `(name, value)`, registration order.
pub(crate) fn counters_snapshot() -> Vec<(&'static str, u64)> {
    registry()
        .counters
        .lock()
        .expect("counter lock")
        .iter()
        .map(|(n, c)| (*n, c.load(Ordering::SeqCst)))
        .collect()
}

/// A last-value gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    cell: &'static AtomicU64,
}

impl Gauge {
    /// Stores `value`, replacing the previous one.
    #[inline]
    pub fn set(&self, value: f64) {
        self.cell.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 before the first [`Gauge::set`]).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::SeqCst))
    }
}

/// Returns the gauge registered under `name`, registering it on first use.
pub fn gauge(name: &'static str) -> Gauge {
    let mut gauges = registry().gauges.lock().expect("gauge lock");
    if let Some((_, cell)) = gauges.iter().find(|(n, _)| *n == name) {
        return Gauge { cell };
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0f64.to_bits())));
    gauges.push((name, cell));
    Gauge { cell }
}

/// Snapshot of all gauges as `(name, value)`, registration order.
pub(crate) fn gauges_snapshot() -> Vec<(&'static str, f64)> {
    registry()
        .gauges
        .lock()
        .expect("gauge lock")
        .iter()
        .map(|(n, c)| (*n, f64::from_bits(c.load(Ordering::SeqCst))))
        .collect()
}

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    bins: Vec<AtomicU64>,
}

/// A histogram handle over [`HISTOGRAM_BINS`] preallocated log2 buckets.
/// Recording is four relaxed atomic RMWs — no allocation.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    inner: &'static HistInner,
}

fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BINS - 1)
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.max.fetch_max(value, Ordering::Relaxed);
        self.inner.bins[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Current aggregate state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.inner.count.load(Ordering::SeqCst),
            sum: self.inner.sum.load(Ordering::SeqCst),
            max: self.inner.max.load(Ordering::SeqCst),
            bins: self
                .inner
                .bins
                .iter()
                .map(|b| b.load(Ordering::SeqCst))
                .collect(),
        }
    }
}

/// Aggregate state of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Per-bucket observation counts (see [`HISTOGRAM_BINS`]).
    pub bins: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Reconstructs the `q`-quantile (`0 < q ≤ 1`, e.g. `0.99` for p99)
    /// from the log2 buckets.
    ///
    /// The histogram only keeps per-bucket counts, so the true quantile is
    /// recovered up to the containing bucket `[2^(b-1), 2^b)` and then
    /// linearly interpolated by rank inside it. The error bound is the
    /// bucket width: the reconstructed value and the true quantile always
    /// share a bucket, so they differ by strictly less than a factor of 2
    /// (exact for zeros, and the top end is clamped to the recorded
    /// maximum). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the requested observation in sorted order
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                if b == 0 {
                    return 0.0; // bucket 0 holds exact zeros
                }
                let lo = (1u128 << (b - 1)) as f64;
                let hi = if b + 1 >= HISTOGRAM_BINS {
                    // the last bucket saturates; the recorded max bounds it
                    self.max as f64
                } else {
                    ((1u128 << b) as f64).min(self.max as f64)
                };
                let hi = hi.max(lo);
                let frac = (target - seen) as f64 / c as f64;
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        self.max as f64
    }
}

/// Returns the histogram registered under `name`, registering it on first
/// use. Registration allocates the bucket array; cache the handle near hot
/// paths.
pub fn histogram(name: &'static str) -> Histogram {
    let mut histograms = registry().histograms.lock().expect("histogram lock");
    if let Some((_, inner)) = histograms.iter().find(|(n, _)| *n == name) {
        return Histogram { inner };
    }
    let inner: &'static HistInner = Box::leak(Box::new(HistInner {
        count: AtomicU64::new(0),
        sum: AtomicU64::new(0),
        max: AtomicU64::new(0),
        bins: (0..HISTOGRAM_BINS).map(|_| AtomicU64::new(0)).collect(),
    }));
    histograms.push((name, inner));
    Histogram { inner }
}

/// Snapshot of all histograms as `(name, snapshot)`, registration order.
pub(crate) fn histograms_snapshot() -> Vec<(&'static str, HistogramSnapshot)> {
    registry()
        .histograms
        .lock()
        .expect("histogram lock")
        .iter()
        .map(|(n, h)| (*n, Histogram { inner: h }.snapshot()))
        .collect()
}
