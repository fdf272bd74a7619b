//! Point-in-time metrics snapshots: every registered counter, gauge and
//! histogram read into one sequenced, timestamped [`MetricsSnapshot`].
//!
//! Reads are lock-free per metric (each value is one atomic load; the
//! registry mutex is held only to walk the registration list, never while
//! a recording site holds anything). Snapshots carry a process-global
//! sequence number so consumers polling `/snapshot` can detect missed or
//! duplicate reads, and [`Snapshotter`] computes deltas against the
//! previous snapshot — the rate view a dashboard actually wants.
//! Serialization uses the crate's own [`crate::json`] writer helpers, so
//! the endpoint stays dependency-free.

use crate::metrics::{self, HistogramSnapshot};
use crate::{collector, json};
use std::sync::atomic::{AtomicU64, Ordering};

static SNAPSHOT_SEQ: AtomicU64 = AtomicU64::new(0);

/// One atomic read of the whole metric registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Process-global snapshot sequence number (1-based, strictly
    /// increasing across all takers).
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Microseconds since the collector epoch when the snapshot was taken.
    pub uptime_us: u64,
    /// Counter values, registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values, registration order. Only gauges something actually
    /// registered appear — an absent gauge means "unmeasured", never 0.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram states, registration order.
    pub hists: Vec<(&'static str, HistogramSnapshot)>,
}

/// The change between two snapshots of the same process.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// Microseconds elapsed between the two snapshots.
    pub interval_us: u64,
    /// Counter increments over the interval (saturating at 0 — a counter
    /// can only shrink across an explicit [`crate::reset`]).
    pub counters: Vec<(&'static str, u64)>,
    /// New histogram observations over the interval.
    pub hist_counts: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// Takes a snapshot of every registered metric right now.
    pub fn take() -> MetricsSnapshot {
        MetricsSnapshot {
            seq: SNAPSHOT_SEQ.fetch_add(1, Ordering::Relaxed) + 1,
            unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            uptime_us: collector::now_us(),
            counters: metrics::counters_snapshot(),
            gauges: metrics::gauges_snapshot(),
            hists: metrics::histograms_snapshot(),
        }
    }

    /// Delta of this snapshot against an earlier one. Metrics registered
    /// since `prev` count their full value (a new metric's previous value
    /// is 0 by definition).
    pub fn delta(&self, prev: &MetricsSnapshot) -> SnapshotDelta {
        let prev_counter = |name: &str| {
            prev.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, v)| *v)
        };
        let prev_hist = |name: &str| {
            prev.hists
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0, |(_, h)| h.count)
        };
        SnapshotDelta {
            interval_us: self.uptime_us.saturating_sub(prev.uptime_us),
            counters: self
                .counters
                .iter()
                .map(|(n, v)| (*n, v.saturating_sub(prev_counter(n))))
                .collect(),
            hist_counts: self
                .hists
                .iter()
                .map(|(n, h)| (*n, h.count.saturating_sub(prev_hist(n))))
                .collect(),
        }
    }

    /// JSON object for this snapshot, including `delta` when one is
    /// supplied (the `/snapshot` endpoint schema, DESIGN.md §14).
    pub fn to_json_with(&self, delta: Option<&SnapshotDelta>) -> String {
        let mut out = format!(
            "{{\"type\":\"snapshot\",\"seq\":{},\"unix_ms\":{},\"uptime_us\":{}",
            self.seq, self.unix_ms, self.uptime_us
        );
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{value}", json::escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{}",
                json::escape(name),
                json::number(*value)
            ));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bins: Vec<String> = h
                .bins
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| format!("[{b},{c}]"))
                .collect();
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{},\"bins\":[{}]}}",
                json::escape(name),
                h.count,
                h.sum,
                h.max,
                json::number(h.percentile(0.50)),
                json::number(h.percentile(0.99)),
                bins.join(",")
            ));
        }
        out.push('}');
        if let Some(d) = delta {
            out.push_str(&format!(",\"delta\":{{\"interval_us\":{}", d.interval_us));
            out.push_str(",\"counters\":{");
            for (i, (name, value)) in d.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{value}", json::escape(name)));
            }
            out.push_str("},\"hist_counts\":{");
            for (i, (name, value)) in d.hist_counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{value}", json::escape(name)));
            }
            out.push_str("}}");
        }
        out.push('}');
        out
    }

    /// JSON object for this snapshot without a delta.
    pub fn to_json(&self) -> String {
        self.to_json_with(None)
    }
}

/// A stateful taker: remembers the previous snapshot so every call after
/// the first comes with a delta.
#[derive(Debug, Default)]
pub struct Snapshotter {
    prev: Option<MetricsSnapshot>,
}

impl Snapshotter {
    /// A snapshotter with no history (the first take has no delta).
    pub fn new() -> Snapshotter {
        Snapshotter::default()
    }

    /// Takes a snapshot and the delta against the previous take.
    pub fn take(&mut self) -> (MetricsSnapshot, Option<SnapshotDelta>) {
        let snapshot = MetricsSnapshot::take();
        let delta = self.prev.as_ref().map(|prev| snapshot.delta(prev));
        self.prev = Some(snapshot.clone());
        (snapshot, delta)
    }
}
