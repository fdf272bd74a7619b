//! The one read of the metric registry: every registered counter, gauge
//! and histogram in one [`MetricsSnapshot`].
//!
//! Reads are lock-free per metric (each value is one atomic load; the
//! registry mutex is held only to walk the registration list, never while
//! a recording site holds anything). `/metrics` and the trace's `counter`,
//! `gauge` and `hist` lines both render a [`MetricsSnapshot::take`]; a
//! consumer that wants a rate diffs two takes itself.

use crate::metrics::{self, HistogramSnapshot};

/// One read of the whole metric registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge values, registration order. Only gauges something actually
    /// registered appear — an absent gauge means "unmeasured", never 0.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram states, registration order.
    pub hists: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Takes a snapshot of every registered metric right now.
    pub fn take() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: metrics::counters_snapshot(),
            gauges: metrics::gauges_snapshot(),
            hists: metrics::histograms_snapshot(),
        }
    }
}
