//! Post-hoc analysis of JSONL traces — the read side of
//! [`crate::write_jsonl`], powering `ldmo trace summarize` /
//! `ldmo trace diff` and the end-of-run [`crate::summary`].
//!
//! A [`Trace`] is parsed back from the JSONL event stream (tolerating a
//! truncated tail, so a trace from a crashed or killed run still
//! analyzes), then reduced three ways:
//!
//! - **Span rollups** ([`Trace::rollup`]): spans aggregated by their
//!   name path with call counts, total and *self* time (total minus the
//!   time attributed to child aggregates). `ldmo trace flame` orders them
//!   by self time ([`Trace::hotspots`]) and folds them into collapsed
//!   stacks ([`Trace::folded`]).
//! - **Percentiles** ([`HistogramSnapshot::percentile`]): p50/p90/p99
//!   reconstructed from the log2 buckets, correct to within one bucket
//!   (< 2×; see DESIGN.md §12 for the error-bound statement).
//! - **Convergence summaries** ([`Trace::conv_summaries`]): per-run ILT
//!   L2 trajectories collapsed to first/last/min and reduction ratio.
//!
//! [`diff`] compares the rollups of two traces and flags aggregates whose
//! total time regressed beyond a threshold ratio, and
//! [`Trace::reconcile_flow_timing`] cross-checks the `flow.run` span
//! durations against the `FlowTiming` buckets the flow stamps into span
//! metadata — the accounting invariant CI enforces on every real trace.

use crate::json::{self, Value};
use crate::metrics::{HistogramSnapshot, HISTOGRAM_BINS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// One span event read back from a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span id (unique within one parsed [`Trace`]; merging re-offsets).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (`layer.operation`).
    pub name: String,
    /// Start offset from the collector epoch, microseconds.
    pub start_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Flattened numeric metadata fields.
    pub meta: Vec<(String, f64)>,
}

impl TraceSpan {
    /// Metadata field lookup.
    pub fn meta_get(&self, key: &str) -> Option<f64> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// One convergence record read back from a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConv {
    /// Innermost enclosing span id at record time (0 = none).
    pub span: u64,
    /// Offset from the collector epoch, microseconds.
    pub t_us: u64,
    /// 0-based ILT iteration index.
    pub iter: u32,
    /// L2 error (`NaN` when the writer emitted `null`).
    pub l2: f64,
    /// Step norm (`NaN` = not measured).
    pub step_norm: f64,
    /// EPE violation count (−1 = not measured).
    pub epe: i64,
}

/// One histogram read back from a trace (sparse bins re-densified).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceHist {
    /// Histogram name.
    pub name: String,
    /// Aggregate state, percentile-capable via
    /// [`HistogramSnapshot::percentile`].
    pub snapshot: HistogramSnapshot,
}

/// A fully parsed trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All span events.
    pub spans: Vec<TraceSpan>,
    /// All convergence records.
    pub conv: Vec<TraceConv>,
    /// Counter values, file order.
    pub counters: Vec<(String, f64)>,
    /// Gauge values, file order.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, file order.
    pub hists: Vec<TraceHist>,
    /// Convergence records the writer dropped because its buffer was full
    /// (`conv_dropped` of the `meta` line; summed over merged traces).
    pub conv_dropped: u64,
    /// Span closes the writer dropped because its span store was full
    /// (`spans_dropped` of the `meta` line; summed over merged traces).
    pub spans_dropped: u64,
    /// Lines that failed to parse and were skipped (e.g. a line truncated
    /// by a crashed writer). Recovery, not silence: consumers surface it.
    pub skipped_lines: usize,
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        _ => f64::NAN,
    }
}

fn num_or(v: &Value, key: &str, default: f64) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        _ => default,
    }
}

impl Trace {
    /// Parses a JSONL trace. Unparsable lines (a tail truncated mid-write,
    /// an interleaved diagnostic) are skipped and counted in
    /// [`Trace::skipped_lines`]; the parse only fails when *no* line of a
    /// non-empty input is a valid trace event.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        let mut parsed_any = false;
        let mut saw_content = false;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            saw_content = true;
            let value = match json::parse(line) {
                Ok(v) => v,
                Err(_) => {
                    trace.skipped_lines += 1;
                    continue;
                }
            };
            parsed_any = true;
            match value.get("type").and_then(Value::as_str) {
                Some("span") => trace.spans.push(TraceSpan {
                    id: num_or(&value, "id", 0.0) as u64,
                    parent: num_or(&value, "parent", 0.0) as u64,
                    name: value
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    start_us: num_or(&value, "start_us", 0.0) as u64,
                    dur_us: num_or(&value, "dur_us", 0.0) as u64,
                    meta: match &value {
                        Value::Obj(fields) => fields
                            .iter()
                            .filter(|(k, _)| {
                                !matches!(
                                    k.as_str(),
                                    "type" | "id" | "parent" | "name" | "start_us" | "dur_us"
                                )
                            })
                            .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                            .collect(),
                        _ => Vec::new(),
                    },
                }),
                Some("conv") => trace.conv.push(TraceConv {
                    span: num_or(&value, "span", 0.0) as u64,
                    t_us: num_or(&value, "t_us", 0.0) as u64,
                    iter: num_or(&value, "iter", 0.0) as u32,
                    l2: num(&value, "l2"),
                    step_norm: num(&value, "step_norm"),
                    epe: num_or(&value, "epe", -1.0) as i64,
                }),
                Some("counter") => trace.counters.push((
                    value
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    num_or(&value, "value", 0.0),
                )),
                Some("gauge") => trace.gauges.push((
                    value
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_owned(),
                    num(&value, "value"),
                )),
                Some("hist") => {
                    let mut bins = vec![0u64; HISTOGRAM_BINS];
                    if let Some(pairs) = value.get("bins").and_then(Value::as_array) {
                        for pair in pairs {
                            if let Some([b, c]) = pair.as_array().and_then(|p| p.get(0..2)) {
                                let b = b.as_f64().unwrap_or(0.0) as usize;
                                if b < HISTOGRAM_BINS {
                                    bins[b] = c.as_f64().unwrap_or(0.0) as u64;
                                }
                            }
                        }
                    }
                    trace.hists.push(TraceHist {
                        name: value
                            .get("name")
                            .and_then(Value::as_str)
                            .unwrap_or("?")
                            .to_owned(),
                        snapshot: HistogramSnapshot {
                            count: num_or(&value, "count", 0.0) as u64,
                            sum: num_or(&value, "sum", 0.0) as u64,
                            max: num_or(&value, "max", 0.0) as u64,
                            bins,
                        },
                    });
                }
                Some("meta") => {
                    trace.conv_dropped += num_or(&value, "conv_dropped", 0.0) as u64;
                    trace.spans_dropped += num_or(&value, "spans_dropped", 0.0) as u64;
                }
                // any future line types pass through silently: the reader
                // is forward-compatible by construction
                _ => {}
            }
        }
        if saw_content && !parsed_any {
            return Err(format!(
                "no parseable trace lines ({} skipped)",
                trace.skipped_lines
            ));
        }
        Ok(trace)
    }

    /// Reads and parses a trace file.
    pub fn load(path: &Path) -> Result<Trace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Trace::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Merges another trace into this one (for multi-file summaries).
    /// Span ids of `other` are re-offset past this trace's maximum so
    /// parent links stay unambiguous; root parents (0) stay 0.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.iter().map(|s| s.id).max().unwrap_or(0);
        for mut s in other.spans {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            self.spans.push(s);
        }
        for mut c in other.conv {
            if c.span != 0 {
                c.span += offset;
            }
            self.conv.push(c);
        }
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.hists.extend(other.hists);
        self.conv_dropped += other.conv_dropped;
        self.spans_dropped += other.spans_dropped;
        self.skipped_lines += other.skipped_lines;
    }

    /// Name path of each span (root-first), resolved through parent links.
    fn paths(&self) -> Vec<Vec<String>> {
        let by_id: HashMap<u64, &TraceSpan> = self.spans.iter().map(|s| (s.id, s)).collect();
        self.spans
            .iter()
            .map(|s| {
                let mut path = vec![s.name.clone()];
                let mut parent = s.parent;
                let mut guard = 0;
                while parent != 0 && guard < 64 {
                    guard += 1;
                    match by_id.get(&parent) {
                        Some(p) => {
                            path.push(p.name.clone());
                            parent = p.parent;
                        }
                        None => break,
                    }
                }
                path.reverse();
                path
            })
            .collect()
    }

    /// Aggregates spans by name path into rollup rows, ordered for
    /// rendering: depth-first, siblings by total time descending.
    ///
    /// `self_us` is the aggregate's total minus its child aggregates'
    /// totals (clamped at 0 — overlapping adopted-parent spans from pool
    /// workers can legitimately sum past their parent's wall time).
    pub fn rollup(&self) -> Vec<RollupRow> {
        let mut index: HashMap<Vec<String>, usize> = HashMap::new();
        let mut rows: Vec<RollupRow> = Vec::new();
        for (span, path) in self.spans.iter().zip(self.paths()) {
            // materialize ancestor aggregates so orphaned prefixes render
            for depth in 1..=path.len() {
                let prefix = path[..depth].to_vec();
                index.entry(prefix.clone()).or_insert_with(|| {
                    rows.push(RollupRow {
                        path: prefix,
                        calls: 0,
                        total_us: 0,
                        self_us: 0,
                        min_us: u64::MAX,
                        max_us: 0,
                    });
                    rows.len() - 1
                });
            }
            let row = &mut rows[index[&path]];
            row.calls += 1;
            row.total_us += span.dur_us;
            row.min_us = row.min_us.min(span.dur_us);
            row.max_us = row.max_us.max(span.dur_us);
        }
        for row in &mut rows {
            if row.calls == 0 {
                row.min_us = 0;
            }
        }
        // self time: total minus direct-child totals
        let child_totals: Vec<(usize, u64)> = rows
            .iter()
            .filter(|r| r.path.len() > 1)
            .map(|r| (index[&r.path[..r.path.len() - 1]], r.total_us))
            .collect();
        for row in &mut rows {
            row.self_us = row.total_us;
        }
        for (parent, child_total) in child_totals {
            rows[parent].self_us = rows[parent].self_us.saturating_sub(child_total);
        }
        // depth-first render order, siblings by total descending
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (&rows[a].path, &rows[b].path);
            let common = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
            if common == pa.len().min(pb.len()) {
                return pa.len().cmp(&pb.len()); // ancestor before descendant
            }
            // compare the subtrees diverging at `common` by total time
            let total_at = |path: &[String]| {
                let prefix = path[..=common].to_vec();
                index.get(&prefix).map_or(0, |&i| rows[i].total_us)
            };
            total_at(pb)
                .cmp(&total_at(pa))
                .then_with(|| pa[common].cmp(&pb[common]))
        });
        order.into_iter().map(|i| rows[i].clone()).collect()
    }

    /// One summary per distinct convergence-recording span: the L2
    /// trajectory collapsed to first/last/min and iteration count.
    pub fn conv_summaries(&self) -> Vec<ConvSummary> {
        let names: HashMap<u64, &str> =
            self.spans.iter().map(|s| (s.id, s.name.as_str())).collect();
        let mut order: Vec<u64> = Vec::new();
        let mut by_span: HashMap<u64, ConvSummary> = HashMap::new();
        for c in &self.conv {
            let entry = by_span.entry(c.span).or_insert_with(|| {
                order.push(c.span);
                ConvSummary {
                    span: c.span,
                    span_name: names.get(&c.span).unwrap_or(&"?").to_string(),
                    rows: 0,
                    iters: 0,
                    first_l2: f64::NAN,
                    last_l2: f64::NAN,
                    min_l2: f64::INFINITY,
                }
            });
            entry.rows += 1;
            entry.iters = entry.iters.max(c.iter + 1);
            if c.l2.is_finite() {
                if !entry.first_l2.is_finite() {
                    entry.first_l2 = c.l2;
                }
                entry.last_l2 = c.l2;
                entry.min_l2 = entry.min_l2.min(c.l2);
            }
        }
        order
            .into_iter()
            .filter_map(|s| by_span.remove(&s))
            .collect()
    }

    /// Cross-checks timing-bucket metadata against span durations: every
    /// `flow.run` span's `FlowTiming` buckets (`sel_us` + `opt_us`) and
    /// every `chip.run` span's `ChipTiming` buckets (`setup_us` +
    /// `tiles_us` + `stitch_us`) must reconcile with the span's own
    /// duration within `tolerance`, a fraction — CI uses 0.01. Returns the
    /// number of spans checked; it is an error if no span of either kind
    /// carries the timing metadata, so the check cannot silently pass on
    /// an instrumentation regression.
    pub fn reconcile_flow_timing(&self, tolerance: f64) -> Result<usize, String> {
        let mut checked = 0usize;
        for span in &self.spans {
            let bucketed = match span.name.as_str() {
                "flow.run" => {
                    let (Some(sel), Some(opt)) = (span.meta_get("sel_us"), span.meta_get("opt_us"))
                    else {
                        continue;
                    };
                    sel + opt
                }
                "chip.run" => {
                    let (Some(setup), Some(tiles), Some(stitch)) = (
                        span.meta_get("setup_us"),
                        span.meta_get("tiles_us"),
                        span.meta_get("stitch_us"),
                    ) else {
                        continue;
                    };
                    setup + tiles + stitch
                }
                _ => continue,
            };
            checked += 1;
            let dur = span.dur_us as f64;
            // floor the slack at 1 ms so microsecond-scale smoke runs don't
            // fail on scheduler jitter
            let slack = (dur * tolerance).max(1_000.0);
            if (bucketed - dur).abs() > slack {
                return Err(format!(
                    "{} span {}: timing buckets {bucketed:.0}µs vs span {dur:.0}µs \
                     (allowed slack {slack:.0}µs)",
                    span.name, span.id
                ));
            }
        }
        if checked == 0 {
            return Err(
                "no flow.run span carries sel_us/opt_us and no chip.run span carries \
                 setup_us/tiles_us/stitch_us timing metadata"
                    .into(),
            );
        }
        Ok(checked)
    }

    /// The [`Trace::rollup`] rows ordered by self time, largest first
    /// (ties by path): where the traced wall time went, per span path.
    pub fn hotspots(&self) -> Vec<RollupRow> {
        let mut rows = self.rollup();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.path.cmp(&b.path)));
        rows
    }

    /// Collapsed-stack output: one `path;to;leaf SELF_US` line per span
    /// path with nonzero self time, in [`Trace::hotspots`] order — the
    /// format standard flamegraph tooling consumes, weighted in
    /// microseconds. Identical paths from merged traces are one line.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for row in self.hotspots().iter().filter(|r| r.self_us > 0) {
            let _ = writeln!(out, "{} {}", row.path.join(";"), row.self_us);
        }
        out
    }
}

/// One aggregated span-tree row (see [`Trace::rollup`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RollupRow {
    /// Root-first chain of span names identifying the aggregate.
    pub path: Vec<String>,
    /// Number of span instances aggregated.
    pub calls: u64,
    /// Summed wall-clock time.
    pub total_us: u64,
    /// Total minus direct-child aggregate totals (clamped at 0).
    pub self_us: u64,
    /// Shortest single instance.
    pub min_us: u64,
    /// Longest single instance.
    pub max_us: u64,
}

/// One collapsed ILT convergence trajectory (see
/// [`Trace::conv_summaries`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvSummary {
    /// Recording span id (0 = rows recorded outside any span).
    pub span: u64,
    /// Name of the recording span (`?` when the span is not in the trace).
    pub span_name: String,
    /// Convergence rows recorded under this span.
    pub rows: usize,
    /// Iterations covered (max iteration index + 1).
    pub iters: u32,
    /// First finite L2 value.
    pub first_l2: f64,
    /// Last finite L2 value.
    pub last_l2: f64,
    /// Smallest finite L2 value.
    pub min_l2: f64,
}

/// One span-aggregate comparison between two traces (see [`diff`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Root-first chain of span names identifying the aggregate.
    pub path: Vec<String>,
    /// Total time in the old trace (0 when the aggregate is new).
    pub old_total_us: u64,
    /// Total time in the new trace (0 when the aggregate vanished).
    pub new_total_us: u64,
    /// Calls in the old trace.
    pub old_calls: u64,
    /// Calls in the new trace.
    pub new_calls: u64,
    /// `new_total / old_total` (infinite for new aggregates).
    pub ratio: f64,
    /// Whether this row exceeds the regression threshold.
    pub regressed: bool,
}

/// Minimum absolute growth for a rollup aggregate to count as a
/// regression: ratio thresholds alone would flag microsecond-scale spans
/// on scheduler noise.
pub const DIFF_MIN_GROWTH_US: u64 = 5_000;

/// Compares the span rollups of two traces. A row regresses when its
/// total grew beyond `threshold` (a ratio, e.g. 1.5 = +50%) *and* by at
/// least [`DIFF_MIN_GROWTH_US`] in absolute terms. Rows are ordered by
/// the new trace's rollup order, with vanished aggregates appended.
pub fn diff(old: &Trace, new: &Trace, threshold: f64) -> Vec<DiffRow> {
    let old_rows = old.rollup();
    let new_rows = new.rollup();
    let old_by_path: HashMap<&[String], &RollupRow> =
        old_rows.iter().map(|r| (r.path.as_slice(), r)).collect();
    let mut rows: Vec<DiffRow> = Vec::new();
    for nr in &new_rows {
        let or = old_by_path.get(nr.path.as_slice());
        let (old_total, old_calls) = or.map_or((0, 0), |r| (r.total_us, r.calls));
        let ratio = if old_total == 0 {
            f64::INFINITY
        } else {
            nr.total_us as f64 / old_total as f64
        };
        rows.push(DiffRow {
            path: nr.path.clone(),
            old_total_us: old_total,
            new_total_us: nr.total_us,
            old_calls,
            new_calls: nr.calls,
            ratio,
            regressed: old_total > 0
                && ratio > threshold
                && nr.total_us.saturating_sub(old_total) >= DIFF_MIN_GROWTH_US,
        });
    }
    let new_paths: std::collections::HashSet<&[String]> =
        new_rows.iter().map(|r| r.path.as_slice()).collect();
    for or in old_rows
        .iter()
        .filter(|r| !new_paths.contains(r.path.as_slice()))
    {
        rows.push(DiffRow {
            path: or.path.clone(),
            old_total_us: or.total_us,
            new_total_us: 0,
            old_calls: or.calls,
            new_calls: 0,
            ratio: 0.0,
            regressed: false,
        });
    }
    rows
}

fn fmt_us(us: u64) -> String {
    let secs = us as f64 / 1e6;
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Renders the human-readable summary of one (possibly merged) trace:
/// span rollups with self time, histogram percentiles, convergence
/// summaries with the dropped-record count, counters, and the
/// skipped-line recovery note. The end-of-run summary
/// ([`crate::summary`]) is this function applied to the trace just
/// written.
pub fn render_summary(trace: &Trace) -> String {
    let mut out = String::new();
    if trace.skipped_lines > 0 {
        let _ = writeln!(
            out,
            "note: {} unparsable line(s) skipped (truncated trace?)",
            trace.skipped_lines
        );
    }
    let rollup = trace.rollup();
    if !rollup.is_empty() {
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
            "span", "calls", "total", "self", "min", "max"
        );
        for row in &rollup {
            let depth = row.path.len() - 1;
            let name = format!(
                "{}{}",
                "  ".repeat(depth),
                row.path.last().map(String::as_str).unwrap_or("?")
            );
            let _ = writeln!(
                out,
                "{name:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
                row.calls,
                fmt_us(row.total_us),
                fmt_us(row.self_us),
                fmt_us(row.min_us),
                fmt_us(row.max_us)
            );
        }
    }
    if trace.spans_dropped > 0 {
        let _ = writeln!(
            out,
            "spans: {} recorded ({} dropped)",
            trace.spans.len(),
            trace.spans_dropped
        );
    }
    if !trace.hists.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<36} {:>9} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "n", "p50", "p90", "p99", "max"
        );
        for h in &trace.hists {
            let s = &h.snapshot;
            let _ = writeln!(
                out,
                "{:<36} {:>9} {:>10.0} {:>10.0} {:>10.0} {:>10}",
                h.name,
                s.count,
                s.percentile(0.50),
                s.percentile(0.90),
                s.percentile(0.99),
                s.max
            );
        }
    }
    let conv = trace.conv_summaries();
    if !conv.is_empty() || trace.conv_dropped > 0 {
        let finite: Vec<&ConvSummary> = conv.iter().filter(|c| c.first_l2.is_finite()).collect();
        let improved = finite.iter().filter(|c| c.last_l2 < c.first_l2).count();
        let _ = writeln!(
            out,
            "\nconvergence: {} runs, {} rows ({} dropped); {} of {} runs reduced L2",
            conv.len(),
            conv.iter().map(|c| c.rows).sum::<usize>(),
            trace.conv_dropped,
            improved,
            finite.len()
        );
        for c in conv.iter().take(8) {
            let _ = writeln!(
                out,
                "  span {:>5} ({:<16}) {:>3} iters  L2 {:>10.1} -> {:>10.1} (min {:.1})",
                c.span, c.span_name, c.iters, c.first_l2, c.last_l2, c.min_l2
            );
        }
        if conv.len() > 8 {
            let _ = writeln!(out, "  … and {} more runs", conv.len() - 8);
        }
    }
    if !trace.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for (name, value) in &trace.counters {
            let _ = writeln!(out, "  {name:<36} {value:>12.0}");
        }
    }
    if !trace.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, value) in &trace.gauges {
            let _ = writeln!(out, "  {name:<36} {value:>12.4}");
        }
    }
    out
}

/// Renders a [`diff`] result; regressions are prefixed with `!`.
/// `max_rows` bounds the unchanged-row spam (regressed rows always
/// render).
pub fn render_diff(rows: &[DiffRow], max_rows: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>10} {:>8} {:>13}",
        "span", "old", "new", "ratio", "calls"
    );
    let mut shown = 0usize;
    for row in rows {
        if !row.regressed {
            shown += 1;
            if shown > max_rows {
                continue;
            }
        }
        let depth = row.path.len() - 1;
        let name = format!(
            "{}{}{}",
            if row.regressed { "! " } else { "  " },
            "  ".repeat(depth),
            row.path.last().map(String::as_str).unwrap_or("?")
        );
        let ratio = if row.ratio.is_finite() {
            format!("{:.2}x", row.ratio)
        } else {
            "new".to_owned()
        };
        let _ = writeln!(
            out,
            "{name:<44} {:>10} {:>10} {:>8} {:>6}->{:<6}",
            fmt_us(row.old_total_us),
            fmt_us(row.new_total_us),
            ratio,
            row.old_calls,
            row.new_calls
        );
    }
    if shown > max_rows {
        let _ = writeln!(out, "  … {} unchanged rows elided", shown - max_rows);
    }
    let regressions = rows.iter().filter(|r| r.regressed).count();
    let _ = writeln!(
        out,
        "{regressions} regression(s) beyond threshold ({} aggregates compared)",
        rows.len()
    );
    out
}

/// Renders the hotspot table of `ldmo trace flame`: the span paths of
/// [`Trace::hotspots`] with their self and total time, each also as a
/// share of the trace's summed self time, and their call counts.
/// `max_rows` bounds the table.
pub fn render_flame(trace: &Trace, max_rows: usize) -> String {
    let rows = trace.hotspots();
    let mut out = String::new();
    if rows.is_empty() {
        let _ = writeln!(out, "no spans in trace");
        return out;
    }
    let all_self: u64 = rows.iter().map(|r| r.self_us).sum();
    let pct = |us: u64| 100.0 * us as f64 / all_self.max(1) as f64;
    let _ = writeln!(
        out,
        "{:>10} {:>7} {:>10} {:>7} {:>7}  span path",
        "self", "self%", "total", "total%", "calls"
    );
    for row in rows.iter().take(max_rows) {
        let _ = writeln!(
            out,
            "{:>10} {:>6.1}% {:>10} {:>6.1}% {:>7}  {}",
            fmt_us(row.self_us),
            pct(row.self_us),
            fmt_us(row.total_us),
            pct(row.total_us),
            row.calls,
            row.path.join(";")
        );
    }
    if rows.len() > max_rows {
        let _ = writeln!(out, "  … and {} more span paths", rows.len() - max_rows);
    }
    let _ = writeln!(
        out,
        "{} span path(s), {} self time in all",
        rows.len(),
        fmt_us(all_self)
    );
    out
}
