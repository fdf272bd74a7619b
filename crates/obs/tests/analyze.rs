//! Tests for the trace read side: JSON parser edge cases, log2-histogram
//! percentile reconstruction bounds, and the `analyze` rollup/diff/
//! reconcile machinery that `ldmo trace` is built on.

use ldmo_obs::analyze::{
    diff, render_diff, render_flame, render_summary, Trace, DIFF_MIN_GROWTH_US,
};
use ldmo_obs::json::{self, Value};
use ldmo_obs::{HistogramSnapshot, HISTOGRAM_BINS};

// ---------------------------------------------------------------- json

#[test]
fn json_escaped_strings_round_trip() {
    for original in [
        "plain",
        "quote\"backslash\\slash/",
        "newline\n tab\t return\r",
        "control\u{1} bell\u{7}",
        "unicode: µs → spän",
        "",
    ] {
        let encoded = format!("\"{}\"", json::escape(original));
        let parsed = json::parse(&encoded).expect("escaped string parses");
        assert_eq!(
            parsed.as_str(),
            Some(original),
            "round trip through escape/parse for {original:?}"
        );
    }
}

#[test]
fn json_deep_nesting_parses() {
    const DEPTH: usize = 200;
    let text = format!("{}42{}", "[".repeat(DEPTH), "]".repeat(DEPTH));
    let mut value = &json::parse(&text).expect("deep array parses");
    for _ in 0..DEPTH {
        value = &value.as_array().expect("array level")[0];
    }
    assert_eq!(value.as_f64(), Some(42.0));

    let object = format!("{}1{}", "{\"k\":".repeat(DEPTH), "}".repeat(DEPTH));
    let mut value = &json::parse(&object).expect("deep object parses");
    for _ in 0..DEPTH - 1 {
        value = value.get("k").expect("object level");
    }
    assert_eq!(value.get("k").and_then(Value::as_f64), Some(1.0));
}

#[test]
fn json_non_finite_numbers_become_null_and_round_trip() {
    assert_eq!(json::number(f64::NAN), "null");
    assert_eq!(json::number(f64::INFINITY), "null");
    assert_eq!(json::number(f64::NEG_INFINITY), "null");
    let line = format!("{{\"value\":{}}}", json::number(f64::NAN));
    let parsed = json::parse(&line).expect("null-value object parses");
    assert_eq!(parsed.get("value"), Some(&Value::Null));
}

#[test]
fn trace_parse_recovers_from_truncated_tail() {
    let text = concat!(
        "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"a\",\"start_us\":0,\"dur_us\":10}\n",
        "{\"type\":\"counter\",\"name\":\"c\",\"value\":3}\n",
        // a writer killed mid-line leaves an unterminated object
        "{\"type\":\"span\",\"id\":2,\"parent\":1,\"na"
    );
    let trace = Trace::parse(text).expect("truncated trace still parses");
    assert_eq!(trace.spans.len(), 1);
    assert_eq!(trace.counters, vec![("c".to_owned(), 3.0)]);
    assert_eq!(trace.skipped_lines, 1);
    assert!(
        render_summary(&trace).contains("1 unparsable line"),
        "recovery must be surfaced, not silent"
    );
}

#[test]
fn trace_parse_rejects_fully_unparsable_input() {
    assert!(Trace::parse("not json at all\nstill not\n").is_err());
    // but an empty file is a valid (empty) trace
    let empty = Trace::parse("").expect("empty input is an empty trace");
    assert_eq!(empty.spans.len(), 0);
}

#[test]
fn trace_parse_ignores_unknown_line_types() {
    let text = concat!(
        "{\"type\":\"meta\",\"version\":1}\n",
        "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"a\",\"start_us\":0,\"dur_us\":5}\n",
        "{\"type\":\"hologram\",\"name\":\"future\"}\n"
    );
    let trace = Trace::parse(text).expect("unknown types pass through");
    assert_eq!(trace.spans.len(), 1);
    assert_eq!(trace.skipped_lines, 0, "unknown type is not an error");
}

// --------------------------------------------------- percentiles

/// Mirrors the collector's bucketing: 0 → bucket 0, v → floor(log2 v) + 1.
fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let mut bins = vec![0u64; HISTOGRAM_BINS];
    let mut sum = 0u64;
    let mut max = 0u64;
    for &v in samples {
        let b = ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BINS - 1);
        bins[b] += 1;
        sum = sum.saturating_add(v);
        max = max.max(v);
    }
    HistogramSnapshot {
        count: samples.len() as u64,
        sum,
        max,
        bins,
    }
}

/// True percentile by sorting (1-based ceil rank, matching the
/// reconstruction's definition).
fn exact_percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

#[test]
fn percentiles_of_uniform_distribution_within_log2_bound() {
    let samples: Vec<u64> = (1..=1000).collect();
    let snap = snapshot_of(&samples);
    for q in [0.5, 0.9, 0.99] {
        let truth = exact_percentile(&samples, q) as f64;
        let approx = snap.percentile(q);
        assert!(
            approx >= truth / 2.0 && approx <= truth * 2.0,
            "p{q}: reconstructed {approx} vs exact {truth} exceeds the one-bucket (2x) bound"
        );
    }
}

#[test]
fn percentiles_of_lognormal_like_distribution_within_log2_bound() {
    // heavy-tailed: many small latencies, few huge ones (the par.* shape)
    let mut samples = Vec::new();
    for i in 0..900u64 {
        samples.push(50 + i % 90);
    }
    for i in 0..90u64 {
        samples.push(3_000 + i * 37);
    }
    for i in 0..10u64 {
        samples.push(700_000 + i * 1_001);
    }
    let snap = snapshot_of(&samples);
    for q in [0.10, 0.5, 0.9, 0.99, 1.0] {
        let truth = exact_percentile(&samples, q) as f64;
        let approx = snap.percentile(q);
        assert!(
            approx >= truth / 2.0 && approx <= truth * 2.0,
            "p{q}: reconstructed {approx} vs exact {truth} exceeds the one-bucket (2x) bound"
        );
    }
}

#[test]
fn percentiles_are_monotone_and_bounded_by_max() {
    let samples: Vec<u64> = (0..500).map(|i| (i * i) % 10_000).collect();
    let snap = snapshot_of(&samples);
    let mut last = 0.0f64;
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let p = snap.percentile(q);
        assert!(
            p >= last,
            "percentile must be monotone in q (p{q} = {p} < {last})"
        );
        assert!(p <= snap.max as f64, "p{q} = {p} exceeds max {}", snap.max);
        last = p;
    }
}

#[test]
fn percentile_of_zeros_and_point_mass() {
    let zeros = snapshot_of(&[0, 0, 0, 0]);
    assert_eq!(zeros.percentile(0.5), 0.0);
    assert_eq!(zeros.percentile(0.99), 0.0);

    let point = snapshot_of(&[700; 32]);
    for q in [0.01, 0.5, 0.99] {
        let p = point.percentile(q);
        assert!(
            (350.0..=700.0).contains(&p),
            "point mass at 700 reconstructs within its bucket, got {p}"
        );
    }

    let empty = snapshot_of(&[]);
    assert_eq!(empty.percentile(0.5), 0.0, "empty histogram yields 0");
}

#[test]
fn percentile_survives_last_bucket_saturation() {
    // u64::MAX lands in the saturating last bucket; hi is clamped to max
    let snap = snapshot_of(&[u64::MAX, u64::MAX]);
    let p = snap.percentile(0.99);
    assert!(p.is_finite());
    assert!(p <= u64::MAX as f64);
    assert!(p >= (1u128 << (HISTOGRAM_BINS - 2)) as f64);
}

// ------------------------------------------------------- analyze

fn span_line(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> String {
    format!(
        "{{\"type\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\
         \"start_us\":{start_us},\"dur_us\":{dur_us}}}\n"
    )
}

#[test]
fn rollup_aggregates_calls_and_self_time() {
    let mut text = String::new();
    text += &span_line(1, 0, "flow.run", 0, 1_000_000);
    text += &span_line(2, 1, "flow.rank", 0, 300_000);
    text += &span_line(3, 1, "flow.ilt", 300_000, 600_000);
    text += &span_line(4, 0, "flow.run", 2_000_000, 500_000);
    let trace = Trace::parse(&text).expect("parses");
    let rollup = trace.rollup();

    let root = rollup
        .iter()
        .find(|r| r.path == ["flow.run"])
        .expect("root aggregate");
    assert_eq!(root.calls, 2);
    assert_eq!(root.total_us, 1_500_000);
    // self = total − children = 1.5s − (0.3s + 0.6s)
    assert_eq!(root.self_us, 600_000);
    assert_eq!(root.min_us, 500_000);
    assert_eq!(root.max_us, 1_000_000);

    // leaf aggregates keep self == total
    let rank = rollup
        .iter()
        .find(|r| r.path == ["flow.run".to_owned(), "flow.rank".to_owned()])
        .expect("child aggregate");
    assert_eq!(rank.self_us, rank.total_us);

    // depth-first order: root first, then children by total descending
    assert_eq!(rollup[0].path, ["flow.run"]);
    assert_eq!(rollup[1].path.last().unwrap(), "flow.ilt");
    assert_eq!(rollup[2].path.last().unwrap(), "flow.rank");
}

#[test]
fn merge_re_offsets_span_ids() {
    let a = Trace::parse(&span_line(1, 0, "x", 0, 10)).expect("a");
    let b = Trace::parse(&(span_line(1, 0, "y", 0, 20) + &span_line(2, 1, "z", 0, 5))).expect("b");
    let mut merged = a;
    merged.merge(b);
    assert_eq!(merged.spans.len(), 3);
    let ids: Vec<u64> = merged.spans.iter().map(|s| s.id).collect();
    assert_eq!(
        ids.len(),
        ids.iter().collect::<std::collections::HashSet<_>>().len()
    );
    // z's parent must still resolve to y after the offset
    let z = merged.spans.iter().find(|s| s.name == "z").unwrap();
    let y = merged.spans.iter().find(|s| s.name == "y").unwrap();
    assert_eq!(z.parent, y.id);
}

/// A root with two children, one of which has a child: self times 200,
/// 300, 50 and 450 µs.
fn flame_trace() -> Trace {
    let mut text = String::new();
    text += &span_line(1, 0, "flow.run", 0, 1_000);
    text += &span_line(2, 1, "flow.rank", 0, 300);
    text += &span_line(3, 1, "flow.ilt", 300, 500);
    text += &span_line(4, 3, "ilt.step", 300, 450);
    Trace::parse(&text).expect("parses")
}

#[test]
fn flame_folds_and_ranks_span_paths_by_rollup_self_time() {
    let trace = flame_trace();
    let folded = trace.folded();
    assert_eq!(
        folded,
        "flow.run;flow.ilt;ilt.step 450\n\
         flow.run;flow.rank 300\n\
         flow.run 200\n\
         flow.run;flow.ilt 50\n"
    );
    // every folded weight is the rollup's self time of that path
    let rollup = trace.rollup();
    for line in folded.lines() {
        let (path, self_us) = line.rsplit_once(' ').expect("path and weight");
        let row = rollup
            .iter()
            .find(|r| r.path.join(";") == path)
            .expect("a rollup row");
        assert_eq!(self_us.parse::<u64>(), Ok(row.self_us), "{line}");
    }

    // the hotspot table lists the paths by self time, largest first
    let table = render_flame(&trace, 40);
    let paths: Vec<&str> = table
        .lines()
        .skip(1)
        .take(4)
        .map(|line| line.split_whitespace().last().expect("a path"))
        .collect();
    assert_eq!(
        paths,
        [
            "flow.run;flow.ilt;ilt.step",
            "flow.run;flow.rank",
            "flow.run",
            "flow.run;flow.ilt"
        ]
    );
    assert!(table.lines().nth(1).unwrap().contains("45.0%"), "{table}");
    assert!(
        table.ends_with("4 span path(s), 1.00ms self time in all\n"),
        "{table}"
    );

    // merged traces combine identical paths into one line
    let mut merged = flame_trace();
    merged.merge(flame_trace());
    assert_eq!(
        merged.folded(),
        "flow.run;flow.ilt;ilt.step 900\n\
         flow.run;flow.rank 600\n\
         flow.run 400\n\
         flow.run;flow.ilt 100\n"
    );
    assert_eq!(render_flame(&Trace::default(), 40), "no spans in trace\n");
}

#[test]
fn diff_flags_large_regressions_only() {
    let old = Trace::parse(&(span_line(1, 0, "big", 0, 100_000) + &span_line(2, 0, "tiny", 0, 10)))
        .expect("old");
    let new = Trace::parse(&(span_line(1, 0, "big", 0, 300_000) + &span_line(2, 0, "tiny", 0, 40)))
        .expect("new");
    let rows = diff(&old, &new, 1.5);

    let big = rows.iter().find(|r| r.path == ["big"]).unwrap();
    assert!(big.regressed, "3x growth on a 100ms span is a regression");
    assert!((big.ratio - 3.0).abs() < 1e-9);

    let tiny = rows.iter().find(|r| r.path == ["tiny"]).unwrap();
    assert!(
        !tiny.regressed,
        "4x on a 10µs span is below the {DIFF_MIN_GROWTH_US}µs absolute floor"
    );

    let rendered = render_diff(&rows, 40);
    assert!(rendered.contains("! big"));
    assert!(rendered.contains("1 regression(s)"));
}

#[test]
fn diff_handles_new_and_vanished_aggregates() {
    let old = Trace::parse(&span_line(1, 0, "gone", 0, 50_000)).expect("old");
    let new = Trace::parse(&span_line(1, 0, "fresh", 0, 80_000)).expect("new");
    let rows = diff(&old, &new, 1.5);
    let fresh = rows.iter().find(|r| r.path == ["fresh"]).unwrap();
    assert!(fresh.ratio.is_infinite());
    assert!(
        !fresh.regressed,
        "a new aggregate has no baseline to regress from"
    );
    let gone = rows.iter().find(|r| r.path == ["gone"]).unwrap();
    assert_eq!(gone.new_total_us, 0);
    assert_eq!(gone.new_calls, 0);
}

#[test]
fn conv_summaries_collapse_trajectories() {
    let text = concat!(
        "{\"type\":\"span\",\"id\":7,\"parent\":0,\"name\":\"ilt.run\",\"start_us\":0,\"dur_us\":100}\n",
        "{\"type\":\"conv\",\"span\":7,\"t_us\":1,\"iter\":0,\"l2\":100.0,\"step_norm\":1.0,\"epe\":5}\n",
        "{\"type\":\"conv\",\"span\":7,\"t_us\":2,\"iter\":1,\"l2\":null,\"step_norm\":null,\"epe\":-1}\n",
        "{\"type\":\"conv\",\"span\":7,\"t_us\":3,\"iter\":2,\"l2\":40.0,\"step_norm\":0.5,\"epe\":1}\n"
    );
    let trace = Trace::parse(text).expect("parses");
    let conv = trace.conv_summaries();
    assert_eq!(conv.len(), 1);
    let c = &conv[0];
    assert_eq!(c.span_name, "ilt.run");
    assert_eq!(c.rows, 3);
    assert_eq!(c.iters, 3);
    assert_eq!(c.first_l2, 100.0);
    assert_eq!(c.last_l2, 40.0);
    assert_eq!(c.min_l2, 40.0);
}

#[test]
fn reconcile_checks_flow_timing_meta() {
    let good = "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"flow.run\",\"start_us\":0,\"dur_us\":1000000,\"sel_us\":400000,\"opt_us\":599000}\n";
    let trace = Trace::parse(good).expect("parses");
    assert_eq!(trace.reconcile_flow_timing(0.01), Ok(1));

    let bad = "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"flow.run\",\"start_us\":0,\"dur_us\":1000000,\"sel_us\":100000,\"opt_us\":100000}\n";
    let trace = Trace::parse(bad).expect("parses");
    assert!(trace.reconcile_flow_timing(0.01).is_err());

    // a flow.run span without the meta must fail the check loudly
    let missing = span_line(1, 0, "flow.run", 0, 1_000_000);
    let trace = Trace::parse(&missing).expect("parses");
    assert!(trace.reconcile_flow_timing(0.01).is_err());
}

#[test]
fn reconcile_checks_chip_timing_meta() {
    // chip.run spans reconcile setup+tiles+stitch against the duration
    let good = "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"chip.run\",\"start_us\":0,\"dur_us\":1000000,\"setup_us\":100000,\"tiles_us\":800000,\"stitch_us\":99500}\n";
    let trace = Trace::parse(good).expect("parses");
    assert_eq!(trace.reconcile_flow_timing(0.01), Ok(1));

    let bad = "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"chip.run\",\"start_us\":0,\"dur_us\":1000000,\"setup_us\":100000,\"tiles_us\":100000,\"stitch_us\":100000}\n";
    let trace = Trace::parse(bad).expect("parses");
    assert!(trace.reconcile_flow_timing(0.01).is_err());

    // a chip trace with bucket-less chip.run spans must fail loudly
    let missing = span_line(1, 0, "chip.run", 0, 1_000_000);
    let trace = Trace::parse(&missing).expect("parses");
    assert!(trace.reconcile_flow_timing(0.01).is_err());

    // mixed traces: both kinds are counted
    let mixed = format!(
        "{}{}",
        "{\"type\":\"span\",\"id\":1,\"parent\":0,\"name\":\"flow.run\",\"start_us\":0,\"dur_us\":1000000,\"sel_us\":400000,\"opt_us\":599000}\n",
        "{\"type\":\"span\",\"id\":2,\"parent\":0,\"name\":\"chip.run\",\"start_us\":0,\"dur_us\":500000,\"setup_us\":50000,\"tiles_us\":400000,\"stitch_us\":49800}\n"
    );
    let trace = Trace::parse(&mixed).expect("parses");
    assert_eq!(trace.reconcile_flow_timing(0.01), Ok(2));
}

#[test]
fn hist_lines_round_trip_into_percentile_capable_snapshots() {
    ldmo_obs::reset();
    ldmo_obs::enable();
    let h = ldmo_obs::histogram("test.analyze_round_trip_us");
    for v in [0u64, 3, 100, 100, 5_000, 1_000_000] {
        h.record(v);
    }
    let mut buffer = Vec::new();
    ldmo_obs::write_jsonl(&mut buffer).expect("serializes");
    ldmo_obs::disable();
    let text = String::from_utf8(buffer).expect("utf8");
    let trace = Trace::parse(&text).expect("parses");
    let hist = trace
        .hists
        .iter()
        .find(|h| h.name == "test.analyze_round_trip_us")
        .expect("histogram survives the round trip");
    assert_eq!(hist.snapshot.count, 6);
    assert_eq!(hist.snapshot.max, 1_000_000);
    let p99 = hist.snapshot.percentile(0.99);
    assert!(
        (500_000.0..=1_000_000.0).contains(&p99),
        "p99 reconstructs the top sample's bucket, got {p99}"
    );
}
