//! The span store is bounded: a collector that nothing drains (a daemon
//! that enables it only for `/metrics`) keeps at most a fixed number of
//! span events — the newest — and counts the closes it evicted in the
//! trace's `meta` line. Its own test binary, because the collector is
//! process-global.

use ldmo_obs as obs;
use ldmo_obs::analyze::Trace;

#[test]
fn spans_past_the_cap_are_dropped_and_counted() {
    const CLOSED: usize = 100_000;
    obs::reset();
    obs::enable();
    let mut last_closed = 0;
    for _ in 0..CLOSED {
        last_closed = obs::span("cap.span").id();
    }
    let events = obs::events_snapshot();
    let kept = events.len();
    assert!(kept < CLOSED, "all {CLOSED} span events were kept");
    let dropped = (CLOSED - kept) as u64;
    // the store keeps the newest closes, oldest first
    assert_eq!(events.last().map(|e| e.id), Some(last_closed));
    assert_eq!(events[0].id, last_closed + 1 - kept as u64);

    let mut jsonl = Vec::new();
    obs::write_jsonl(&mut jsonl).expect("write to memory");
    let text = String::from_utf8(jsonl).expect("utf-8 trace");
    let meta = obs::json::parse(text.lines().next().expect("meta line")).expect("meta JSON");
    assert_eq!(
        meta.get("spans_dropped").and_then(obs::json::Value::as_f64),
        Some(dropped as f64)
    );
    let trace = Trace::parse(&text).expect("trace parses");
    assert_eq!(trace.spans_dropped, dropped);
    assert_eq!(trace.spans.len(), kept);
    assert!(obs::analyze::render_summary(&trace).contains(&format!("({dropped} dropped)")));

    // reset() clears the dropped count with the store
    obs::reset();
    let mut jsonl = Vec::new();
    obs::write_jsonl(&mut jsonl).expect("write to memory");
    let text = String::from_utf8(jsonl).expect("utf-8 trace");
    assert_eq!(Trace::parse(&text).expect("trace parses").spans_dropped, 0);
}
