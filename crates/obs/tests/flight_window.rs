//! The flight dump is a window onto the collector: the newest
//! `DEFAULT_CAPACITY` span closes and convergence rows, metadata
//! included, and nothing before the collector is enabled. Its own test
//! binary, because the collector and `LDMO_FLIGHT_DIR` are process-global.

use ldmo_obs as obs;
use ldmo_obs::analyze::Trace;
use ldmo_obs::flight::DEFAULT_CAPACITY;

#[test]
fn dump_holds_the_newest_window_with_span_metadata() {
    let dir = std::env::temp_dir().join(format!("ldmo_flight_window_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("LDMO_FLIGHT_DIR", &dir);

    // an untraced process leaves no dump
    assert!(obs::flight::dump("before-enable").is_none());
    assert!(
        !dir.exists(),
        "a disabled collector wrote {}",
        dir.display()
    );

    obs::enable();
    obs::set_run_info("backend", "scalar");
    let closes = DEFAULT_CAPACITY + 100;
    let mut ids = Vec::with_capacity(closes);
    for i in 0..closes {
        let mut span = obs::span("flight.filler");
        span.set("index", i as f64);
        ids.push(span.id());
    }
    let host_id = {
        let host = obs::span("flight.conv_host");
        for i in 0..8 {
            obs::convergence(i, 100.0 - f64::from(i), f64::NAN, -1);
        }
        host.id()
    };

    let mut dump = Vec::new();
    let lines = obs::flight::dump_to(&mut dump, "test-reason").expect("dump to memory");
    assert_eq!(
        lines,
        1 + DEFAULT_CAPACITY + 8,
        "header + span window + rows"
    );
    let dump = String::from_utf8(dump).expect("utf-8 dump");
    let header = dump.lines().next().expect("header line");
    for needle in [
        "\"type\":\"meta\"".to_owned(),
        "\"kind\":\"flight\"".into(),
        "\"reason\":\"test-reason\"".into(),
        format!("\"capacity\":{DEFAULT_CAPACITY}"),
        format!("\"recorded\":{}", closes + 1 + 8),
        format!("\"events\":{}", DEFAULT_CAPACITY + 8),
        "\"backend\":\"scalar\"".into(),
        format!("\"pid\":{}", std::process::id()),
    ] {
        assert!(
            header.contains(&needle),
            "header missing {needle}: {header}"
        );
    }

    let trace = Trace::parse(&dump).expect("dump parses as a trace");
    assert_eq!(trace.skipped_lines, 0);
    // the newest closes in close order: the last fillers, then the host
    let (host, fillers) = trace.spans.split_last().expect("spans");
    assert_eq!((host.id, host.name.as_str()), (host_id, "flight.conv_host"));
    let kept: Vec<u64> = fillers.iter().map(|s| s.id).collect();
    assert_eq!(kept, ids[closes + 1 - DEFAULT_CAPACITY..]);
    for span in fillers {
        let index = ids.iter().position(|&id| id == span.id).expect("a filler");
        assert_eq!(
            span.meta_get("index"),
            Some(index as f64),
            "span {}",
            span.id
        );
    }
    let rows: Vec<(u64, u32)> = trace.conv.iter().map(|c| (c.span, c.iter)).collect();
    assert_eq!(rows, (0..8).map(|i| (host_id, i)).collect::<Vec<_>>());

    // the crash path writes the same window to flight_<pid>.jsonl
    let path = obs::flight::dump("test-reason").expect("dump written");
    assert_eq!(path, obs::flight::dump_path());
    let written = Trace::load(&path).expect("dump loads");
    assert_eq!(written.skipped_lines, 0);
    assert_eq!(written.spans, trace.spans);
    let _ = std::fs::remove_dir_all(&dir);
}
