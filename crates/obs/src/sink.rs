//! Sinks draining the collector: the JSONL event stream, and the
//! human-readable end-of-run summary rendered from it by [`crate::analyze`].

use crate::analyze::{self, Trace};
use crate::collector::{self, ConvergenceRecord, SpanEvent};
use crate::json;
use crate::snapshot::MetricsSnapshot;
use std::io::{self, Write};
use std::path::Path;

/// Writes the full trace as JSONL (one JSON object per line) to `w`.
/// Returns the number of lines written.
///
/// Line types (`"type"` field): `meta`, `span`, `conv`, `counter`,
/// `gauge`, `hist`. Span metadata fields are flattened into the span
/// object; non-finite numbers are emitted as `null`.
pub fn write_jsonl<W: Write>(w: &mut W) -> io::Result<usize> {
    let mut lines = 0usize;
    let spans = collector::events_snapshot();
    let records = collector::records_snapshot();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    writeln!(
        w,
        "{{\"type\":\"meta\",\"version\":1,\"written_unix_ms\":{unix_ms},\
         \"spans\":{},\"conv_records\":{},\"conv_dropped\":{},\"spans_dropped\":{}}}",
        spans.len(),
        records.len(),
        collector::dropped_records(),
        collector::dropped_spans()
    )?;
    lines += 1;

    let mut ordered = spans;
    ordered.sort_by_key(|s| (s.start_us, s.id));
    for s in &ordered {
        write_span(w, s)?;
        lines += 1;
    }
    for r in &records {
        write_conv(w, r)?;
        lines += 1;
    }

    let metrics = MetricsSnapshot::take();
    for (name, value) in metrics.counters {
        writeln!(
            w,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name)
        )?;
        lines += 1;
    }
    for (name, value) in metrics.gauges {
        writeln!(
            w,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json::escape(name),
            json::number(value)
        )?;
        lines += 1;
    }
    for (name, h) in metrics.hists {
        // sparse bucket encoding: [[bucket, count], ...]
        let bins: Vec<String> = h
            .bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| format!("[{b},{c}]"))
            .collect();
        writeln!(
            w,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
             \"max\":{},\"bins\":[{}]}}",
            json::escape(name),
            h.count,
            h.sum,
            h.max,
            bins.join(",")
        )?;
        lines += 1;
    }
    Ok(lines)
}

/// Writes one `span` line; metadata fields are flattened into the object.
/// Shared with the flight dump, so one writer owns the line schema.
pub(crate) fn write_span<W: Write>(w: &mut W, s: &SpanEvent) -> io::Result<()> {
    let mut line = format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\
         \"start_us\":{},\"dur_us\":{}",
        s.id,
        s.parent,
        json::escape(s.name),
        s.start_us,
        s.dur_us
    );
    for (key, value) in s.meta.iter().flatten() {
        line.push_str(&format!(
            ",\"{}\":{}",
            json::escape(key),
            json::number(*value)
        ));
    }
    line.push('}');
    writeln!(w, "{line}")
}

/// Writes one `conv` line (shared with the flight dump, like [`write_span`]).
pub(crate) fn write_conv<W: Write>(w: &mut W, r: &ConvergenceRecord) -> io::Result<()> {
    writeln!(
        w,
        "{{\"type\":\"conv\",\"span\":{},\"t_us\":{},\"iter\":{},\
         \"l2\":{},\"step_norm\":{},\"epe\":{}}}",
        r.span,
        r.t_us,
        r.iteration,
        json::number(r.l2),
        json::number(r.step_norm),
        r.epe_violations
    )
}

/// Writes the JSONL trace to `path` (created or truncated). The special
/// path `-` streams to stdout instead — which is why every binary keeps
/// its diagnostics on stderr, so `--trace-out - | jq` sees clean JSON.
/// Returns the number of lines written.
pub fn flush_jsonl(path: &Path) -> io::Result<usize> {
    if path.as_os_str() == "-" {
        let stdout = io::stdout();
        let mut lock = stdout.lock();
        let lines = write_jsonl(&mut lock)?;
        lock.flush()?;
        return Ok(lines);
    }
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    let lines = write_jsonl(&mut file)?;
    file.flush()?;
    Ok(lines)
}

/// Renders the human-readable end-of-run summary: [`analyze::render_summary`]
/// of the trace [`write_jsonl`] writes, so it equals `ldmo trace summarize`
/// of the file just flushed. Empty string when nothing was recorded.
pub fn summary() -> String {
    let mut jsonl = Vec::new();
    write_jsonl(&mut jsonl).expect("writing to memory cannot fail");
    Trace::parse(&String::from_utf8_lossy(&jsonl))
        .map(|trace| analyze::render_summary(&trace))
        .unwrap_or_default()
}
