//! Flight recorder: the newest span closes and convergence rows of the
//! collector, written as analyzable JSONL when a run dies (panic, typed
//! error exit, divergence-rollback exhaustion) and served live as
//! `/spans`.
//!
//! The collector's span store and convergence buffer are the only record
//! of spans and rows; a dump is a window onto them, so it carries each
//! span's metadata exactly as the trace does. A dump needs an enabled
//! collector: an untraced run records nothing and leaves no dump. The
//! schema is documented in DESIGN.md §14.

use crate::collector;
use crate::json;
use crate::sink;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The window a dump holds: the newest this many span closes and the
/// newest this many convergence rows. At ILT scale — one convergence row
/// per iteration plus a handful of span closes per flow stage — that
/// covers the last several full flow runs, which is what a post-mortem
/// needs.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Writes the window as JSONL: one `meta` header line (reason, pid,
/// window capacity, span closes and rows recorded since the last
/// [`crate::reset`], lines that follow, the build's [`crate::git_rev`],
/// plus every [`crate::set_run_info`] entry — threads / backend in the
/// standard binaries), then the window's `span` lines in close order and
/// its `conv` lines in record order, parseable by `Trace::parse` and
/// therefore by `ldmo trace summarize`. Returns the number of lines
/// written.
pub fn dump_to<W: Write>(w: &mut W, reason: &str) -> io::Result<usize> {
    let (spans, closed) = collector::newest_spans(DEFAULT_CAPACITY);
    let (rows, recorded) = collector::newest_records(DEFAULT_CAPACITY);
    let mut header = format!(
        "{{\"type\":\"meta\",\"version\":1,\"kind\":\"flight\",\"reason\":\"{}\",\
         \"pid\":{},\"capacity\":{DEFAULT_CAPACITY},\"recorded\":{},\"events\":{},\
         \"git_rev\":\"{}\"",
        json::escape(reason),
        std::process::id(),
        closed + recorded,
        spans.len() + rows.len(),
        json::escape(crate::git_rev())
    );
    for (key, value) in crate::run_info_snapshot() {
        header.push_str(&format!(
            ",\"{}\":\"{}\"",
            json::escape(key),
            json::escape(&value)
        ));
    }
    header.push('}');
    writeln!(w, "{header}")?;
    for span in &spans {
        sink::write_span(w, span)?;
    }
    for row in &rows {
        sink::write_conv(w, row)?;
    }
    Ok(1 + spans.len() + rows.len())
}

/// Dump destination: `LDMO_FLIGHT_DIR` (created if missing) or the
/// current directory, file `flight_<pid>.jsonl` — one forensic file per
/// process, overwritten if the process dies more than once (the last
/// dump has the most context).
pub fn dump_path() -> PathBuf {
    let dir = std::env::var("LDMO_FLIGHT_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&dir).join(format!("flight_{}.jsonl", std::process::id()))
}

/// Dumps the window to [`dump_path`] and reports on stderr. Returns the
/// path on success, `None` when the collector is disabled or the write
/// failed — forensics must never turn a dying run into a different
/// failure.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !crate::enabled() {
        return None;
    }
    let path = dump_path();
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(parent);
    }
    let file = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("[flight] could not create {}: {e}", path.display());
            return None;
        }
    };
    let mut w = io::BufWriter::new(file);
    match dump_to(&mut w, reason).and_then(|lines| w.flush().map(|()| lines)) {
        Ok(lines) => {
            eprintln!(
                "[flight] {reason}: {lines} line(s) dumped to {}",
                path.display()
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("[flight] could not write {}: {e}", path.display());
            None
        }
    }
}
