//! Flight recorder: a fixed-capacity lock-free ring of recent span-close
//! events and convergence records, dumped as analyzable JSONL when a run
//! dies (panic, typed error exit, divergence-rollback exhaustion).
//!
//! The ring never allocates after [`init`]: a writer claims a slot with a
//! single relaxed `fetch_add` on the global head and copies the event into
//! per-slot atomics under a seqlock-style sequence word. Readers (the dump
//! path) validate each slot's sequence before and after copying and drop
//! slots that were mid-write. Every field is an `AtomicU64`, so even a
//! reader racing a lapping writer only ever observes a *mixed* event —
//! plain numbers from two records — never undefined behaviour; span names
//! travel as keys of the collector's intern table and a key that does
//! not resolve is rendered as `"?"`, not dereferenced.
//!
//! Sizing and the dump schema are documented in DESIGN.md §14. The ring is
//! enabled alongside the collector ([`crate::enable`]) at
//! [`DEFAULT_CAPACITY`]; opt out with `LDMO_FLIGHT=0`.

use crate::collector::{self, ConvergenceRecord, SpanEvent, MAX_SPAN_META};
use crate::json;
use crate::sink;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Ring capacity (events) that [`crate::enable`] allocates. At ILT scale
/// — one convergence record per iteration plus a handful of span closes
/// per flow stage — 4096 events cover the last several full flow runs,
/// which is what a post-mortem needs.
pub const DEFAULT_CAPACITY: usize = 4096;

const KIND_SPAN: u64 = 1;
const KIND_CONV: u64 = 2;

/// One event, encoded as 9 relaxed words (see module docs for why the
/// fields are atomics rather than an `UnsafeCell` payload).
const WORDS: usize = 9;

struct Slot {
    /// 0 = never written; odd = write in progress for ticket `(seq-1)/2`;
    /// even = ticket `(seq-2)/2` committed.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

struct FlightRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

/// A decoded flight event, ordered by its ring ticket.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightEvent {
    /// A completed span (see [`crate::SpanEvent`]; metadata is not kept —
    /// the ring trades it for fixed slot size).
    Span {
        /// Span id.
        id: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// Span name resolved through the intern table (`"?"` when the
        /// key did not resolve, e.g. after a torn lapped write).
        name: &'static str,
        /// Start offset from the collector epoch, microseconds.
        start_us: u64,
        /// Wall-clock duration, microseconds.
        dur_us: u64,
    },
    /// One ILT convergence row (see [`crate::ConvergenceRecord`]).
    Conv {
        /// Innermost enclosing span id (0 = none).
        span: u64,
        /// Offset from the collector epoch, microseconds.
        t_us: u64,
        /// 0-based ILT iteration index.
        iteration: u32,
        /// L2 error.
        l2: f64,
        /// Step norm (`NaN` = not measured).
        step_norm: f64,
        /// EPE violation count (−1 = not measured).
        epe_violations: i64,
    },
}

static RING: OnceLock<FlightRing> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

impl FlightRing {
    fn new(capacity: usize) -> Self {
        FlightRing {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(2))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
        }
    }

    #[inline]
    fn record(&self, words: [u64; WORDS]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Valid events as `(ticket, words)`, ticket-ascending (oldest first).
    fn collect(&self) -> Vec<(u64, [u64; WORDS])> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in progress
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            let after = slot.seq.load(Ordering::Acquire);
            if after != before {
                continue; // overwritten while copying
            }
            out.push(((before - 2) / 2, words));
        }
        out.sort_unstable_by_key(|(ticket, _)| *ticket);
        out
    }
}

/// Initializes the ring (idempotent — the first capacity wins) and turns
/// recording on. Returns the ring's actual capacity. [`crate::enable`]
/// calls it with [`DEFAULT_CAPACITY`] unless `LDMO_FLIGHT=0`; tests call
/// it directly to pin a small capacity.
pub fn init(capacity: usize) -> usize {
    let ring = RING.get_or_init(|| FlightRing::new(capacity));
    ACTIVE.store(true, Ordering::Relaxed);
    ring.slots.len()
}

/// Ring setup driven by the environment: `LDMO_FLIGHT=0` opts out,
/// otherwise the ring holds [`DEFAULT_CAPACITY`] events.
pub(crate) fn init_from_env() {
    if std::env::var("LDMO_FLIGHT").is_ok_and(|v| v == "0") {
        return;
    }
    init(DEFAULT_CAPACITY);
}

/// Whether the ring exists and is recording (one relaxed load — the gate
/// the collector checks on every span close / convergence row).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Total events ever recorded (tickets issued); events beyond the ring
/// capacity have been overwritten.
pub fn recorded() -> u64 {
    RING.get().map_or(0, |r| r.head.load(Ordering::Relaxed))
}

/// Ring capacity, when initialized.
pub fn capacity() -> Option<usize> {
    RING.get().map(|r| r.slots.len())
}

#[inline]
pub(crate) fn record_span(id: u64, parent: u64, name_key: usize, start_us: u64, dur_us: u64) {
    if let Some(ring) = RING.get() {
        ring.record([
            KIND_SPAN,
            name_key as u64,
            id,
            parent,
            start_us,
            dur_us,
            0,
            0,
            0,
        ]);
    }
}

#[inline]
pub(crate) fn record_conv(
    span: u64,
    t_us: u64,
    iteration: u32,
    l2: f64,
    step_norm: f64,
    epe_violations: i64,
) {
    if let Some(ring) = RING.get() {
        ring.record([
            KIND_CONV,
            0,
            span,
            iteration as u64,
            t_us,
            0,
            l2.to_bits(),
            step_norm.to_bits(),
            epe_violations as u64,
        ]);
    }
}

fn decode(words: [u64; WORDS]) -> Option<FlightEvent> {
    match words[0] {
        KIND_SPAN => Some(FlightEvent::Span {
            id: words[2],
            parent: words[3],
            name: collector::resolve_name(words[1] as usize).unwrap_or("?"),
            start_us: words[4],
            dur_us: words[5],
        }),
        KIND_CONV => Some(FlightEvent::Conv {
            span: words[2],
            t_us: words[4],
            iteration: words[3] as u32,
            l2: f64::from_bits(words[6]),
            step_norm: f64::from_bits(words[7]),
            epe_violations: words[8] as i64,
        }),
        _ => None,
    }
}

/// Decoded ring contents, oldest event first. Empty when the ring was
/// never initialized.
pub fn events() -> Vec<FlightEvent> {
    RING.get().map_or_else(Vec::new, |ring| {
        ring.collect()
            .into_iter()
            .filter_map(|(_, words)| decode(words))
            .collect()
    })
}

/// Writes the ring as JSONL: one `meta` header line (reason, pid,
/// capacity, total recorded, plus every [`crate::set_run_info`] entry —
/// git rev / threads / backend in the standard binaries), then `span` and
/// `conv` lines in ring order, parseable by `Trace::parse` and therefore
/// by `ldmo trace summarize`. Returns the number of lines written.
pub fn dump_to<W: Write>(w: &mut W, reason: &str) -> io::Result<usize> {
    let events = events();
    let mut header = format!(
        "{{\"type\":\"meta\",\"version\":1,\"kind\":\"flight\",\"reason\":\"{}\",\
         \"pid\":{},\"capacity\":{},\"recorded\":{},\"events\":{}",
        json::escape(reason),
        std::process::id(),
        capacity().unwrap_or(0),
        recorded(),
        events.len()
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
    let mut lines = 1usize;
    for event in &events {
        match *event {
            FlightEvent::Span {
                id,
                parent,
                name,
                start_us,
                dur_us,
            } => sink::write_span(
                w,
                &SpanEvent {
                    id,
                    parent,
                    name,
                    start_us,
                    dur_us,
                    meta: [None; MAX_SPAN_META],
                },
            )?,
            FlightEvent::Conv {
                span,
                t_us,
                iteration,
                l2,
                step_norm,
                epe_violations,
            } => sink::write_conv(
                w,
                &ConvergenceRecord {
                    span,
                    t_us,
                    iteration,
                    l2,
                    step_norm,
                    epe_violations,
                },
            )?,
        }
        lines += 1;
    }
    Ok(lines)
}

/// Dump destination: `LDMO_FLIGHT_DIR` (created if missing) or the
/// current directory, file `flight_<pid>.jsonl` — one forensic file per
/// process, overwritten if the process dies more than once (the last
/// dump has the most context).
pub fn dump_path() -> PathBuf {
    let dir = std::env::var("LDMO_FLIGHT_DIR").unwrap_or_else(|_| ".".into());
    Path::new(&dir).join(format!("flight_{}.jsonl", std::process::id()))
}

/// Dumps the ring to [`dump_path`] and reports on stderr. Returns the
/// path on success, `None` when the recorder is inactive or the write
/// failed — forensics must never turn a dying run into a different
/// failure.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !active() {
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
