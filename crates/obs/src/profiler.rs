//! Opt-in sampling profiler: a background thread that periodically
//! snapshots every registered thread's current span stack (via the
//! collector's shared stack mirrors) and accumulates folded span-path
//! counts — the collapsed-stack representation standard flamegraph
//! tooling consumes.
//!
//! Sampling is statistical and read-only: the sampled threads are never
//! stopped, and the mirrors hold intern keys rather than pointers, so a
//! racing read at worst attributes one sample to a recently valid span
//! path (DESIGN.md §14 "sampler safety rules"). Numeric results are
//! untouched by construction — the determinism golden runs with the
//! sampler on to prove it.
//!
//! Folded counts are emitted into the JSONL trace as `sample` lines and
//! rendered by `ldmo trace flame`. Live totals are exported as the
//! `profiler.samples` / `profiler.idle_samples` counters and the
//! `profiler.hz` gauge, so `/metrics` shows sampling coverage mid-run.

use crate::collector;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

static RUNNING: AtomicBool = AtomicBool::new(false);
static SAMPLES: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();

fn samples() -> &'static Mutex<HashMap<String, u64>> {
    SAMPLES.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Whether a sampler thread is currently running.
pub fn running() -> bool {
    RUNNING.load(Ordering::SeqCst)
}

/// The accumulated folded span-path counts as `(path, count)`, where
/// `path` is `;`-joined root-first span names — sorted by count
/// descending, then path, so output order is stable.
pub fn folded_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = samples()
        .lock()
        .expect("samples lock")
        .iter()
        .map(|(path, &count)| (path.clone(), count))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Clears the accumulated folded counts (test isolation; the counters are
/// cleared by [`crate::reset`] like every other metric).
pub fn reset() {
    samples().lock().expect("samples lock").clear();
}

/// A running sampler. Stops (and joins its thread) on drop, so binaries
/// hold it for the duration of `main` and traces flushed afterwards see
/// the final counts.
#[must_use = "the sampler stops when this guard drops"]
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        collector::set_mirror(false);
        RUNNING.store(false, Ordering::SeqCst);
    }
}

/// Starts the sampler at `hz` samples per second per thread. Enables the
/// collector (samples ride in the trace) and the span-stack mirrors.
/// Returns `None` when `hz` is not positive or a sampler is already
/// running — at most one sampler per process.
pub fn start(hz: f64) -> Option<Sampler> {
    if !hz.is_finite() || hz <= 0.0 || RUNNING.swap(true, Ordering::SeqCst) {
        return None;
    }
    crate::enable();
    collector::set_mirror(true);
    // the calling thread is usually the one doing root-span work; make
    // sure the sampler can see it even before its next span opens
    collector::register_sampler_thread();
    crate::gauge("profiler.hz").set(hz);
    let interval = Duration::from_secs_f64(1.0 / hz.min(10_000.0));
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("ldmo-sampler".into())
        .spawn(move || sampler_loop(interval, &stop_flag))
        .ok()?;
    Some(Sampler {
        stop,
        handle: Some(handle),
    })
}

fn sampler_loop(interval: Duration, stop: &AtomicBool) {
    let taken = crate::counter("profiler.samples");
    let idle = crate::counter("profiler.idle_samples");
    let mut folded = String::new();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        for stack in collector::sampler_stacks() {
            let keys = stack.sample();
            if keys.is_empty() {
                // an idle thread carries no attributable work; counted but
                // not folded, so flame tables show where *work* happened
                idle.incr();
                continue;
            }
            folded.clear();
            for (i, key) in keys.iter().enumerate() {
                if i > 0 {
                    folded.push(';');
                }
                folded.push_str(collector::resolve_name(*key).unwrap_or("?"));
            }
            *samples()
                .lock()
                .expect("samples lock")
                .entry(folded.clone())
                .or_insert(0) += 1;
            taken.incr();
        }
    }
}
