//! `serve-mixed`: an in-process `ldmo_serve::Server` driven over HTTP by
//! an open-loop generator at a fixed offered rate. About 9 in 10 requests
//! repeat a layout of a pre-warmed hot set (cache hits); 1 in 10 is a
//! fresh seeded layout (a miss: rank, ILT, cache append).
//!
//! `Server::start` turns the `ldmo-obs` collector on unconditionally, so
//! this workload's untraced run has the collector on too.

use crate::replay::{self, LayerTimes, Plan, Ranker};
use crate::report::Report;
use crate::stats::{self, Tail};
use crate::{digest, setup_metric, Args, LayerSummary, Rng, WorkDir};
use ldmo_ilt::IltContext;
use ldmo_layout::generate::{GeneratorConfig, LayoutGenerator};
use ldmo_layout::{io as layout_io, Layout};
use ldmo_obs::snapshot::MetricsSnapshot;
use ldmo_obs::HistogramSnapshot;
use ldmo_serve::{
    mask_hash, optimize_request, request_key, CachedResult, OptimizeRequest, OptimizeResponse,
    ResultCache, ServeConfig, Server,
};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rate, requests per second.
const RATE_PER_S: f64 = 10.0;
/// Sender threads (each holds at most one request in flight).
const SENDERS: usize = 2;
/// Hot-set size.
const HOT: usize = 8;
/// Generator seed of the hot set (fixed, so its EPE count is too).
const HOT_SEED: u64 = 2026;
/// One request in each block of this many is a fresh layout (a miss).
const MISS_EVERY: usize = 10;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Served misses recomputed with a direct `optimize_request` call.
const MISS_CHECKS: usize = 4;
/// Latency limit, from the due time, of a request that counts toward
/// goodput.
const GOODPUT_LIMIT: Duration = Duration::from_secs(1);
/// Generator seed of the fresh (miss) layouts. The corpus is fixed, like
/// the hot set, so every run serves the same miss work; the run seed
/// orders it and places it in the schedule.
const FRESH_SEED: u64 = 4242;

fn serve_config(cache: &Path) -> ServeConfig {
    let mut cfg = ServeConfig {
        cache_path: Some(cache.to_path_buf()),
        ..ServeConfig::default()
    };
    cfg.pipeline.ilt.max_iterations = 6;
    cfg.pipeline.decomp.max_candidates = 8;
    cfg
}

// ---------------------------------------------------------------------------
// HTTP and response classes
// ---------------------------------------------------------------------------

/// One HTTP/1.0 exchange: the response status and body.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.0\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let (head, payload) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    Ok((status, payload.to_owned()))
}

/// What one operation came back as. Only [`Class::Ok`] is a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 200 with code `ok`.
    Ok,
    /// 200 with code `degraded`: served, but not the optimized masks.
    Degraded,
    /// 429 `shed`: refused by admission.
    Shed,
    /// 503 `draining`.
    Draining,
    /// Any other status (4xx, 5xx).
    Rejected,
    /// A body that does not parse or answers another request.
    Poisoned,
    /// No response: connect, write or read failed.
    Transport,
}

impl Class {
    /// Whether the operation counts as failed.
    pub fn failed(self) -> bool {
        self != Class::Ok
    }
}

/// Classifies an `/optimize` exchange for request `id`.
pub fn classify(result: &io::Result<(u16, String)>, id: &str) -> (Class, Option<OptimizeResponse>) {
    let Ok((status, body)) = result else {
        return (Class::Transport, None);
    };
    let Ok(resp) = OptimizeResponse::from_json(body) else {
        return (Class::Poisoned, None);
    };
    if resp.status != *status || (*status == 200 && resp.id != id) {
        return (Class::Poisoned, Some(resp));
    }
    let class = match (*status, resp.code.as_str()) {
        (200, "ok") => Class::Ok,
        (200, "degraded") => Class::Degraded,
        (429, _) => Class::Shed,
        (503, _) => Class::Draining,
        _ => Class::Rejected,
    };
    (class, Some(resp))
}

/// Classifies a `GET /healthz` exchange.
pub fn classify_health(result: &io::Result<(u16, String)>) -> Class {
    match result {
        Err(_) => Class::Transport,
        Ok((200, body)) if body.contains("\"code\":\"ok\"") => Class::Ok,
        Ok((200, body)) if body.contains("\"code\":\"draining\"") => Class::Draining,
        Ok(_) => Class::Rejected,
    }
}

/// Failed operations over attempted ones (0 for none attempted).
pub fn fail_ratio(classes: &[Class]) -> f64 {
    if classes.is_empty() {
        return 0.0;
    }
    classes.iter().filter(|c| c.failed()).count() as f64 / classes.len() as f64
}

// ---------------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------------

/// One scheduled operation's timing, as offsets from the schedule start.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// Position in the schedule.
    pub index: usize,
    /// When it was due to be sent.
    pub due: Duration,
    /// When a sender actually sent it.
    pub sent: Duration,
    /// When its response was complete.
    pub done: Duration,
    /// What the operation returned.
    pub result: R,
}

impl<R> Sample<R> {
    /// Latency measured from the due time: what a user who arrived on
    /// schedule waited, including any wait behind a stalled sender.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Send-to-response time (excludes the generator's lateness).
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// What an open-loop schedule observed.
#[derive(Debug)]
pub struct OpenLoop<R> {
    /// Every operation, in schedule order.
    pub samples: Vec<Sample<R>>,
    /// Operations due by the schedule's end but not yet answered then.
    pub outstanding_at_end: usize,
    /// The schedule's length.
    pub span: Duration,
}

impl<R> OpenLoop<R> {
    /// Whether the backlog grew: more operations were outstanding when the
    /// schedule ended than the senders can hold in flight, so some were
    /// not even sent on time.
    pub fn backlog_grew(&self, senders: usize) -> bool {
        self.outstanding_at_end > senders
    }
}

/// Runs operation `i` of `dues` (non-decreasing offsets from now) on
/// `senders` threads that each take the next operation, sleep until it is
/// due (never ahead of schedule) and run `op` on it. All-zero dues make a
/// closed loop: each sender sends as soon as its previous answer is in.
pub fn open_loop<R, F>(dues: &[Duration], senders: usize, op: F) -> OpenLoop<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let start = Instant::now();
    let n = dues.len();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let span = dues.last().copied().unwrap_or_default();
    let samples = Mutex::new(Vec::with_capacity(n));
    let outstanding_at_end = std::thread::scope(|scope| {
        for _ in 0..senders.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= n {
                    return;
                }
                let due = dues[index];
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed();
                let result = op(index);
                let finished = start.elapsed();
                done.fetch_add(1, Ordering::SeqCst);
                samples
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(Sample {
                        index,
                        due,
                        sent,
                        done: finished,
                        result,
                    });
            });
        }
        if let Some(wait) = span.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        n - done.load(Ordering::SeqCst)
    });
    let mut samples = samples
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    samples.sort_by_key(|s| s.index);
    OpenLoop {
        samples,
        outstanding_at_end,
        span,
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// What one scheduled request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A hot-set layout (index into the hot set): a cache hit.
    Hit(usize),
    /// A fresh layout (index into the miss layouts): a cache miss.
    Miss(usize),
}

/// Due offsets at [`RATE_PER_S`]: one request per slot of `1 / rate`, at
/// a seeded point inside its slot, so arrivals do not phase-lock to any
/// periodic loop in the server.
fn arrivals(n: usize, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed, 0xA77);
    (0..n)
        .map(|i| {
            let jitter = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            Duration::from_secs_f64((i as f64 + jitter) / RATE_PER_S)
        })
        .collect()
}

/// The request schedule: one miss at a seeded position in every block of
/// [`MISS_EVERY`], the rest seeded picks from the hot set.
fn schedule(n: usize, seed: u64) -> Vec<Kind> {
    let mut rng = Rng::new(seed, 0x5E7);
    let mut kinds = Vec::with_capacity(n);
    let mut misses = 0;
    while kinds.len() < n {
        let pos = rng.below(MISS_EVERY);
        for j in 0..MISS_EVERY {
            if kinds.len() == n {
                break;
            }
            if j == pos {
                kinds.push(Kind::Miss(misses));
                misses += 1;
            } else {
                kinds.push(Kind::Hit(rng.below(HOT)));
            }
        }
    }
    kinds
}

/// A generated layout with its request text.
#[derive(Clone)]
struct Input {
    layout: Layout,
    text: String,
}

fn inputs(seed: u64, count: usize, exclude: &HashSet<String>) -> Vec<Input> {
    let mut generator = LayoutGenerator::new(GeneratorConfig::default(), seed);
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for layout in generator.generate_dataset(count - out.len()) {
            let text = layout_io::to_string(&layout);
            if seen.insert(text.clone()) {
                out.push(Input { layout, text });
            }
        }
    }
    out
}

fn request_body(id: &str, text: &str) -> String {
    OptimizeRequest {
        id: id.to_owned(),
        layout_text: text.to_owned(),
        deadline_ms: None,
        max_iterations: None,
        max_candidates: None,
    }
    .to_json()
}

/// One `/optimize` round trip, classified.
fn optimize(addr: SocketAddr, id: &str, text: &str) -> (Class, Option<OptimizeResponse>) {
    classify(
        &exchange(addr, "POST", "/optimize", &request_body(id, text)),
        id,
    )
}

/// A running server with its pre-warmed hot set.
struct Warm {
    server: Server,
    /// Cold-miss mask hash of every hot layout.
    hot_hashes: Vec<String>,
    /// EPE violations of every hot layout's served masks.
    hot_epe: Vec<u64>,
}

/// Set-up: a fresh cache log, a started server, and every hot layout sent
/// once (a cold miss each).
fn warm_up(cache: &Path, hot: &[Input], report: &mut Report) -> io::Result<Warm> {
    let _ = std::fs::remove_file(cache);
    let server = Server::start(serve_config(cache))?;
    let mut hot_hashes = Vec::with_capacity(hot.len());
    let mut hot_epe = Vec::with_capacity(hot.len());
    for (i, input) in hot.iter().enumerate() {
        let (class, resp) = optimize(server.addr(), &format!("warm-{i}"), &input.text);
        let resp = resp.filter(|r| class == Class::Ok && !r.cached);
        report.check(
            resp.is_some(),
            format!("hot layout {i}: warm-up got {class:?}"),
        );
        hot_hashes.push(
            resp.as_ref()
                .and_then(|r| r.mask_hash.clone())
                .unwrap_or_default(),
        );
        hot_epe.push(resp.and_then(|r| r.epe_violations).unwrap_or(0));
    }
    Ok(Warm {
        server,
        hot_hashes,
        hot_epe,
    })
}

/// The outcome of one scheduled request.
struct Outcome {
    class: Class,
    resp: Option<OptimizeResponse>,
}

/// Runs `kinds` against `addr` at the given due offsets.
fn drive(
    addr: SocketAddr,
    kinds: &[Kind],
    dues: &[Duration],
    hot: &[Input],
    fresh: &[Input],
) -> OpenLoop<Outcome> {
    let bodies: Vec<(String, String)> = kinds
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let id = format!("r{i}");
            let text = match *k {
                Kind::Hit(h) => &hot[h].text,
                Kind::Miss(m) => &fresh[m].text,
            };
            let body = request_body(&id, text);
            (id, body)
        })
        .collect();
    open_loop(dues, SENDERS, |i| {
        let (id, body) = &bodies[i];
        let (class, resp) = classify(&exchange(addr, "POST", "/optimize", body), id);
        Outcome { class, resp }
    })
}

/// Checks every answer of the window against its kind and records
/// attempted/failed. Returns the served hash of every miss.
fn check_window(
    run: &OpenLoop<Outcome>,
    kinds: &[Kind],
    hot_hashes: &[String],
    report: &mut Report,
) -> Vec<Option<String>> {
    let misses = kinds.iter().filter(|k| matches!(k, Kind::Miss(_))).count();
    let classes: Vec<Class> = run.samples.iter().map(|s| s.result.class).collect();
    println!("window fail_ratio = {:.6}", fail_ratio(&classes));
    let mut served = vec![None; misses];
    for s in &run.samples {
        report.attempted += 1;
        if s.result.class.failed() {
            report.failed += 1;
            continue;
        }
        let Some(resp) = &s.result.resp else { continue };
        match kinds[s.index] {
            Kind::Hit(h) => report.check(
                resp.cached && resp.mask_hash.as_deref() == Some(hot_hashes[h].as_str()),
                format!(
                    "request {}: hit on hot layout {h} differs from its cold miss",
                    s.index
                ),
            ),
            Kind::Miss(m) => {
                report.check(
                    !resp.cached,
                    format!("request {}: fresh layout served from cache", s.index),
                );
                served[m] = resp.mask_hash.clone();
            }
        }
    }
    served
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints `<prefix>_p50_ms` and `<prefix>_tail_ms` of `xs`.
fn print_latency(prefix: &str, xs: &[f64]) {
    if xs.is_empty() {
        return println!("{prefix}_p50_ms = n/a (no samples)");
    }
    println!("{prefix}_p50_ms = {:.6} ms", stats::median(xs));
    match stats::tail(xs) {
        Some(Tail {
            value,
            percentile,
            samples,
        }) => println!("{prefix}_tail_ms = {value:.6} ms (p{percentile:.2} of {samples} samples)"),
        None => println!("{prefix}_tail_ms = n/a (only {} samples)", xs.len()),
    }
}

/// Latencies from due time, split by kind, of the successful requests.
fn latencies(run: &OpenLoop<Outcome>, kinds: &[Kind]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut all, mut hits, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    for s in run.samples.iter().filter(|s| !s.result.class.failed()) {
        let l = ms(s.latency());
        all.push(l);
        match kinds[s.index] {
            Kind::Hit(_) => hits.push(l),
            Kind::Miss(_) => misses.push(l),
        }
    }
    (all, hits, misses)
}

/// Prints the generator's honesty figures: lateness and backlog.
fn print_generator(run: &OpenLoop<Outcome>) {
    let lag: Vec<f64> = run.samples.iter().map(|s| ms(s.lag())).collect();
    println!(
        "client.lag_ms = {:.6} ms median, {:.6} ms max; offered {RATE_PER_S} req/s on {SENDERS} senders",
        stats::median(&lag),
        lag.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "backlog: {} outstanding at schedule end{}",
        run.outstanding_at_end,
        if run.backlog_grew(SENDERS) {
            " — GROWING BACKLOG: the serve_* latencies are not valid at this rate"
        } else {
            ""
        }
    );
}

/// Runs the workload.
pub fn run(args: &Args, work: &WorkDir, report: &mut Report) {
    let hot = inputs(HOT_SEED, HOT, &HashSet::new());
    let n = (RATE_PER_S * args.seconds as f64).ceil() as usize;
    let kinds = schedule(n, args.seed);
    let misses = kinds.iter().filter(|k| matches!(k, Kind::Miss(_))).count();
    let dues = arrivals(n, args.seed);
    let hot_texts: HashSet<String> = hot.iter().map(|i| i.text.clone()).collect();
    let pool = inputs(FRESH_SEED, misses, &hot_texts);
    let fresh: Vec<Input> = Rng::new(args.seed, 0xF4E5)
        .permutation(misses)
        .into_iter()
        .map(|m| pool[m].clone())
        .collect();
    if args.trace {
        return traced(work, &hot, &fresh, &kinds, &dues, report);
    }

    let mut times = Vec::with_capacity(SETUPS);
    let mut warm: Option<Warm> = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let w = match warm_up(&work.0.join(format!("cache-{k}.log")), &hot, report) {
            Ok(w) => w,
            Err(e) => return report.check(false, format!("server start failed: {e}")),
        };
        times.push(t0.elapsed());
        if let Some(prev) = warm.take() {
            report.check(
                prev.hot_hashes == w.hot_hashes,
                "hot-set masks differ between set-ups",
            );
            prev.server.shutdown();
        }
        warm = Some(w);
    }
    setup_metric(report, &times);
    let Warm {
        server,
        hot_hashes,
        hot_epe,
    } = warm.expect("at least one set-up");
    let addr = server.addr();

    let cpu0 = crate::sys::cpu_time();
    let host0 = crate::sys::host_ticks();
    let run = drive(addr, &kinds, &dues, &hot, &fresh);
    let cpu = crate::sys::cpu_time().zip(cpu0).map(|(b, a)| b - a);
    crate::sys::print_steal(host0);
    let stats = server.shutdown();
    let served = check_window(&run, &kinds, &hot_hashes, report);
    let planned_hits = (n - misses) as u64;
    let planned_misses = (HOT + misses) as u64;
    report.check(
        stats.cache_hits == planned_hits && stats.cache_misses == planned_misses,
        format!(
            "server counted {} hits / {} misses, schedule has {planned_hits} / {planned_misses}",
            stats.cache_hits, stats.cache_misses
        ),
    );
    recompute_misses(&fresh, &served, report);

    let (all, hits, miss_ms) = latencies(&run, &kinds);
    let in_limit = all.iter().filter(|&&l| l <= ms(GOODPUT_LIMIT)).count();
    let span = run
        .samples
        .iter()
        .map(|s| s.done)
        .max()
        .unwrap_or_default()
        .max(run.span);
    println!(
        "digest serve-mixed {}",
        digest(
            hot_hashes
                .iter()
                .map(String::as_str)
                .chain(served.iter().map(|h| h.as_deref().unwrap_or("-")))
        )
    );
    println!(
        "requests: {n} scheduled over {:.3} s, {} hits, {misses} misses",
        run.span.as_secs_f64(),
        n - misses
    );
    print_generator(&run);
    print_latency("serve_hit", &hits);
    print_latency("serve_miss", &miss_ms);
    println!(
        "serve_epe_total = {} EPE violations over the hot set",
        hot_epe.iter().sum::<u64>()
    );
    println!(
        "names: serve_goodput_per_s = throughput_per_s (answers within {} ms of due); \
         p50_ms and tail_ms are over all window requests",
        GOODPUT_LIMIT.as_millis()
    );
    report.metric(
        "throughput_per_s",
        in_limit as f64 / span.as_secs_f64(),
        "1/s",
    );
    if all.is_empty() {
        return report.check(false, "no request succeeded");
    }
    report.metric("p50_ms", stats::median(&all), "ms");
    report.tail_metric("tail_ms", stats::tail(&all), "ms");
    crate::cpu_metric(report, cpu, n);
}

/// Recomputes a sample of served misses with a direct `optimize_request`
/// call and checks the served masks are bit-identical.
fn recompute_misses(fresh: &[Input], served: &[Option<String>], report: &mut Report) {
    let cfg = serve_config(Path::new("unused")).pipeline;
    let ctx = IltContext::new(&cfg.ilt);
    let step = (fresh.len() / MISS_CHECKS).max(1);
    for m in (0..fresh.len()).step_by(step).take(MISS_CHECKS) {
        let Some(hash) = &served[m] else { continue };
        let direct = optimize_request(&fresh[m].layout, &cfg, &ctx, None);
        report.check(
            mask_hash(&direct.masks) == *hash,
            format!("miss {m}: served masks differ from a direct optimize_request"),
        );
    }
}

/// `after − before` of one histogram.
fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let find = |s: &MetricsSnapshot| {
        s.hists
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.clone())
    };
    let after = find(after).unwrap_or(HistogramSnapshot {
        count: 0,
        sum: 0,
        max: 0,
        bins: vec![0; ldmo_obs::HISTOGRAM_BINS],
    });
    let Some(before) = find(before) else {
        return after;
    };
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
        bins: after
            .bins
            .iter()
            .zip(&before.bins)
            .map(|(a, b)| a - b)
            .collect(),
    }
}

/// Replays one request's serving path from layer calls: the text round
/// trip and key, the cache lookup, and on a miss the pipeline, the cache
/// append and the mask hash. Returns the served mask hash.
fn replay_request(
    input: &Input,
    cache: &mut ResultCache,
    ctx: &IltContext,
    t: &mut LayerTimes,
) -> String {
    let cfg = serve_config(Path::new("unused")).pipeline;
    let layout =
        t.io.time(|| layout_io::from_str(&input.text).map(|l| (layout_io::to_string(&l), l)));
    let Ok((canonical, layout)) = layout else {
        return String::new();
    };
    let key = request_key(
        &canonical,
        cfg.ilt.max_iterations,
        cfg.decomp.max_candidates,
    );
    if let Some(hit) = t.cache_get.time(|| cache.get(key)) {
        return t.hash.time(|| hit.mask_hash());
    }
    let plan = Plan {
        max_attempts: cfg.max_attempts,
        dedupe: false,
    };
    let r = replay::select_and_optimize(
        &layout,
        ctx,
        &cfg.decomp,
        Ranker::Proxy(cfg.weights),
        plan,
        t,
    );
    let out = r.outcome;
    let result = CachedResult {
        masks: out.masks.clone(),
        epe_violations: out.epe_violations() as u32,
        attempts: 0,
        candidates: 0,
        iterations: out.iterations_run as u32,
        recovered: false,
    };
    let _ = t.cache_insert.time(|| cache.insert(key, result));
    t.hash.time(|| mask_hash(&out.masks))
}

/// The traced run: the same window (the collector is on in any case),
/// `/healthz` round trips, and every hot layout and a sample of misses
/// replayed from layer calls against a scratch cache log.
fn traced(
    work: &WorkDir,
    hot: &[Input],
    fresh: &[Input],
    kinds: &[Kind],
    dues: &[Duration],
    report: &mut Report,
) {
    let cfg = serve_config(Path::new("unused")).pipeline;
    let t0 = Instant::now();
    let ctx = IltContext::new(&cfg.ilt);
    let kernel_expand = t0.elapsed();
    let Warm {
        server, hot_hashes, ..
    } = match warm_up(&work.0.join("cache.log"), hot, report) {
        Ok(w) => w,
        Err(e) => return report.check(false, format!("server start failed: {e}")),
    };
    let addr = server.addr();

    let mut healthz = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let class = classify_health(&exchange(addr, "GET", "/healthz", ""));
        healthz.push(ms(t0.elapsed()));
        report.attempted += 1;
        report.failed += u64::from(class.failed());
    }

    let before = MetricsSnapshot::take();
    let t0 = Instant::now();
    let run = drive(addr, kinds, dues, hot, fresh);
    let window = t0.elapsed();
    let busy = crate::busy_fraction_since(&before, window);
    let after = MetricsSnapshot::take();
    let stats = server.shutdown();
    let served = check_window(&run, kinds, &hot_hashes, report);
    let queue = hist_delta(&before, &after, "serve.queue_wait_us");
    let window_requests = run.samples.len() as f64;
    let hit_ratio = (stats.cache_hits as f64) / window_requests.max(1.0);
    let planned = kinds.iter().filter(|k| matches!(k, Kind::Hit(_))).count() as f64
        / window_requests.max(1.0);
    report.check(
        (hit_ratio - planned).abs() < 1e-9,
        format!("hit ratio {hit_ratio:.4} differs from the schedule's {planned:.4}"),
    );

    // ILT work per miss, from the responses
    let (mut attempts, mut iterations, mut answered) = (0u64, 0u64, 0u64);
    for s in &run.samples {
        if let (Kind::Miss(_), Some(r)) = (kinds[s.index], &s.result.resp) {
            attempts += r.attempts.unwrap_or(0);
            iterations += r.iterations.unwrap_or(0);
            answered += 1;
        }
    }

    // replay: every hot layout's cold miss fills a scratch cache, then
    // hits and a sample of fresh misses are timed layer by layer
    let (mut cache, _) = match ResultCache::open(work.0.join("replay.log")) {
        Ok(c) => c,
        Err(e) => return report.check(false, format!("scratch cache: {e}")),
    };
    let mut fill = LayerTimes::default();
    for (i, input) in hot.iter().enumerate() {
        let h = replay_request(input, &mut cache, &ctx, &mut fill);
        report.check(
            h == hot_hashes[i],
            format!("hot layout {i}: replayed masks differ"),
        );
    }
    let mut t_hit = LayerTimes::default();
    let rounds = 10;
    for _ in 0..rounds {
        for input in hot {
            replay_request(input, &mut cache, &ctx, &mut t_hit);
        }
    }
    let hit_units = (rounds * hot.len()) as f64;
    let step = (fresh.len() / MISS_CHECKS).max(1);
    let sampled: Vec<usize> = (0..fresh.len()).step_by(step).take(MISS_CHECKS).collect();
    let mut t_miss = LayerTimes::default();
    let t0 = Instant::now();
    for &m in &sampled {
        let h = replay_request(&fresh[m], &mut cache, &ctx, &mut t_miss);
        report.check(
            served[m].as_deref() == Some(h.as_str()),
            format!("miss {m}: replayed masks differ from the served ones"),
        );
    }
    let replay_wall = t0.elapsed();
    let t0 = Instant::now();
    let direct: Vec<_> = sampled
        .iter()
        .map(|&m| optimize_request(&fresh[m].layout, &cfg, &ctx, None))
        .collect();
    let pipeline_wall = t0.elapsed();
    ldmo_obs::disable();

    // accounting: per class, timed layer calls against the served
    // send-to-response time of the window's requests
    let service = |want_hit: bool| -> Vec<f64> {
        run.samples
            .iter()
            .filter(|s| {
                !s.result.class.failed() && matches!(kinds[s.index], Kind::Hit(_)) == want_hit
            })
            .map(|s| ms(s.service()))
            .collect()
    };
    let (hit_service, miss_service) = (service(true), service(false));
    let hit_acc_ms = t_hit.accounted(false).as_secs_f64() * 1e3 / hit_units;
    let miss_acc_ms = t_miss.accounted(false).as_secs_f64() * 1e3 / sampled.len().max(1) as f64;
    println!(
        "hit accounting: served {:.3} ms mean, timed layer calls {hit_acc_ms:.3} ms, unaccounted {:.3} ms",
        stats::mean(&hit_service),
        stats::mean(&hit_service) - hit_acc_ms
    );
    println!(
        "miss accounting: served {:.3} ms mean, timed layer calls {miss_acc_ms:.3} ms, unaccounted {:.3} ms",
        stats::mean(&miss_service),
        stats::mean(&miss_service) - miss_acc_ms
    );
    let unit_wall_ms: f64 = hit_service.iter().chain(&miss_service).sum();
    let accounted_ms =
        hit_acc_ms * hit_service.len() as f64 + miss_acc_ms * miss_service.len() as f64;

    print_generator(&run);
    println!(
        "serve.healthz_ms = {:.6} ms median of {}",
        stats::median(&healthz),
        healthz.len()
    );
    println!("serve.cache_get_us = {:.3} us", t_hit.cache_get.mean_us());
    println!(
        "serve.cache_insert_us = {:.3} us",
        t_miss.cache_insert.mean_us()
    );
    println!(
        "serve.queue_wait_us = {:.3} us mean, {:.3} us p50 (log2 buckets) over {}",
        queue.mean(),
        queue.percentile(0.5),
        queue.count
    );
    println!(
        "serve.pipeline_ms = {:.6} ms per miss (direct optimize_request)",
        ms(pipeline_wall) / sampled.len().max(1) as f64
    );
    println!("serve.hit_ratio = {hit_ratio:.6}");

    // probes: the two halves of step_one, one abort check's litho calls
    // (6 iterations end before the first check), and the CNN ranking the
    // serving path does not take (an untrained network costs the same)
    let mut merged = t_miss.clone();
    merged.io.total += t_hit.io.total;
    merged.io.calls += t_hit.io.calls;
    let mut probe = ldmo_core::predictor::PrintabilityPredictor::lite(7);
    for (&m, out) in sampled.iter().zip(&direct) {
        let layout = &fresh[m].layout;
        let cands = ldmo_decomp::generate_candidates(layout, &cfg.decomp);
        merged.rank_nn.time(|| probe.rank(layout, &cands));
        if let Some(first) = cands.first() {
            replay::probe_forward_gradient(layout, &ctx, first, &mut merged);
        }
        replay::probe_checks(layout, &ctx, &out.masks, &mut merged);
    }
    let units = answered.max(1) as f64;
    LayerSummary {
        times: &merged,
        kernel_expand,
        attempts_per_unit: attempts as f64 / units,
        iterations_per_unit: iterations as f64 / units,
        useful_ratio: answered as f64 / attempts.max(1) as f64,
        busy_fraction: busy,
        units: run.samples.len(),
        unit_wall: Duration::from_secs_f64(unit_wall_ms / 1e3),
        accounted: Duration::from_secs_f64(accounted_ms / 1e3),
        overhead_ratio: replay_wall.as_secs_f64() / pipeline_wall.as_secs_f64(),
    }
    .emit(report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldmo_ilt::OutcomeHealth;

    fn response(id: &str, status: u16, code: &str) -> io::Result<(u16, String)> {
        Ok((
            status,
            OptimizeResponse::bare(id, status, code, None).to_json(),
        ))
    }

    fn served(id: &str, health: OutcomeHealth) -> io::Result<(u16, String)> {
        let r = OptimizeResponse::result(id, health, 0, 1, 4, 6, "00ff".into(), false, false);
        Ok((200, r.to_json()))
    }

    #[test]
    fn response_classes_map_to_failures() {
        let degraded = OutcomeHealth::Degraded {
            reason: ldmo_ilt::DegradeReason::BudgetExhausted,
        };
        let cases = [
            (served("a", OutcomeHealth::Clean), Class::Ok),
            (served("a", degraded), Class::Degraded),
            (response("a", 429, "shed"), Class::Shed),
            (response("a", 503, "draining"), Class::Draining),
            (response("a", 400, "bad-request"), Class::Rejected),
            (
                served("someone-else", OutcomeHealth::Clean),
                Class::Poisoned,
            ),
            (response("a", 200, "ok"), Class::Poisoned),
            (Ok((200, "not json".to_owned())), Class::Poisoned),
            (
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "reset")),
                Class::Transport,
            ),
        ];
        let mut classes = Vec::new();
        for (result, want) in &cases {
            let (got, _) = classify(result, "a");
            assert_eq!(got, *want, "{result:?}");
            assert_eq!(got.failed(), *want != Class::Ok);
            classes.push(got);
        }
        // one success among nine operations
        assert!((fail_ratio(&classes) - 8.0 / 9.0).abs() < 1e-12);
        assert_eq!(fail_ratio(&[]), 0.0);
        assert_eq!(fail_ratio(&[Class::Ok, Class::Ok]), 0.0);
    }

    #[test]
    fn health_classes_map_to_failures() {
        let ok = Ok((200, "{\"code\":\"ok\",\"queue_depth\":0}".to_owned()));
        let draining = Ok((200, "{\"code\":\"draining\",\"queue_depth\":3}".to_owned()));
        let missing = Ok((404, "{}".to_owned()));
        let down = Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"));
        let classes: Vec<Class> = [ok, draining, missing, down]
            .iter()
            .map(classify_health)
            .collect();
        assert_eq!(
            classes,
            [
                Class::Ok,
                Class::Draining,
                Class::Rejected,
                Class::Transport
            ]
        );
        assert!((fail_ratio(&classes) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_counts_from_due_time_through_a_stall() {
        // one sender, an operation due every 10 ms; operation 2 stalls for
        // 100 ms, so operations 3.. are sent late and must be charged the
        // wait, although their own service time is near zero
        let dues: Vec<Duration> = (0..8).map(|i| Duration::from_millis(10 * i)).collect();
        let run = open_loop(&dues, 1, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        assert_eq!(run.samples.len(), 8);
        let s3 = &run.samples[3];
        assert!(
            s3.service() < Duration::from_millis(50),
            "{:?}",
            s3.service()
        );
        assert!(s3.lag() >= Duration::from_millis(80), "{:?}", s3.lag());
        assert!(
            s3.latency() >= Duration::from_millis(80),
            "{:?}",
            s3.latency()
        );
        for s in &run.samples {
            assert!(s.latency() >= s.service());
            assert!(s.sent >= s.due, "sent ahead of schedule");
        }
        // the stall outlasts the 70 ms schedule: work is still queued
        assert!(run.backlog_grew(1));
        assert!(run.outstanding_at_end > 1);
    }

    #[test]
    fn unstalled_schedule_keeps_up() {
        let dues: Vec<Duration> = (0..6).map(|i| Duration::from_millis(10 * i)).collect();
        let run = open_loop(&dues, 2, |_| ());
        assert!(!run.backlog_grew(2));
        assert!(run
            .samples
            .iter()
            .all(|s| s.lag() < Duration::from_millis(10)));
    }

    #[test]
    fn schedule_has_one_miss_per_block() {
        let kinds = schedule(95, 3);
        assert_eq!(kinds.len(), 95);
        for block in kinds.chunks(MISS_EVERY).filter(|b| b.len() == MISS_EVERY) {
            assert_eq!(
                block.iter().filter(|k| matches!(k, Kind::Miss(_))).count(),
                1
            );
        }
        assert_eq!(kinds, schedule(95, 3));
        assert_ne!(kinds, schedule(95, 4));
    }
}
