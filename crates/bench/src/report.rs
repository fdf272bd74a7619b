//! Machine-readable bench reports: the `BENCH_<name>.json` schema. This
//! module is the only code that writes, reads or gates one: the
//! reproduction binaries and the criterion bench targets write through
//! [`BenchReport::push_samples`] and [`maybe_write`], and `ldmo
//! bench-report` lists reports ([`render`]) and gates a fresh run against
//! committed baselines ([`gate`]).
//!
//! One report per harness run, one result row per measured quantity:
//!
//! ```json
//! {"schema":"ldmo-bench-report","version":1,"name":"table1",
//!  "git_rev":"abc1234","threads":8,"isa":"avx512","fast":false,
//!  "written_unix_ms":0,
//!  "results":[{"id":"AOI211_X1/ours","unit":"s","n":1,
//!              "min":1.2,"median":1.2,"max":1.2,"mean":1.2,
//!              "meta":{"epe":0}}]}
//! ```
//!
//! Row `id`s are stable across runs (testcase/flow names, bench ids), which
//! is what lets the gate match rows between a fresh run and a committed
//! baseline. Conventions are documented in DESIGN.md §12.

use ldmo_guard::LdmoError;
use ldmo_obs::json::{self, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// A fresh median above this multiple of its baseline median is listed
/// as a warning. The committed baselines come from another machine and
/// CI runners are noisy, so the gate looks for order-of-magnitude
/// regressions (an accidental debug path, a quadratic blowup), not 20%
/// drift.
pub const WARN_RATIO: f64 = 3.0;

/// A fresh median above this multiple of its baseline median fails the
/// gate.
pub const FAIL_RATIO: f64 = 8.0;

/// Same-run overhead bounds `(row, reference, max)`: the fresh median of
/// `row` must be at most `max` times the fresh median of `reference`.
/// Both rows come from one run on one machine, so a tight bound is sound
/// where the cross-machine band above is not.
pub const OVERHEAD_BOUNDS: [(&str, &str, f64); 3] = [
    // the live-ops collector costs at most 5% of the bare ILT step
    ("ilt/step_liveops", "ilt/step_workspace", 1.05),
    // halo stitching is at most 5% of the whole tiled chip run
    ("chip/stitch_2x2", "chip/tiles_per_sec", 0.05),
    // a cache-hit round-trip is at most 2% of an uncached one. The
    // committed fast-mode rows read 0.1%: a hit skips ranking and ILT,
    // waits on no accept poll and hashes no masks. A 5 ms accept poll
    // alone reads about 5%, so the bound fails if one comes back
    (
        "serve/cached_requests_per_sec",
        "serve/requests_per_sec",
        0.02,
    ),
];

/// One measured quantity: summary statistics over `n` samples plus free-form
/// numeric metadata (grid sizes, EPE counts, iteration counts …).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable row identifier, e.g. `"AOI211_X1/ours"` or
    /// `"ilt/step_one_448"`.
    pub id: String,
    /// Unit of the statistics fields: `"s"`, `"ns"`, `"count"` …
    pub unit: String,
    /// Number of samples the statistics summarize.
    pub n: u64,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Extra numeric context, emitted as a nested `"meta"` object.
    pub meta: Vec<(String, f64)>,
}

/// A full `BENCH_<name>.json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Harness name (`table1`, `kernels` …); also names the output file.
    pub name: String,
    /// The short git revision of the source tree the harness was built
    /// from ([`ldmo_obs::git_rev`]), `"unknown"` when git is unavailable.
    pub git_rev: String,
    /// Size of the worker pool the run was collected on.
    pub threads: usize,
    /// The instruction set the separable passes ran at
    /// ([`ldmo_litho::backend::resolved_isa`]); `"unknown"` in a report
    /// written before the field existed.
    pub isa: String,
    /// Whether `LDMO_FAST=1` shrank the workload.
    pub fast: bool,
    /// Wall-clock collection time (ms since the Unix epoch).
    pub written_unix_ms: u64,
    /// The measured rows.
    pub results: Vec<BenchResult>,
}

impl BenchReport {
    /// Starts an empty report, stamping the build's git revision, the
    /// global pool's size ([`run_main`](crate::run_main) sizes it before
    /// the run), the separable passes' instruction set and fast mode.
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            git_rev: ldmo_obs::git_rev().to_owned(),
            threads: ldmo_par::global_threads(),
            isa: ldmo_litho::backend::resolved_isa().to_owned(),
            fast: crate::fast_mode(),
            written_unix_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            results: Vec::new(),
        }
    }

    /// Records a single-sample measurement; returns the row for optional
    /// `meta` additions.
    pub fn push_value(
        &mut self,
        id: impl Into<String>,
        unit: impl Into<String>,
        value: f64,
    ) -> &mut BenchResult {
        self.push_samples(id, unit, &[value])
    }

    /// Records summary statistics over `samples` (must be non-empty; an
    /// empty slice records an all-NaN row rather than panicking).
    pub fn push_samples(
        &mut self,
        id: impl Into<String>,
        unit: impl Into<String>,
        samples: &[f64],
    ) -> &mut BenchResult {
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let (min, median, max, mean) = if sorted.is_empty() {
            (f64::NAN, f64::NAN, f64::NAN, f64::NAN)
        } else {
            (
                sorted[0],
                sorted[sorted.len() / 2],
                sorted[sorted.len() - 1],
                sorted.iter().sum::<f64>() / sorted.len() as f64,
            )
        };
        self.results.push(BenchResult {
            id: id.into(),
            unit: unit.into(),
            n: samples.len() as u64,
            min,
            median,
            max,
            mean,
            meta: Vec::new(),
        });
        self.results.last_mut().expect("just pushed")
    }

    /// Serializes the report (one line per result row for reviewable
    /// diffs of committed baselines).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"ldmo-bench-report\",\"version\":1,\
             \"name\":\"{}\",\"git_rev\":\"{}\",\"threads\":{},\
             \"isa\":\"{}\",\"fast\":{},\"written_unix_ms\":{},\"results\":[",
            json::escape(&self.name),
            json::escape(&self.git_rev),
            self.threads,
            json::escape(&self.isa),
            self.fast,
            self.written_unix_ms
        );
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                " {{\"id\":\"{}\",\"unit\":\"{}\",\"n\":{},\"min\":{},\
                 \"median\":{},\"max\":{},\"mean\":{}",
                json::escape(&r.id),
                json::escape(&r.unit),
                r.n,
                json::number(r.min),
                json::number(r.median),
                json::number(r.max),
                json::number(r.mean)
            ));
            if !r.meta.is_empty() {
                out.push_str(",\"meta\":{");
                for (j, (k, v)) in r.meta.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":{}", json::escape(k), json::number(*v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the report to `target`: a directory (existing, or a path
    /// ending in `/`) receives `BENCH_<name>.json` inside it; any other
    /// path is used verbatim. Parent directories are created. Returns the
    /// resolved file path.
    pub fn write(&self, target: &Path) -> io::Result<PathBuf> {
        let path = resolve_out_path(target, &self.name);
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Parses a report previously written by [`BenchReport::write`].
    pub fn load(path: &Path) -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the report schema from a JSON string.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value = json::parse(text)?;
        if !matches!(&value, Value::Obj(_)) {
            return Err("report root is not an object".into());
        }
        let get_str = |key: &str| -> String {
            value
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_owned()
        };
        let get_num = |key: &str| -> f64 { value.get(key).and_then(Value::as_f64).unwrap_or(0.0) };
        if get_str("schema") != "ldmo-bench-report" {
            return Err("missing or wrong \"schema\" marker".into());
        }
        let fast = matches!(value.get("fast"), Some(Value::Bool(true)));
        let mut results = Vec::new();
        if let Some(rows) = value.get("results").and_then(Value::as_array) {
            for row in rows {
                let num = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let mut meta = Vec::new();
                if let Some(Value::Obj(pairs)) = row.get("meta") {
                    for (k, v) in pairs {
                        meta.push((k.clone(), v.as_f64().unwrap_or(f64::NAN)));
                    }
                }
                results.push(BenchResult {
                    id: row
                        .get("id")
                        .and_then(Value::as_str)
                        .ok_or("result row without \"id\"")?
                        .to_owned(),
                    unit: row
                        .get("unit")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    n: num("n") as u64,
                    min: num("min"),
                    median: num("median"),
                    max: num("max"),
                    mean: num("mean"),
                    meta,
                });
            }
        }
        Ok(BenchReport {
            name: get_str("name"),
            git_rev: get_str("git_rev"),
            threads: get_num("threads") as usize,
            isa: get_str("isa"),
            fast,
            written_unix_ms: get_num("written_unix_ms") as u64,
            results,
        })
    }

    /// Loads every `BENCH_*.json` in `dir`, sorted by report name.
    ///
    /// # Errors
    ///
    /// An I/O error naming `dir` when it cannot be listed; a trace error
    /// naming the file when a report in it does not load.
    pub fn load_dir(dir: &Path) -> Result<Vec<BenchReport>, LdmoError> {
        let context = || format!("bench reports in '{}'", dir.display());
        let io_error = |source| LdmoError::Io {
            context: context(),
            source,
        };
        let mut reports = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io_error)? {
            let path = entry.map_err(io_error)?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let report = BenchReport::load(&path).map_err(|detail| LdmoError::Trace {
                    context: context(),
                    detail,
                })?;
                reports.push(report);
            }
        }
        reports.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(reports)
    }
}

/// Renders a statistic in its row's unit: times human-scaled, anything
/// else verbatim.
fn format_value(value: f64, unit: &str) -> String {
    let secs = match unit {
        "ns" => value / 1e9,
        "s" => value,
        _ => return format!("{value:.1} {unit}"),
    };
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.2}µs", secs * 1e6)
    }
}

/// Lists `reports`: one header line per report, then one line per row
/// with its median, sample count, range and meta.
pub fn render(reports: &[BenchReport]) -> String {
    let mut text = String::new();
    for report in reports {
        let _ = writeln!(
            text,
            "{} — rev {}, {} thread(s), isa {}{}, {} result(s)",
            report.name,
            report.git_rev,
            report.threads,
            report.isa,
            if report.fast { ", fast mode" } else { "" },
            report.results.len()
        );
        for r in &report.results {
            let meta = if r.meta.is_empty() {
                String::new()
            } else {
                let parts: Vec<String> =
                    r.meta.iter().map(|(k, v)| format!("{k}={v:.0}")).collect();
                format!("  [{}]", parts.join(", "))
            };
            let _ = writeln!(
                text,
                "  {:<44} {:>10} (n={}, min {}, max {}){meta}",
                r.id,
                format_value(r.median, &r.unit),
                r.n,
                format_value(r.min, &r.unit),
                format_value(r.max, &r.unit)
            );
        }
    }
    text
}

/// What [`gate`] found.
#[derive(Debug)]
pub struct Gate {
    /// The listing: reports and rows present on one side only, medians
    /// beyond [`WARN_RATIO`] or [`FAIL_RATIO`], every overhead bound, and
    /// a closing count line.
    pub text: String,
    /// `report:row` of each median beyond [`FAIL_RATIO`], and `row` of
    /// each [`OVERHEAD_BOUNDS`] entry exceeded.
    pub failed: Vec<String>,
}

/// Gates `fresh` reports against `baseline` ones. Medians are matched by
/// report name and row id: growth beyond [`WARN_RATIO`] warns, beyond
/// [`FAIL_RATIO`] fails. Reports and rows on one side only are listed,
/// never fatal, and so is a report whose `isa` differs between the sides
/// (a note); a row without a median on either side is skipped, and one
/// with a non-positive baseline median is counted but carries no ratio.
/// Then each [`OVERHEAD_BOUNDS`] entry is checked on `fresh` alone, the
/// row taken from the first report whose median for it is positive.
///
/// # Errors
///
/// A trace error naming the report when a report's fast mode differs
/// between the sides (their medians are not comparable), or naming the
/// row when an overhead row is missing from `fresh` (a check that cannot
/// run must not read as passed).
pub fn gate(baseline: &[BenchReport], fresh: &[BenchReport]) -> Result<Gate, LdmoError> {
    fn by_name(reports: &[BenchReport]) -> BTreeMap<&str, &BenchReport> {
        reports.iter().map(|r| (r.name.as_str(), r)).collect()
    }
    fn by_id(report: &BenchReport) -> BTreeMap<&str, &BenchResult> {
        report.results.iter().map(|r| (r.id.as_str(), r)).collect()
    }
    fn one_side(text: &mut String, what: &str, in_baseline: bool) {
        let side = if in_baseline {
            "[only-baseline]"
        } else {
            "[only-fresh]   "
        };
        let _ = writeln!(text, "  {side} {what} (ok)");
    }
    let (old_reports, new_reports) = (by_name(baseline), by_name(fresh));
    let mut text = String::new();
    let (mut compared, mut warnings, mut failed) = (0, 0, Vec::new());
    let names: BTreeSet<&str> = old_reports
        .keys()
        .chain(new_reports.keys())
        .copied()
        .collect();
    for name in names {
        let (Some(old), Some(new)) = (old_reports.get(name), new_reports.get(name)) else {
            let in_baseline = old_reports.contains_key(name);
            one_side(&mut text, &format!("report {name}"), in_baseline);
            continue;
        };
        if old.fast != new.fast {
            return Err(LdmoError::Trace {
                context: format!("bench report '{name}'"),
                detail: format!(
                    "fast mode differs (baseline fast={}, fresh fast={}), so its medians \
                     are not comparable",
                    old.fast, new.fast
                ),
            });
        }
        if old.isa != new.isa {
            let _ = writeln!(
                text,
                "  [note] report {name}: isa differs (baseline {}, fresh {}), so its medians \
                 compare different vector passes",
                old.isa, new.isa
            );
        }
        let (old_rows, new_rows) = (by_id(old), by_id(new));
        let ids: BTreeSet<&str> = old_rows.keys().chain(new_rows.keys()).copied().collect();
        for id in ids {
            let (Some(old), Some(new)) = (old_rows.get(id), new_rows.get(id)) else {
                one_side(
                    &mut text,
                    &format!("{name}:{id}"),
                    old_rows.contains_key(id),
                );
                continue;
            };
            if old.median.is_nan() || new.median.is_nan() {
                continue;
            }
            compared += 1;
            if old.median <= 0.0 {
                continue;
            }
            let ratio = new.median / old.median;
            let line = format!(
                "{name}:{id}: median {} -> {} ({ratio:.2}x)",
                format_value(old.median, &old.unit),
                format_value(new.median, &new.unit)
            );
            if ratio > FAIL_RATIO {
                failed.push(format!("{name}:{id}"));
                let _ = writeln!(text, "  [FAIL] {line}");
            } else if ratio > WARN_RATIO {
                warnings += 1;
                let _ = writeln!(text, "  [warn] {line}");
            }
        }
    }
    let fresh_row = |id: &str| {
        new_reports
            .values()
            .find_map(|r| by_id(r).get(id).copied().filter(|x| x.median > 0.0))
            .ok_or_else(|| LdmoError::Trace {
                context: format!("overhead row '{id}'"),
                detail: "missing from the fresh reports, so its bound cannot be checked".into(),
            })
    };
    for (row, reference, max) in OVERHEAD_BOUNDS {
        let (a, b) = (fresh_row(row)?, fresh_row(reference)?);
        let ratio = a.median / b.median;
        let line = format!(
            "overhead {row} vs {reference}: {}/{} = {ratio:.3}x (max {max}x)",
            format_value(a.median, &a.unit),
            format_value(b.median, &b.unit)
        );
        compared += 1;
        if ratio > max {
            failed.push(row.to_owned());
            let _ = writeln!(text, "  [FAIL] {line}");
        } else {
            let _ = writeln!(text, "  [ok]   {line}");
        }
    }
    let common = old_reports.keys().filter(|n| new_reports.contains_key(*n));
    let _ = writeln!(
        text,
        "gate: compared {compared} rows across {} reports; {warnings} warning(s), {} \
         failure(s) (warn >{WARN_RATIO}x, fail >{FAIL_RATIO}x)",
        common.count(),
        failed.len()
    );
    Ok(Gate { text, failed })
}

fn resolve_out_path(target: &Path, name: &str) -> PathBuf {
    let trailing_slash = target
        .as_os_str()
        .to_str()
        .is_some_and(|s| s.ends_with('/'));
    if target.is_dir() || trailing_slash {
        target.join(format!("BENCH_{name}.json"))
    } else {
        target.to_path_buf()
    }
}

/// Walks up from the current directory to the nearest ancestor whose
/// `Cargo.toml` declares a `[workspace]` section.
///
/// Cargo runs bench/test executables with the *package* directory as CWD,
/// so a relative `--json-out bench_out/` passed to a crate's bench would
/// otherwise land in `crates/<pkg>/bench_out/` instead of the repo-level
/// `bench_out/` that the perf gate and committed baselines use.
pub fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
        {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Anchors a relative output path at [`workspace_root`]; absolute paths
/// (and relative ones outside any workspace) pass through untouched.
fn resolve_against_workspace(target: PathBuf) -> PathBuf {
    if target.is_absolute() {
        return target;
    }
    match workspace_root() {
        Some(root) => root.join(target),
        None => target,
    }
}

/// Writes `report` to `out`, a bin's `--json-out PATH` (relative paths
/// resolve against the workspace root), reporting the outcome on stderr.
/// A no-op without a path, so the bins call it unconditionally at the end
/// of the run.
pub fn maybe_write(report: &BenchReport, out: Option<&str>) {
    let Some(out) = out else { return };
    let target = resolve_against_workspace(PathBuf::from(out));
    match report.write(&target) {
        Ok(path) => eprintln!("[bench] report written to {}", path.display()),
        Err(e) => eprintln!("[bench] could not write {}: {e}", target.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_rows() {
        let mut report = BenchReport::new("unit_test");
        report.push_value("case_a/ours", "s", 1.25);
        let row = report.push_samples("kernel/x", "ns", &[3.0, 1.0, 2.0]);
        row.meta.push(("grid".into(), 448.0));
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.results[1].min, 1.0);
        assert_eq!(parsed.results[1].median, 2.0);
        assert_eq!(parsed.results[1].max, 3.0);
        assert_eq!(parsed.results[1].mean, 2.0);
    }

    #[test]
    fn a_report_names_its_isa_and_one_without_loads_as_unknown() {
        let mut report = BenchReport::new("tier");
        assert_eq!(report.isa, ldmo_litho::backend::resolved_isa());
        report.isa = "avx512".into();
        let parsed = BenchReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed.isa, "avx512");
        let legacy = report.to_json().replace("\"isa\":\"avx512\",", "");
        assert!(!legacy.contains("\"isa\""), "{legacy}");
        let parsed = BenchReport::from_json(&legacy).expect("parses");
        assert_eq!(parsed.isa, "unknown");
    }

    #[test]
    fn a_report_names_the_pool_it_ran_on() {
        // one more worker than the machine has cores, so the host's own
        // parallelism cannot pass for the pool's size
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) + 1;
        ldmo_par::set_global_threads(threads);
        assert_eq!(BenchReport::new("pool").threads, threads);
    }

    #[test]
    fn rejects_foreign_json() {
        assert!(BenchReport::from_json("{\"schema\":\"other\"}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn relative_json_out_anchors_at_the_workspace_root() {
        // cargo runs this test with crates/bench as CWD; the walk-up must
        // land on the repo root, one level above the package dir
        let root = workspace_root().expect("tests run inside the workspace");
        let cwd = std::env::current_dir().expect("cwd");
        assert_ne!(root, cwd, "package dir must not masquerade as the root");
        assert!(cwd.starts_with(&root));
        assert_eq!(
            resolve_against_workspace(PathBuf::from("bench_out/")),
            root.join("bench_out/")
        );
        let absolute = cwd.join("explicit.json");
        assert_eq!(resolve_against_workspace(absolute.clone()), absolute);
    }

    #[test]
    fn dir_target_appends_file_name() {
        let path = resolve_out_path(Path::new("bench_out/"), "kernels");
        assert_eq!(path, Path::new("bench_out/BENCH_kernels.json"));
        let path = resolve_out_path(Path::new("explicit.json"), "kernels");
        assert_eq!(path, Path::new("explicit.json"));
    }
}
