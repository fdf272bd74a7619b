//! Process and host facts stamped into every run: peak memory, the source
//! revision, the host's core count.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in MiB. `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the checkout was built from, resolved from `.git` in the
/// working directory; `"unknown"` for an exported tree, which carries no
/// history.
pub fn source_rev() -> String {
    git_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned())
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}

/// CPU time (user + system) this process has used so far. `None` where
/// `/proc/self/stat` is unavailable.
pub fn cpu_time() -> Option<std::time::Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(std::time::Duration::from_millis(ticks * 10))
}

/// Host-wide CPU ticks as `(steal, total)` from `/proc/stat`: time the
/// hypervisor gave this machine's virtual CPUs to someone else. `None`
/// where `/proc/stat` is unavailable.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Prints the share of host CPU time stolen by the hypervisor since
/// `before` (a [`host_ticks`] reading): the context for a noisy run.
pub fn print_steal(before: Option<(u64, u64)>) {
    if let (Some((s0, t0)), Some((s1, t1))) = (before, host_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "host: {:.1}% of CPU time stolen during the window",
            100.0 * share
        );
    }
}

/// Cores the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
