//! Integration tests of the `ldmo` command-line binary.

use ldmo::bench::report::{BenchReport, BenchResult};
use std::path::{Path, PathBuf};
use std::process::Command;

fn ldmo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ldmo"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldmo_cli_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn help_lists_subcommands() {
    let out = ldmo().arg("help").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "generate",
        "info",
        "decompose",
        "optimize",
        "flow",
        "chip",
        "train",
        "serve",
        "client",
    ] {
        assert!(text.contains(sub), "help missing '{sub}'");
    }
}

#[test]
fn chip_demo_runs_and_writes_masks() {
    let dir = temp_dir("chip_demo");
    let prefix = dir.join("chip");
    let out = ldmo()
        .args([
            "chip",
            "--tiles",
            "2x1",
            "--seed",
            "11",
            "--tile-iters",
            "2",
            "--tile-candidates",
            "4",
            "--out",
            prefix.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tile grid:        2x1"), "stdout: {text}");
    assert!(text.contains("EPE violations:"), "stdout: {text}");
    for layer in 0..2 {
        let mask = dir.join(format!("chip_mask{layer}.pgm"));
        assert!(mask.exists(), "missing {}", mask.display());
    }
}

#[test]
fn chip_rejects_malformed_tile_grid() {
    let out = ldmo()
        .args(["chip", "--tiles", "0x3"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("COLSxROWS"), "stderr: {err}");
}

#[test]
fn generate_and_train_reject_bad_numbers() {
    let dir = temp_dir("bad_numbers");
    let out_dir = dir.to_str().expect("utf8 path");
    let weights = dir.join("w.bin");
    let weights = weights.to_str().expect("utf8 path");
    for (args, needle) in [
        (
            ["generate", "--seed", "x", "--count", "y", "--out", out_dir].as_slice(),
            "--seed 'x' is not a valid number",
        ),
        (
            &["generate", "--count", "0", "--out", out_dir],
            "--count must be at least 1",
        ),
        (
            &["train", "--pool", "0", "--out", weights],
            "--pool must be at least 1",
        ),
        (
            &["train", "--pool", "x", "--out", weights],
            "--pool 'x' is not a valid number",
        ),
    ] {
        let out = ldmo().args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}: usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: stderr: {err}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

#[test]
fn malformed_global_flags_exit_2_before_any_work() {
    let dir = temp_dir("bad_global_flags");
    let gen = ldmo()
        .args(["generate", "--seed", "7", "--count", "1", "--out"])
        .arg(&dir)
        .output()
        .expect("runs");
    assert!(gen.status.success(), "generate failed");
    let layout = dir.join("layout_7_0.lay");
    for (flag, value) in [("--threads", "0"), ("--threads", "x")] {
        let out = ldmo()
            .arg("info")
            .arg(&layout)
            .args([flag, value])
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {value}: usage errors exit 2"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} '{value}'")),
            "{flag} {value}: stderr: {err}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn unknown_subcommand_fails_with_message() {
    let out = ldmo().arg("frobnicate").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn generate_info_decompose_roundtrip() {
    let dir = temp_dir("roundtrip");
    let out = ldmo()
        .args([
            "generate",
            "--seed",
            "9",
            "--count",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let layout_file = dir.join("layout_9_0.lay");
    assert!(layout_file.exists());

    let info = ldmo()
        .args(["info", layout_file.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("patterns:"));
    assert!(text.contains("DPL-compatible:"));
    assert!(text.contains("decomposition candidates:"));

    let decompose = ldmo()
        .args(["decompose", layout_file.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert!(decompose.status.success());
    let text = String::from_utf8_lossy(&decompose.stdout);
    assert!(text.contains("#0:"), "no candidates listed: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn optimize_rejects_wrong_assignment_length() {
    let dir = temp_dir("badassign");
    assert!(ldmo()
        .args([
            "generate",
            "--seed",
            "4",
            "--count",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ])
        .status()
        .expect("runs")
        .success());
    let layout_file = dir.join("layout_4_0.lay");
    let out = ldmo()
        .args([
            "optimize",
            layout_file.to_str().expect("utf8 path"),
            "--assignment",
            "0",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("assignment covers"), "stderr: {err}");
    // bad mask input on a three-contact layout is a usage error too, caught
    // before the engine could assert on it
    let triangle = dir.join("triangle.lay");
    std::fs::write(
        &triangle,
        "ldmo-layout v1\nwindow 0 0 448 448\n\
         pattern 120 120 184 184\npattern 248 120 312 184\npattern 184 230 248 294\n",
    )
    .expect("writes layout");
    for (masks, expected) in [
        ("2", "allows 0..=1"),
        ("0", "--masks must be 1, 2 or 3"),
        ("x", "--masks must be 1, 2 or 3"),
    ] {
        let out = ldmo()
            .arg("optimize")
            .arg(&triangle)
            .args(["--masks", masks, "--assignment", "0,1,2"])
            .output()
            .expect("runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--masks {masks}: usage errors exit 2"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(expected), "--masks {masks} stderr: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn info_rejects_missing_file() {
    let out = ldmo()
        .args(["info", "/nonexistent/layout.lay"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(5), "missing files exit 5 (I/O)");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("layout"), "stderr: {err}");
}

#[test]
fn info_rejects_malformed_file_with_parse_exit_code() {
    let dir = temp_dir("malformed");
    let path = dir.join("bad.lay");
    std::fs::write(&path, "this is not a layout file\n").expect("write");
    let out = ldmo()
        .args(["info", path.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(3), "parse errors exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_positional_argument_exits_with_usage_code() {
    let out = ldmo().arg("info").output().expect("runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ldmo info"));
}

#[test]
fn flow_rejects_missing_predictor_weights() {
    let dir = temp_dir("badweights");
    assert!(ldmo()
        .args([
            "generate",
            "--seed",
            "6",
            "--count",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ])
        .status()
        .expect("runs")
        .success());
    let layout_file = dir.join("layout_6_0.lay");
    let out = ldmo()
        .args([
            "flow",
            layout_file.to_str().expect("utf8 path"),
            "--predictor",
            "/nonexistent/weights.bin",
        ])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(5), "missing weights exit 5 (I/O)");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("predictor"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flow_names_its_masks_identically_at_1_and_2_threads() {
    // each ILT step runs its masks as lanes on a 2-thread pool; the
    // output, mask hash included, must not depend on it
    let dir = temp_dir("flow_masks");
    assert!(ldmo_in(&dir, "generate --seed 7 --out .").status.success());
    let run = |threads: &str| {
        let out = ldmo_in(&dir, &format!("flow layout_7_0.lay --threads {threads}"));
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "stdout: {text}");
        text
    };
    let (one, two) = (run("1"), run("2"));
    let hash = one
        .lines()
        .find_map(|l| l.strip_prefix("masks:"))
        .unwrap_or_else(|| panic!("no masks line: {one}"))
        .trim();
    assert!(
        hash.len() == 16 && hash.chars().all(|c| c.is_ascii_hexdigit()),
        "masks line: {hash}"
    );
    let untimed = |text: &str| -> Vec<String> {
        let lines = text.lines().filter(|l| !l.starts_with("time:"));
        lines.map(str::to_owned).collect()
    };
    assert_eq!(untimed(&one), untimed(&two));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_fault_spec_exits_with_fault_code() {
    let out = ldmo()
        .env("LDMO_FAULTS", "warp-core@3")
        .arg("help")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(7), "bad LDMO_FAULTS exits 7");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault"), "stderr: {err}");
}

#[test]
fn wellformed_fault_spec_is_accepted() {
    // an installed plan whose coordinates never fire must not change a run
    let out = ldmo()
        .env("LDMO_FAULTS", "nan-grad@9999")
        .arg("help")
        .output()
        .expect("runs");
    assert!(out.status.success());
}

/// Runs `ldmo` on the whitespace-separated `line` in the directory `dir`.
fn ldmo_in(dir: &std::path::Path, line: &str) -> std::process::Output {
    let args = line.split_whitespace();
    ldmo().current_dir(dir).args(args).output().expect("runs")
}

#[test]
fn every_subcommand_rejects_a_malformed_command_line_before_any_work() {
    // (a command line that parses, a misspelt flag, a valued flag it
    // declares): each row yields four malformed command lines
    let rows = [
        ("generate --count 2", "--sed 3", "--out"),
        ("info L.lay", "--thread 2", "--threads"),
        ("decompose L.lay", "--candidates 2", "--trace-out"),
        ("optimize L.lay --assignment 0", "--mask 2", "--out"),
        ("flow L.lay", "--predicter w.bin", "--predictor"),
        ("chip C.lay", "--tile-sise 1", "--out"),
        ("train --pool 1", "--pol 2", "--out"),
        ("trace diff a.jsonl b.jsonl", "--treshold 2", "--threshold"),
        ("bench-report bench_out", "--json-out x", "--gate"),
        ("serve", "--queu 2", "--queue"),
        ("client --requests 0", "--shutdwn", "--addr"),
    ];
    let mut cases: Vec<(String, &str)> = vec![
        ("generate --seed 3 --out".into(), "--out"),
        ("generate --seed=3 --count 2 --out d".into(), "--seed=3"),
        ("chip --tile-iter 1".into(), "--tile-iter"),
        ("info L.lay --sample-hz 50".into(), "--sample-hz"),
        ("bench-report --gate bench_out".into(), "FRESH_DIR"),
    ];
    let equals: Vec<String> = rows.iter().map(|(_, _, v)| format!("{v}=1")).collect();
    for ((base, misspelt, valued), equals) in rows.iter().zip(&equals) {
        let flag = misspelt.split(' ').next().expect("a flag");
        cases.push((format!("{base} {misspelt}"), flag));
        cases.push((format!("{base} {valued}"), valued));
        cases.push((format!("{base} {equals}"), equals));
        cases.push((format!("{base} w.bin"), "'w.bin'"));
    }
    let dir = temp_dir("malformed_command_lines");
    for (line, token) in &cases {
        let out = ldmo_in(&dir, line);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: stderr: {err}");
        assert!(err.contains(token), "{line}: stderr: {err}");
        assert!(out.stdout.is_empty(), "{line}: stdout: {:?}", out.stdout);
        let written: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
        assert!(written.is_empty(), "{line} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn switches_and_global_flags_parse_anywhere_on_every_subcommand() {
    let dir = temp_dir("switches_and_globals");
    let run = |line: &str| ldmo_in(&dir, line);
    let chip = run("chip --tiles 1x1 --tile-iters 1 --trace-out chip.jsonl");
    assert!(chip.status.success(), "chip failed");
    for line in [
        "trace summarize --reconcile chip.jsonl",
        "trace summarize chip.jsonl --reconcile",
    ] {
        let out = run(line);
        assert!(out.status.success(), "{line} failed");
        assert!(String::from_utf8_lossy(&out.stdout).contains("reconcile: 1 "));
    }
    for line in [
        "client --shutdown --requests 0 --addr 127.0.0.1:1",
        "client --requests 0 --addr 127.0.0.1:1 --shutdown",
    ] {
        let out = run(line);
        assert!(out.status.success(), "{line} failed");
        assert!(String::from_utf8_lossy(&out.stderr).contains("drain request failed"));
    }
    // each line gets past the parser and then succeeds or fails on its
    // own terms, with every global flag applied
    let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
    let taken = taken.local_addr().expect("addr");
    for (line, code) in [
        ("help".to_owned(), 0),
        ("generate --out .".into(), 0),
        ("info missing.lay".into(), 5),
        ("decompose missing.lay".into(), 5),
        ("optimize missing.lay --assignment 0".into(), 5),
        ("flow missing.lay".into(), 5),
        ("chip missing.lay".into(), 5),
        ("train --pool 0".into(), 2),
        ("trace summarize missing.jsonl".into(), 6),
        ("bench-report missing".into(), 5),
        (format!("serve --addr {taken}"), 5),
        ("client --requests 0 --addr 127.0.0.1:1".into(), 0),
    ] {
        let (command, rest) = line.split_once(' ').unwrap_or((&line, ""));
        let out = run(&format!(
            "{command} --threads 2 --trace-out g.jsonl {rest} \
             --metrics-addr 127.0.0.1:0"
        ));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{line}: stderr: {err}");
        for started in ["[metrics] serving", "to g.jsonl"] {
            assert!(err.contains(started), "{line}: stderr: {err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn global_flags_fall_back_to_the_environment() {
    let dir = temp_dir("global_env");
    let env = [
        ("LDMO_TRACE", "1"),
        ("LDMO_TRACE_OUT", "env.jsonl"),
        ("LDMO_METRICS_ADDR", "127.0.0.1:0"),
    ];
    let help = |args: &[&str]| {
        let out = ldmo().current_dir(&dir).envs(env).args(args).output();
        let out = out.expect("runs");
        assert!(out.status.success(), "{args:?} failed");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let err = help(&["help"]);
    assert!(dir.join("env.jsonl").exists(), "stderr: {err}");
    assert!(err.contains("[metrics] serving"), "stderr: {err}");
    // a flag wins over its environment twin
    let err = help(&["help", "--trace-out", "flag.jsonl"]);
    assert!(dir.join("flag.jsonl").exists(), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_commands_end_quietly_when_stdout_closes() {
    let dir = temp_dir("closed_stdout");
    let chip = ldmo_in(&dir, "chip --tiles 1x1 --tile-iters 1 --trace-out t.jsonl");
    assert!(chip.status.success(), "chip failed");
    assert!(ldmo_in(&dir, "generate --seed 7 --out .").status.success());
    let reports = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_out");
    let reports = format!("bench-report {}", reports.display());
    for line in [
        reports.as_str(),
        "trace summarize t.jsonl",
        "help",
        "info layout_7_0.lay",
        "decompose layout_7_0.lay",
    ] {
        // the read end is closed before the command starts writing; with
        // tracing on, a panic would also leave a flight dump
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = ldmo()
            .current_dir(&dir)
            .args(line.split_whitespace())
            .args(["--trace-out", "g.jsonl"])
            .stdout(writer)
            .output()
            .expect("runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{line}: stderr: {err}");
        assert!(!err.contains("panicked"), "{line}: stderr: {err}");
    }
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("flight_"))
        .collect();
    assert!(dumps.is_empty(), "dumps written: {dumps:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flight_dump_names_the_revision_the_binary_was_built_from() {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR")])
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    // the stamp names an uncommitted tree: `-dirty` when a tracked file
    // differs from HEAD
    let rev = match git(&["rev-parse", "--short", "HEAD"]) {
        None => "unknown".to_owned(),
        Some(rev) => match git(&[
            "--no-optional-locks",
            "status",
            "--porcelain",
            "--untracked-files=no",
        ]) {
            Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
            _ => rev,
        },
    };
    // the temp dir is outside the source tree, so a revision looked up
    // where the run started would read "unknown"
    let dir = temp_dir("dump_git_rev");
    assert!(ldmo_in(&dir, "generate --seed 7 --out .").status.success());
    let out = ldmo()
        .current_dir(&dir)
        .env("LDMO_FAULTS", "panic@2")
        .args([
            "flow",
            "layout_7_0.lay",
            "--threads",
            "2",
            "--trace-out",
            "t.jsonl",
        ])
        .output()
        .expect("runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {err}");
    let dump = std::fs::read_dir(&dir)
        .expect("temp dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("flight_"))
        })
        .unwrap_or_else(|| panic!("no flight dump; stderr: {err}"));
    let text = std::fs::read_to_string(&dump).expect("dump reads");
    let header = text.lines().next().expect("header line");
    assert!(
        header.contains(&format!("\"git_rev\":\"{rev}\"")),
        "want git_rev {rev}: {header}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed `bench_out/` reports.
fn committed_reports() -> Vec<BenchReport> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_out");
    BenchReport::load_dir(&dir).expect("committed reports load")
}

/// The row `id` of `reports`.
fn row<'a>(reports: &'a mut [BenchReport], id: &str) -> &'a mut BenchResult {
    let mut rows = reports.iter_mut().flat_map(|r| &mut r.results);
    rows.find(|r| r.id == id).expect("a committed row")
}

#[test]
fn bench_gate_verdicts_on_edited_copies_of_the_committed_reports() {
    type Edit = fn(&mut Vec<BenchReport>);
    // (fixture, edit to the fresh copy, exit code, lines that must show)
    let cases: [(&str, Edit, i32, &[&str]); 8] = [
        (
            "identical",
            |_| {},
            0,
            &["compared 52 rows across 6 reports; 0 warning(s), 0 failure(s)"],
        ),
        (
            "ten_times",
            |r| row(r, "litho/aerial_image_224").median *= 10.0,
            8,
            &[
                "[FAIL] kernels:litho/aerial_image_224",
                "(kernels:litho/aerial_image_224)",
            ],
        ),
        (
            "four_times",
            |r| row(r, "litho/aerial_image_224").median *= 4.0,
            0,
            &[
                "[warn] kernels:litho/aerial_image_224",
                "1 warning(s), 0 failure(s)",
            ],
        ),
        (
            "one_sided",
            |r| {
                r.retain(|report| report.name != "par");
                row(r, "litho/aerial_image_224").id = "litho/renamed".into();
            },
            0,
            &[
                "[only-baseline] report par",
                "[only-baseline] kernels:litho/aerial_image_224",
                "[only-fresh]    kernels:litho/renamed",
            ],
        ),
        (
            "fast_flipped",
            |r| {
                r.iter_mut()
                    .filter(|r| r.name == "chip")
                    .for_each(|r| r.fast = false)
            },
            6,
            &["bench report 'chip'", "fast mode differs"],
        ),
        (
            // another vector tier is noted, never fatal
            "isa_differs",
            |r| {
                r.iter_mut()
                    .filter(|r| r.name == "kernels")
                    .for_each(|r| r.isa = "sse2".into())
            },
            0,
            &[
                "[note] report kernels: isa differs",
                "0 warning(s), 0 failure(s)",
            ],
        ),
        (
            "no_liveops",
            |r| {
                r.iter_mut()
                    .for_each(|r| r.results.retain(|x| x.id != "ilt/step_liveops"))
            },
            6,
            &["overhead row 'ilt/step_liveops'"],
        ),
        (
            // a faster uncached round-trip puts the cached one at 3% of it
            "slow_cache_hit",
            |r| {
                let hit = row(r, "serve/cached_requests_per_sec").median;
                row(r, "serve/requests_per_sec").median = hit / 0.03;
            },
            8,
            &[
                "[FAIL] overhead serve/cached_requests_per_sec",
                "0 warning(s), 1 failure(s)",
            ],
        ),
    ];
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_out");
    for (tag, edit, code, needles) in cases {
        let dir = temp_dir(&format!("gate_{tag}"));
        let mut reports = committed_reports();
        edit(&mut reports);
        for report in &reports {
            report.write(&dir).expect("fixture written");
        }
        let out = ldmo()
            .arg("bench-report")
            .arg(&dir)
            .arg("--gate")
            .arg(&baseline)
            .output()
            .expect("runs");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{tag}: {text}");
        for needle in needles {
            assert!(text.contains(needle), "{tag}: no '{needle}' in {text}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bench_gate_rejects_a_malformed_report() {
    let dir = temp_dir("gate_malformed");
    for report in committed_reports() {
        report.write(&dir).expect("fixture written");
    }
    std::fs::write(dir.join("BENCH_torn.json"), "{\"schema\":\"ldmo-bench-re").expect("writes");
    let baseline = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench_out");
    let out = ldmo()
        .arg("bench-report")
        .arg(&dir)
        .arg("--gate")
        .arg(&baseline)
        .output()
        .expect("runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "stderr: {err}");
    assert!(err.contains("BENCH_torn.json"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
