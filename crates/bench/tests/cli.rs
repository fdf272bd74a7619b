//! Command-line checks of the bench bins: a malformed command line exits 2
//! before any work, naming the token at fault.

use std::process::Command;

const BINS: [(&str, &str); 7] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("calibrate_step", env!("CARGO_BIN_EXE_calibrate_step")),
    ("fig1b", env!("CARGO_BIN_EXE_fig1b")),
    ("fig1c", env!("CARGO_BIN_EXE_fig1c")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
];

#[test]
fn every_bin_rejects_a_malformed_command_line_before_any_work() {
    let dir = std::env::temp_dir().join("ldmo_bench_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, exe) in BINS {
        // calibrate_step takes three positionals, so its stray one is a fourth
        let stray = if name == "calibrate_step" {
            "1 2 3 w.bin"
        } else {
            "w.bin"
        };
        let mut cases = vec![
            ("--thread 2", "--thread"),
            ("--json-out", "--json-out"),
            ("--json-out=x", "--json-out=x"),
            (stray, "'w.bin'"),
        ];
        if name == "calibrate_step" {
            cases.extend([("4O", "SIGMA '4O'"), ("40 0 2.5", "MRC '2.5'")]);
        }
        for (line, token) in cases {
            let out = Command::new(exe)
                .current_dir(&dir)
                .args(line.split_whitespace())
                .output()
                .expect("runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {line}: stderr: {err}");
            assert!(err.contains(token), "{name} {line}: stderr: {err}");
            assert!(
                out.stdout.is_empty(),
                "{name} {line}: stdout: {:?}",
                out.stdout
            );
            let written: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
            assert!(written.is_empty(), "{name} {line} wrote {written:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
