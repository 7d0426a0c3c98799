//! CLI contract tests for `msperf`, `msprof`, `mssweep`, `mstrace` and
//! `tables`: a malformed command line prints the usage to stderr, writes
//! nothing to stdout, and exits 2 — before any simulation starts.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
}

#[test]
fn msperf_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_msperf");
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["--scale", "test", "--reps"]);
    assert_usage_error(bin, &["--reps", "0"]);
    assert_usage_error(bin, &["--machines", "ms0"]);
    assert_usage_error(bin, &["--workloads", "wc,nosuch"]);
}

#[test]
fn msprof_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_msprof");
    assert_usage_error(bin, &[]);
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["run", "--bogus"]);
    assert_usage_error(bin, &["run", "--out"]);
    assert_usage_error(bin, &["run", "--machines", "scalar"]);
    assert_usage_error(bin, &["diff", "--bogus", "a.json", "b.json"]);
    assert_usage_error(bin, &["diff", "a.json"]);
}

#[test]
fn mssweep_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_mssweep");
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["--jobs"]);
    assert_usage_error(bin, &["--order", "sideways"]);
    assert_usage_error(bin, &["--widths", "1,"]);
    assert_usage_error(bin, &["--list", "--scale", "huge"]);
}

#[test]
fn mssweep_machine_space_errors_are_usage_errors_not_panics() {
    // Both used to reach a `SimConfig` assert and exit 101.
    let bin = env!("CARGO_BIN_EXE_mssweep");
    assert_usage_error(bin, &["--units", "0"]);
    assert_usage_error(bin, &["--widths", "3"]);
    assert_usage_error(bin, &["--units", "4,0", "--widths", "1"]);
}

#[test]
fn mstrace_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_mstrace");
    assert_usage_error(bin, &["wc", "--bogus"]);
    assert_usage_error(bin, &["wc", "--out-dir"]);
    assert_usage_error(bin, &["wc", "--units", "0"]);
    assert_usage_error(bin, &["wc", "cmp"]);
    assert_usage_error(bin, &["--list", "wc", "cmp"]);
    assert_usage_error(bin, &[]);
    assert_usage_error(bin, &["nosuch"]);
}

#[test]
fn tables_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_tables");
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["table1", "--jobs"]);
    assert_usage_error(bin, &["table9"]);
    assert_usage_error(bin, &["table1", "table2"]);
    // `--json` needs a selector that computes table 3 or 4; the check
    // runs before table 1 is printed.
    assert_usage_error(bin, &["table1", "--json", "unused.json"]);
}

#[test]
fn list_prints_the_suite_and_accepts_the_value_spelling() {
    for bin in [env!("CARGO_BIN_EXE_mssweep"), env!("CARGO_BIN_EXE_mstrace")] {
        let out = Command::new(bin).args(["--scale=TEST", "--list"]).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout.lines().count(), 10, "{stdout}");
        assert!(stdout.starts_with("Compress"), "{stdout}");
    }
}
