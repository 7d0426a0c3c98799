//! CLI contract tests for `wldbg`: a malformed command line prints the
//! usage to stderr, writes nothing to stdout, and exits 2; the options
//! never shift the positional arguments.

use std::process::Command;

fn wldbg(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wldbg")).args(args).output().expect("wldbg runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = wldbg(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
}

#[test]
fn wldbg_rejects_malformed_command_lines() {
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["Wc", "--max-cycles"]);
    assert_usage_error(&["Wc", "--max-cycles", "many"]);
    assert_usage_error(&["Wc", "sideways"]);
    assert_usage_error(&["Wc", "ms", "four"]);
    assert_usage_error(&["Wc", "ms", "4", "extra"]);
}

#[test]
fn unknown_workloads_and_zero_units_are_usage_errors_not_panics() {
    assert_usage_error(&["nosuch"]);
    assert_usage_error(&["Wc", "ms", "0"]);
}

#[test]
fn max_cycles_leaves_the_default_scalar_mode_in_place() {
    // `--max-cycles 50` used to be read as the mode and the unit count.
    let out = wldbg(&["Wc", "--max-cycles", "50"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("Wc scalar:"), "{stdout}");
    assert!(stdout.contains("exceeded 50 cycles"), "{stdout}");
    assert_eq!(out.status.code(), Some(1), "a timed-out run is a run failure");
}

#[test]
fn a_multiscalar_run_reports_its_stats() {
    let out = wldbg(&["--max-cycles=3000000", "Wc", "ms", "2"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Wc ms: ok\n"));
}
