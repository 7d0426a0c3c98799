//! CLI contract tests for `mschaos`: a malformed command line prints the
//! usage to stderr, writes nothing to stdout, and exits 2 before any
//! campaign point runs.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_mschaos")).args(args).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
}

#[test]
fn mschaos_rejects_malformed_command_lines() {
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["--seeds"]);
    assert_usage_error(&["--units", "0"]);
    assert_usage_error(&["--units", "65"]);
    assert_usage_error(&["--watchdog", "0"]);
    assert_usage_error(&["--artifacts", "dir"]);
    assert_usage_error(&["stray"]);
}
