//! CLI contract tests for `msfuzz`: a malformed command line prints the
//! usage to stderr, writes nothing to stdout, and exits 2.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_msfuzz")).args(args).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
}

#[test]
fn msfuzz_rejects_malformed_command_lines() {
    assert_usage_error(&["--bogus"]);
    assert_usage_error(&["--count"]);
    assert_usage_error(&["--count", "0"]);
    assert_usage_error(&["--seed", "0xZZ"]);
    assert_usage_error(&["--mode", "gentle"]);
    assert_usage_error(&["--no-shrink=yes"]);
    assert_usage_error(&["stray"]);
}

#[test]
fn msfuzz_reads_hex_seeds_in_either_spelling() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_msfuzz")).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let spaced = run(&["--emit-seed", "0x2a"]);
    assert!(!spaced.is_empty());
    assert_eq!(spaced, run(&["--emit-seed=42"]));
}
