//! CLI contract tests for `msserve`: a malformed command line prints the
//! usage to stderr, writes nothing to stdout, and exits 2 before any
//! socket is opened.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn assert_usage_error(bin: &str, args: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // A command line the binary wrongly accepts starts a daemon: fail the
    // test then instead of waiting on it forever.
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("child output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
}

#[test]
fn msserve_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_msserve");
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["--jobs"]);
    assert_usage_error(bin, &["--queue-depth", "deep"]);
    assert_usage_error(bin, &["--port", "7461", "--addr", "127.0.0.1:7462"]);
    assert_usage_error(bin, &["stray"]);
}
