//! CLI contract tests for `mscheck` and `mspart`.
//!
//! Pins three behaviours that regressed or nearly regressed:
//!
//! * unknown `--` flags are rejected with usage text and exit 2 (a typo
//!   like `--lsit` used to silently run a plain check and exit 0), and
//!   so are options given without their value,
//! * `mscheck --list` keeps stdout machine-clean: the listing is the
//!   only stdout output, diagnostics and the summary go to stderr,
//! * malformed-annotation programs exit 1 (distinct from usage errors).

use std::path::PathBuf;
use std::process::{Command, Output};

const CLEAN: &str = "
main:
.task targets=halt create=$2
A:
    li!f $2, 1
    halt
";

/// A program whose task annotation is wrong (missing exit target).
const BROKEN: &str = "
main:
.task targets=halt create=$2
A:
    addiu!f $2, $2, 1
    bne!s $2, $16, A
    halt
";

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("ms-cfg-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp program");
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn mscheck_rejects_unknown_flags_with_usage() {
    let path = write_temp("unknown-flag.s", CLEAN);
    let out = run(env!("CARGO_BIN_EXE_mscheck"), &["--lsit", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--lsit"), "stderr names the bad flag: {stderr}");
    assert!(stderr.contains("usage:"), "stderr shows usage: {stderr}");
    assert!(out.stdout.is_empty(), "nothing on stdout for usage errors");
}

#[test]
fn mspart_rejects_unknown_flags_with_usage() {
    let out = run(env!("CARGO_BIN_EXE_mspart"), &["--lsit"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--lsit") && stderr.contains("usage:"), "{stderr}");
}

#[test]
fn mspart_rejects_options_without_values_with_usage() {
    for args in [&["--workload", "wc", "--policy"][..], &["--scale"]] {
        let out = run(env!("CARGO_BIN_EXE_mspart"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: missing value must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs a value") && stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing on stdout for usage errors");
    }
}

#[test]
fn mscheck_list_keeps_stdout_machine_clean() {
    // Even with diagnostics (BROKEN has errors), stdout must contain
    // only the listing — parseable by a pipeline.
    let path = write_temp("list-clean.s", BROKEN);
    let out = run(env!("CARGO_BIN_EXE_mscheck"), &["--list", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "annotation errors exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stdout.contains("error"), "diagnostics leaked to stdout: {stdout}");
    assert!(!stdout.contains("tasks,"), "summary leaked to stdout: {stdout}");
    assert!(stderr.contains("not among its descriptor targets"), "{stderr}");
    assert!(stderr.contains("errors"), "summary moved to stderr: {stderr}");
    // The listing itself still lands on stdout.
    assert!(stdout.contains("addiu"), "listing on stdout: {stdout}");
}

#[test]
fn mscheck_exit_codes_separate_errors_from_usage() {
    let clean = write_temp("clean.s", CLEAN);
    let broken = write_temp("broken.s", BROKEN);
    let ok = run(env!("CARGO_BIN_EXE_mscheck"), &[clean.to_str().unwrap()]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
    let bad = run(env!("CARGO_BIN_EXE_mscheck"), &[broken.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    let none = run(env!("CARGO_BIN_EXE_mscheck"), &[]);
    assert_eq!(none.status.code(), Some(2), "missing positional is a usage error");
}

#[test]
fn mspart_partitions_a_scalar_file_end_to_end() {
    let src = "
main:
    li $16, 3
LOOP:
    addiu $16, $16, -1
    bne $16, $0, LOOP
    halt
";
    let path = write_temp("scalar-loop.s", src);
    let out = run(
        env!("CARGO_BIN_EXE_mspart"),
        &["--policy", "size=2", "--report", "-", path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"multiscalar-part/v1\""), "{stdout}");
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    assert!(stdout.contains("0 errors"), "{stdout}");
}
