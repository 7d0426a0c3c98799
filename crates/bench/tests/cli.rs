//! CLI contract tests for `msperf`, `msprof`, `mssweep`, `mstrace` and
//! `tables`: a malformed command line prints the usage to stderr, writes
//! nothing to stdout, and exits 2 — before any simulation starts. Also
//! what `mssweep --cpi --metrics` writes, and what it leaves in the cache.

use ms_trace::jsonv;
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
    assert_usage_error(bin, &["--machines", "ms65"]);
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
    assert_usage_error(bin, &["run", "--machines", "ms65"]);
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
    assert_usage_error(bin, &["--units", "4,65", "--widths", "1"]);
}

#[test]
fn mstrace_rejects_malformed_command_lines() {
    let bin = env!("CARGO_BIN_EXE_mstrace");
    assert_usage_error(bin, &["wc", "--bogus"]);
    assert_usage_error(bin, &["wc", "--out-dir"]);
    assert_usage_error(bin, &["wc", "--units", "0"]);
    assert_usage_error(bin, &["wc", "--scale", "test", "--units", "65"]);
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

/// `mssweep --cpi --metrics` gives each multiscalar entry of
/// `results.json` its CPI stack and writes one metrics report per
/// executed multiscalar job, but the cache stores neither: a plain sweep
/// over the same cache afterwards is all hits and writes the bytes of a
/// plain uncached sweep.
#[test]
fn mssweep_cpi_and_metrics_stay_out_of_the_cache() {
    let dir = std::env::temp_dir().join(format!("ms-bench-cli-cpi-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("cache").display().to_string();
    let sweep = |out: &str, extra: &[&str]| -> String {
        let o = Command::new(env!("CARGO_BIN_EXE_mssweep"))
            .args(["--workloads", "wc", "--scale", "test", "--units", "4", "--widths", "1"])
            .args(["--order", "inorder", "--quiet", "--out-dir"])
            .arg(dir.join(out))
            .args(extra)
            .output()
            .expect("mssweep runs");
        let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
        assert!(o.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&o.stderr));
        stdout
    };
    let read = |path: &str| std::fs::read_to_string(dir.join(path)).expect("artifact exists");

    let stdout = sweep("cpi", &["--cpi", "--metrics", "--cache-dir", &cache]);
    assert!(stdout.contains("sweep: 2 jobs, 2 executed, 0 cached, 0 failed"), "{stdout}");
    let results = jsonv::parse(&read("cpi/results.json")).expect("results.json parses");
    let jobs = results.get("jobs").and_then(|j| j.as_arr()).expect("a jobs array");
    let kinds: Vec<_> = jobs.iter().map(|j| j.get("kind").and_then(|k| k.as_str())).collect();
    assert_eq!(kinds, [Some("scalar"), Some("multiscalar")]);
    assert!(jobs[0].get("cpi").is_none(), "the scalar job has no stack");
    let conserved = jobs[1].get("cpi").and_then(|c| c.get("conserved"));
    assert_eq!(conserved.and_then(|c| c.as_bool()), Some(true), "the ms4 job's stack conserves");

    let metrics: Vec<_> = std::fs::read_dir(dir.join("cpi/metrics"))
        .expect("metrics/ exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    assert_eq!(metrics.len(), 1, "one report per executed multiscalar job: {metrics:?}");
    let report = std::fs::read_to_string(&metrics[0]).expect("readable report");
    let report = jsonv::parse(&report).expect("the metrics report parses");
    assert_eq!(report.get("tasks_retired").and_then(|t| t.as_u64()), Some(302));

    let stdout = sweep("warm", &["--cache-dir", &cache]);
    assert!(stdout.contains("sweep: 2 jobs, 0 executed, 2 cached, 0 failed"), "{stdout}");
    let stdout = sweep("cold", &["--no-cache"]);
    assert!(stdout.contains("sweep: 2 jobs, 2 executed, 0 cached, 0 failed"), "{stdout}");
    assert_eq!(read("warm/results.json"), read("cold/results.json"));
    let _ = std::fs::remove_dir_all(&dir);
}
