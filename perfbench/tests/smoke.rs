//! Runs the real `perfbench` binary on every workload at test scale and
//! checks the result line, the metric names against `BENCHMARK.json`,
//! and that the error checks fire.

use ms_trace::jsonv::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["ms-lowipc", "ms-highipc", "serve", "toolchain"];

struct Run {
    ok: bool,
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    /// The result line: the last line of standard output.
    fn result(&self) -> JsonValue {
        let last = self.stdout.lines().last().unwrap_or_default();
        jsonv::parse(last).unwrap_or_else(|e| panic!("{e}: {last}\n{}", self.stderr))
    }
}

fn perfbench(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("spawn");
    Run {
        ok: out.status.success(),
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_test_scale(workload: &str, seed: &str, trace: &str, out_dir: &Path, extra: &[&str]) -> Run {
    let out = out_dir.to_str().expect("utf-8 path");
    let mut args = vec!["--workload", workload, "--seed", seed, "--seconds", "0.3"];
    args.extend(["--trace", trace, "--scale", "test", "--out-dir", out]);
    args.extend(extra);
    perfbench(&args)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = jsonv::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    let list = doc.get(section).and_then(JsonValue::as_arr).expect("metric list");
    list.iter()
        .map(|m| {
            let field =
                |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(result: &JsonValue) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{name} has no value"
                );
                (name.clone(), m.get("unit").and_then(JsonValue::as_str).unwrap().to_string())
            })
            .collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let out = scratch("emit");
    for workload in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = run_test_scale(workload, "3", trace, &out, &[]);
            assert!(run.ok, "{workload} trace {trace}: {}\n{}", run.stdout, run.stderr);
            let result = run.result();
            assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
            assert_eq!(emitted(&result), declared(section), "{workload} trace {trace}");
            if trace == "0" {
                assert!(run.stdout.contains("error_rate"), "{}", run.stdout);
            } else {
                let file = out.join(format!("{workload}-seed3.trace.json"));
                assert!(file.exists(), "{} missing", file.display());
            }
        }
    }
}

/// Copies the test-scale expectation file with the first value of
/// `field` on the line of `point` bumped by one.
fn tampered(dir: &Path, point: &str, field: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("expect/test.txt");
    let text = std::fs::read_to_string(src).expect("expectation file");
    let mut hit = false;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.starts_with(&format!("{point} ")) {
                return line.to_string();
            }
            let words: Vec<String> = line
                .split(' ')
                .map(|w| match w.strip_prefix(&format!("{field}=")) {
                    Some(v) => {
                        hit = true;
                        format!("{field}={}", v.parse::<u64>().unwrap() + 1)
                    }
                    None => w.to_string(),
                })
                .collect();
            words.join(" ")
        })
        .collect();
    assert!(hit, "{point} {field} not in the expectation file");
    let path = dir.join("tampered.txt");
    std::fs::write(&path, lines.join("\n")).unwrap();
    path
}

#[test]
fn a_tampered_expectation_is_an_error() {
    for (workload, point, field) in [
        ("ms-lowipc", "compress/ms4", "cycles"),
        ("ms-highipc", "wc/ms8", "ring_sends"),
        ("toolchain", "gcc/size8", "tasks"),
        // A miss: hot points are also checked while the daemon warms up,
        // where a failure stops the run as a set-up error.
        ("serve", "wc/ms4w2ooo", "cycles"),
    ] {
        let dir = scratch(&format!("tamper-{workload}"));
        let expect = tampered(&dir, point, field);
        // `ring_sends` is only checked by the counting pass of a traced run.
        let trace = if field == "ring_sends" { "1" } else { "0" };
        let expect = ["--expect", expect.to_str().unwrap()];
        let run = run_test_scale(workload, "3", trace, &dir, &expect);
        assert!(!run.ok, "{workload}: a tampered expectation passed");
        let result = run.result();
        assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert!(result.get("failed").and_then(JsonValue::as_u64).unwrap() > 0);
        assert!(run.stderr.contains(&format!("{point}: {field}=")), "{}", run.stderr);
    }
}

#[test]
fn diff_lists_only_changed_counters() {
    let dir = scratch("diff");
    for seed in ["1", "2"] {
        let run = run_test_scale("ms-highipc", seed, "1", &dir, &[]);
        assert!(run.ok, "{}", run.stderr);
    }
    let a = dir.join("ms-highipc-seed1.trace.json");
    let b = dir.join("ms-highipc-seed2.trace.json");
    let same = perfbench(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(same.ok, "{}{}", same.stdout, same.stderr);
    assert!(same.stdout.contains("identical"), "{}", same.stdout);
    assert!(same.stdout.contains("core.run.ms8"), "{}", same.stdout);

    let text = std::fs::read_to_string(&b).unwrap();
    let moved = text.replacen("\"wc/ms8.cycles\":", "\"wc/ms8.cycles\":1", 1);
    assert_ne!(moved, text);
    std::fs::write(&b, moved).unwrap();
    let changed = perfbench(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(!changed.ok);
    assert!(changed.stdout.contains("wc/ms8.cycles"), "{}", changed.stdout);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seconds", "x"], &["diff", "one-file"]] {
        let run = perfbench(args);
        assert_eq!(run.code, Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}: {}", run.stdout);
    }
}
