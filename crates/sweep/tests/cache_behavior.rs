//! End-to-end cache semantics: warm re-runs execute nothing, key changes
//! invalidate exactly the changed point, corruption is detected,
//! quarantined and recomputed to the same artifact bytes.

use ms_sweep::artifacts::results_json;
use ms_sweep::{run_jobs, run_sweep, Job, JobKind, SweepCache, SweepOptions, SweepSpec};
use ms_workloads::Scale;
use multiscalar::SimConfig;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ms-sweep-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(dir: &PathBuf) -> SweepOptions {
    SweepOptions { jobs: 2, cache: SweepCache::at(dir), ..SweepOptions::default() }
}

fn spec() -> SweepSpec {
    SweepSpec {
        workloads: vec!["Wc".into(), "Cmp".into()],
        widths: vec![1],
        unit_counts: vec![4],
        ..SweepSpec::table34(Scale::Test, false)
    }
}

#[test]
fn second_identical_run_executes_zero_jobs() {
    let dir = tmpdir("warm");
    let cold = run_sweep(&spec(), &opts(&dir));
    assert_eq!(cold.executed, cold.total());
    assert_eq!(cold.cache_hits, 0);

    let warm = run_sweep(&spec(), &opts(&dir));
    assert_eq!(warm.executed, 0, "warm run must execute nothing");
    assert_eq!(warm.cache_hits, warm.total());
    for (c, w) in cold.successes().zip(warm.successes()) {
        assert_eq!(c.job, w.job);
        assert_eq!(c.stats.cycles, w.stats.cycles);
        assert!(!c.cached && w.cached);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn changing_one_config_field_invalidates_exactly_that_point() {
    let dir = tmpdir("invalidate-cfg");
    let jobs = spec().expand();
    let n = jobs.len();
    assert_eq!(run_jobs(jobs.clone(), &opts(&dir)).executed, n);

    // Same sweep, but one multiscalar point gets a different ARB
    // capacity (a field outside the table axes).
    let mut changed = jobs.clone();
    let target = changed
        .iter_mut()
        .find(|j| j.kind == JobKind::Multiscalar)
        .expect("spec has multiscalar points");
    target.cfg.arb_capacity = 64;
    let report = run_jobs(changed, &opts(&dir));
    assert_eq!(report.executed, 1, "exactly the changed point re-executes");
    assert_eq!(report.cache_hits, n - 1);

    // Changing one job's workload *scale* likewise re-executes only it.
    let mut rescaled = jobs.clone();
    rescaled[0].scale = Scale::Full;
    let report = run_jobs(rescaled, &opts(&dir));
    assert_eq!(report.executed, 1, "exactly the rescaled point re-executes");
    assert_eq!(report.cache_hits, n - 1);

    // The original sweep is still fully cached.
    assert_eq!(run_jobs(jobs, &opts(&dir)).executed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_are_recomputed_not_trusted() {
    let dir = tmpdir("corrupt");
    // One cache handle across every rerun, so its quarantine count adds up.
    let cache = SweepCache::at(&dir);
    let opts = SweepOptions { jobs: 2, cache: cache.clone(), ..SweepOptions::default() };
    let job = |workload: &str| Job {
        workload: workload.into(),
        scale: Scale::Test,
        kind: JobKind::Multiscalar,
        cfg: SimConfig::multiscalar(4),
        partition: None,
    };
    // Wc's entry is torn below; Cmp's stays intact throughout.
    let jobs = vec![job("Wc"), job("Cmp")];
    let cold = results_json(&run_jobs(jobs.clone(), &opts));

    let torn: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .filter(|p| std::fs::read_to_string(p).unwrap().contains("|workload=wc|"))
        .collect();
    assert_eq!(torn.len(), 1);

    for (n, (tag, mutate)) in [
        (
            "truncated",
            Box::new(|t: &str| t[..t.len() / 3].to_string()) as Box<dyn Fn(&str) -> String>,
        ),
        ("bit-flipped", Box::new(|t: &str| t.replacen("cycles", "cycels", 1))),
        ("garbage", Box::new(|_: &str| "not a cache entry at all\n".to_string())),
        ("tail-appended", Box::new(|t: &str| format!("{t}torn tail\n"))),
    ]
    .into_iter()
    .enumerate()
    {
        let original = std::fs::read_to_string(&torn[0]).unwrap();
        std::fs::write(&torn[0], mutate(&original)).unwrap();
        let report = run_jobs(jobs.clone(), &opts);
        assert_eq!(
            (report.executed, report.cache_hits),
            (1, 1),
            "{tag}: the torn entry is recomputed, the intact one still hits"
        );
        assert_eq!(results_json(&report), cold, "{tag}: rerun bytes != cold run bytes");
        assert_eq!(cache.quarantined(), n as u64 + 1, "{tag}: the torn entry is quarantined");
    }

    // The recompute rewrote a valid entry: both points hit again.
    assert_eq!(run_jobs(jobs, &opts).cache_hits, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn env_override_selects_the_cache_directory() {
    // Constructor behavior only (no env mutation: tests run in parallel
    // threads and `set_var` is process-global).
    let c = SweepCache::at("/some/dir");
    assert_eq!(c.dir().unwrap(), std::path::Path::new("/some/dir"));
    assert!(SweepCache::from_env().is_enabled(), "default cache location is always enabled");
    assert!(!SweepCache::disabled().is_enabled());
}
