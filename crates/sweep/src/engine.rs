//! The execution engine: cache probe, worker pool, deterministic
//! result assembly.
//!
//! Execution happens in three phases:
//!
//! 1. **Probe** — every job's cache key is looked up serially; hits are
//!    settled immediately without touching a simulator.
//! 2. **Execute** — the remaining jobs run on a pool of
//!    [`SweepOptions::jobs`] `std::thread` workers pulling indices off a
//!    shared atomic counter. Each result lands in the slot its job
//!    occupied in the input order, so the assembled report is identical
//!    no matter how many workers ran or how they interleaved.
//! 3. **Assemble** — outcomes are returned in input order inside a
//!    [`SweepReport`]. A failed design point becomes a [`JobFailure`]
//!    carrying the job identity; it never aborts the rest of the sweep.
//!
//! *Where* a job actually simulates is pluggable: the pool hands each
//! job to an [`Executor`]. The default [`InProcessExecutor`] simulates
//! on the calling thread; other executors (counting, gated and
//! panicking test shims, a benchmark's timing wrapper) implement the
//! same one-job contract and inherit the engine's deterministic
//! assembly and caching unchanged.

use crate::cache::SweepCache;
use crate::job::{Job, JobKind};
use crate::spec::SweepSpec;
use ms_trace::{MetricsSink, TeeSink};
use ms_workloads::{by_name, Scale, Workload};
use multiscalar::{CpiAccountant, RunStats};
use std::collections::HashMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a sweep should be executed.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    /// `1` gives the exact serial execution order.
    pub jobs: usize,
    /// Result cache (default: disabled — opt in with
    /// [`SweepCache::from_env`] or [`SweepCache::at`]).
    pub cache: SweepCache,
    /// Emit one progress line per settled job to stderr.
    pub progress: bool,
    /// If set, every *executed* multiscalar job also runs with a
    /// [`MetricsSink`] attached and writes its
    /// [`ms_trace::MetricsReport`] JSON into this directory. Multiscalar
    /// jobs then bypass the cache probe (a cached result has no event
    /// stream to fold), though their results are still stored for later
    /// metric-less sweeps.
    pub metrics_dir: Option<PathBuf>,
    /// Run every multiscalar job with a live [`multiscalar::CpiAccountant`]
    /// so each outcome's [`RunStats::cpi`] carries the per-point CPI
    /// stack. Like `metrics_dir`, this makes multiscalar jobs bypass the
    /// cache probe (a cached result has no CPI stack), while results are
    /// still stored — the cache serialization excludes the CPI stack, so
    /// cache keys and bytes are identical either way.
    pub cpi: bool,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: 0,
            cache: SweepCache::disabled(),
            progress: false,
            metrics_dir: None,
            cpi: false,
        }
    }
}

impl SweepOptions {
    /// The number of workers to spawn for `pending` runnable jobs.
    pub fn worker_count(&self, pending: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.jobs
        };
        requested.clamp(1, pending.max(1))
    }
}

/// Where one job's simulation actually runs.
///
/// The engine resolves workloads, probes the cache, orders results, and
/// schedules jobs onto worker threads; an `Executor` only answers "run
/// this job, give me validated stats". Implementations must be safe to
/// call from many threads at once.
pub trait Executor: Send + Sync {
    /// Executes one resolved job to completion. `slot` is the job's
    /// position in the input order (used to name per-job artifacts);
    /// errors are human-readable strings carried into [`JobFailure`].
    fn run(&self, job: &Job, workload: &Workload, slot: usize) -> Result<RunStats, String>;

    /// Short executor name for logs and stats endpoints.
    fn name(&self) -> &str;
}

/// The default executor: simulate in this process, on the calling
/// thread, with optional per-job metrics artifacts and CPI accounting.
#[derive(Clone, Debug, Default)]
pub struct InProcessExecutor {
    /// See [`SweepOptions::metrics_dir`].
    pub metrics_dir: Option<PathBuf>,
    /// See [`SweepOptions::cpi`].
    pub cpi: bool,
}

impl InProcessExecutor {
    /// A plain executor: no metrics artifacts, no CPI accounting.
    pub fn new() -> InProcessExecutor {
        InProcessExecutor::default()
    }

    /// The executor a [`SweepOptions`] describes.
    pub fn from_options(opts: &SweepOptions) -> InProcessExecutor {
        InProcessExecutor { metrics_dir: opts.metrics_dir.clone(), cpi: opts.cpi }
    }
}

impl Executor for InProcessExecutor {
    fn run(&self, job: &Job, w: &Workload, slot: usize) -> Result<RunStats, String> {
        match job.kind {
            JobKind::Scalar => w.run_scalar(job.cfg).map_err(|e| e.to_string()),
            JobKind::Multiscalar => match (&self.metrics_dir, self.cpi) {
                (None, false) => w.run_multiscalar(job.cfg).map_err(|e| e.to_string()),
                (None, true) => w
                    .run_multiscalar_with_sink(job.cfg, CpiAccountant::new())
                    .0
                    .map_err(|e| e.to_string()),
                (Some(dir), cpi) => {
                    let (stats, metrics) = if cpi {
                        let sink = TeeSink(MetricsSink::new(), CpiAccountant::new());
                        let (stats, TeeSink(metrics, _)) =
                            w.run_multiscalar_with_sink(job.cfg, sink);
                        (stats, metrics)
                    } else {
                        w.run_multiscalar_with_sink(job.cfg, MetricsSink::new())
                    };
                    let stats = stats.map_err(|e| e.to_string())?;
                    let name = format!("{slot:04}-{}.json", job.id().replace('/', "_"));
                    let path = dir.join(name);
                    std::fs::write(&path, metrics.into_report().to_json())
                        .map_err(|e| format!("writing metrics {}: {e}", path.display()))?;
                    Ok(stats)
                }
            },
        }
    }

    fn name(&self) -> &str {
        "in-process"
    }
}

/// Runs one cache-missed job on `exec` and publishes the result to the
/// cache — the single compute path shared by the sweep worker pool and
/// the `ms-serve` daemon, so a served response and a sweep artifact for
/// the same design point are the same bytes by construction.
///
/// The executor runs under a panic guard, so a job that panics settles
/// as a failure like any other: the rest of a sweep completes, and a
/// daemon keeps serving.
///
/// A cache-store failure degrades to "not cached" (reported to stderr);
/// the result is still valid and returned.
///
/// # Errors
/// Propagates the executor's failure string (assembly, simulation,
/// validation, or artifact I/O), or `executor panicked: …` with the
/// panic's message.
pub fn compute_and_store(
    job: &Job,
    workload: &Workload,
    fingerprint: u64,
    cache: &SweepCache,
    exec: &dyn Executor,
    slot: usize,
) -> Result<RunStats, String> {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| exec.run(job, workload, slot)));
    let stats = run.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        Err(format!("executor panicked: {msg}"))
    })?;
    if let Err(e) = cache.store(&job.cache_key(fingerprint), &stats) {
        eprintln!("ms-sweep: cache store failed for {}: {e}", job.id());
    }
    Ok(stats)
}

/// A successfully settled design point.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job that produced this result.
    pub job: Job,
    /// The validated simulation result.
    pub stats: RunStats,
    /// Whether the result came from the cache (no simulation executed).
    pub cached: bool,
}

/// A design point that failed, identified precisely so the rest of the
/// sweep remains usable.
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// The job that failed.
    pub job: Job,
    /// What went wrong (assembly, simulation, validation, or artifact
    /// I/O).
    pub error: String,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.job.id(), self.error)
    }
}

impl std::error::Error for JobFailure {}

/// The result of a sweep: per-job outcomes in spec order plus execution
/// accounting.
#[derive(Debug)]
pub struct SweepReport {
    /// One entry per job, in the exact order the jobs were given.
    pub outcomes: Vec<Result<JobOutcome, JobFailure>>,
    /// Jobs dispatched to a simulator (cache misses).
    pub executed: usize,
    /// Jobs settled from the cache without simulating.
    pub cache_hits: usize,
}

impl SweepReport {
    /// Total number of jobs.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// The failed design points, in sweep order.
    pub fn failures(&self) -> impl Iterator<Item = &JobFailure> {
        self.outcomes.iter().filter_map(|o| o.as_ref().err())
    }

    /// The successful design points, in sweep order.
    pub fn successes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }

    /// Looks up the outcome for an exact job (workload, scale, kind, and
    /// full config must all match).
    pub fn get(&self, job: &Job) -> Option<&JobOutcome> {
        self.successes().find(|o| &o.job == job)
    }

    /// All outcomes, or the first failure if any point failed.
    pub fn into_results(self) -> Result<Vec<JobOutcome>, JobFailure> {
        let mut ok = Vec::with_capacity(self.outcomes.len());
        for o in self.outcomes {
            ok.push(o?);
        }
        Ok(ok)
    }
}

/// Expands `spec` and executes it. See [`run_jobs`].
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> SweepReport {
    run_jobs(spec.expand(), opts)
}

type WorkloadTable = HashMap<(String, Scale, Option<String>), Result<(Workload, u64), String>>;

/// Resolves one job's workload and content fingerprint: the named
/// built-in at `scale`, run through the automatic task partitioner when
/// `partition` carries a [`ms_cfg::PartitionPolicy`] stable key. The
/// partitioned variant keeps the workload's name, inputs and memory
/// expectations — only the task annotations change — and fingerprints
/// over the *partitioned* source, so cached results can never alias
/// across policies.
///
/// # Errors
/// The workload name is unknown, the partition key does not parse, or
/// the partitioner rejects the program.
pub fn resolve_workload(
    name: &str,
    scale: Scale,
    partition: Option<&str>,
) -> Result<(Workload, u64), String> {
    let w = by_name(name, scale)
        .ok_or_else(|| format!("unknown workload `{}`", name.to_ascii_lowercase()))?;
    let w = match partition {
        None => w,
        Some(key) => {
            let policy = ms_cfg::PartitionPolicy::from_stable_key(key)
                .map_err(|e| format!("bad partition key `{key}`: {e}"))?;
            let part = ms_cfg::partition_source(&w.source, &policy)
                .map_err(|e| format!("partitioning under `{key}` failed: {e}"))?;
            Workload {
                name: w.name,
                description: w.description,
                source: part.source,
                checks: w.checks,
            }
        }
    };
    let fp = w.fingerprint();
    Ok((w, fp))
}

fn resolve_workloads(jobs: &[Job]) -> WorkloadTable {
    let mut table = WorkloadTable::new();
    for j in jobs {
        table
            .entry((j.workload.to_ascii_lowercase(), j.scale, j.partition.clone()))
            .or_insert_with(|| resolve_workload(&j.workload, j.scale, j.partition.as_deref()));
    }
    table
}

struct Progress {
    enabled: bool,
    done: AtomicUsize,
    total: usize,
}

impl Progress {
    fn new(enabled: bool, total: usize) -> Self {
        Progress { enabled, done: AtomicUsize::new(0), total }
    }

    fn tick(&self, job: &Job, note: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if self.enabled {
            eprintln!("[{done}/{}] {} {note}", self.total, job.id());
        }
    }
}

/// Runs an explicit job list (the lower-level entry point; ablation-style
/// sweeps can hand-build jobs with arbitrary [`multiscalar::SimConfig`]s).
/// Results come back in input order; see the module docs for the phases.
pub fn run_jobs(jobs: Vec<Job>, opts: &SweepOptions) -> SweepReport {
    run_jobs_with(jobs, opts, &InProcessExecutor::from_options(opts))
}

/// Like [`run_jobs`], but every cache-missed job executes on `exec`
/// instead of the default [`InProcessExecutor`]. The engine still owns
/// workload resolution, the cache probe, the worker pool, and the
/// deterministic input-order assembly.
pub fn run_jobs_with(jobs: Vec<Job>, opts: &SweepOptions, exec: &dyn Executor) -> SweepReport {
    let total = jobs.len();
    let workloads = resolve_workloads(&jobs);
    let progress = Progress::new(opts.progress, total);

    if let Some(dir) = &opts.metrics_dir {
        // Fail early and uniformly if the metrics directory is unusable.
        if let Err(e) = std::fs::create_dir_all(dir) {
            let error = format!("cannot create metrics dir {}: {e}", dir.display());
            return SweepReport {
                outcomes: jobs
                    .into_iter()
                    .map(|job| Err(JobFailure { job, error: error.clone() }))
                    .collect(),
                executed: 0,
                cache_hits: 0,
            };
        }
    }

    // Phase 1: settle unknown workloads and cache hits without simulating.
    let slots: Vec<Mutex<Option<Result<JobOutcome, JobFailure>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let mut pending: Vec<(usize, Job)> = Vec::new();
    let mut cache_hits = 0usize;
    for (i, job) in jobs.into_iter().enumerate() {
        let entry =
            &workloads[&(job.workload.to_ascii_lowercase(), job.scale, job.partition.clone())];
        let (_, fingerprint) = match entry {
            Ok(resolved) => resolved,
            Err(error) => {
                progress.tick(&job, &format!("FAILED ({error})"));
                *slots[i].lock().unwrap() = Some(Err(JobFailure { error: error.clone(), job }));
                continue;
            }
        };
        let probe = (opts.metrics_dir.is_none() && !opts.cpi) || job.kind == JobKind::Scalar;
        if probe {
            if let Some(stats) = opts.cache.load(&job.cache_key(*fingerprint)) {
                cache_hits += 1;
                progress.tick(&job, &format!("{} cycles (cached)", stats.cycles));
                *slots[i].lock().unwrap() = Some(Ok(JobOutcome { job, stats, cached: true }));
                continue;
            }
        }
        pending.push((i, job));
    }

    // Phase 2: execute the misses on the worker pool.
    let executed = pending.len();
    if !pending.is_empty() {
        let next = AtomicUsize::new(0);
        let nworkers = opts.worker_count(pending.len());
        std::thread::scope(|scope| {
            for _ in 0..nworkers {
                scope.spawn(|| loop {
                    let p = next.fetch_add(1, Ordering::Relaxed);
                    let Some((slot, job)) = pending.get(p) else { break };
                    let (workload, fingerprint) = workloads
                        [&(job.workload.to_ascii_lowercase(), job.scale, job.partition.clone())]
                        .as_ref()
                        .expect("pending jobs have resolved workloads");
                    let outcome = match compute_and_store(
                        job,
                        workload,
                        *fingerprint,
                        &opts.cache,
                        exec,
                        *slot,
                    ) {
                        Ok(stats) => {
                            progress.tick(job, &format!("{} cycles", stats.cycles));
                            Ok(JobOutcome { job: job.clone(), stats, cached: false })
                        }
                        Err(error) => {
                            progress.tick(job, &format!("FAILED ({error})"));
                            Err(JobFailure { job: job.clone(), error })
                        }
                    };
                    *slots[*slot].lock().unwrap() = Some(outcome);
                });
            }
        });
    }

    // Phase 3: assemble in input order.
    let outcomes = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot settled"))
        .collect();
    SweepReport { outcomes, executed, cache_hits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_workloads::Scale;
    use multiscalar::SimConfig;

    fn tiny_jobs() -> Vec<Job> {
        vec![
            Job {
                workload: "Wc".into(),
                scale: Scale::Test,
                kind: JobKind::Scalar,
                cfg: SimConfig::scalar(),
                partition: None,
            },
            Job {
                workload: "Wc".into(),
                scale: Scale::Test,
                kind: JobKind::Multiscalar,
                cfg: SimConfig::multiscalar(4),
                partition: None,
            },
        ]
    }

    #[test]
    fn runs_jobs_and_reports_in_order() {
        let report = run_jobs(tiny_jobs(), &SweepOptions::default());
        assert_eq!(report.total(), 2);
        assert_eq!(report.executed, 2);
        assert_eq!(report.cache_hits, 0);
        let results = report.into_results().expect("both points succeed");
        assert_eq!(results[0].job.kind, JobKind::Scalar);
        assert_eq!(results[1].job.kind, JobKind::Multiscalar);
        assert!(results[0].stats.cycles > 0);
        assert!(!results[0].cached && !results[1].cached);
    }

    #[test]
    fn unknown_workload_fails_that_point_only() {
        let mut jobs = tiny_jobs();
        jobs[0].workload = "NoSuchBenchmark".into();
        let report = run_jobs(jobs, &SweepOptions::default());
        assert_eq!(report.executed, 1);
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].to_string().contains("nosuchbenchmark"));
        assert_eq!(report.successes().count(), 1);
    }

    #[test]
    fn partitioned_points_run_and_match_hand_annotated_results() {
        let key = ms_cfg::PartitionPolicy::default().stable_key();
        let mut jobs = tiny_jobs();
        jobs[1].partition = Some(key.clone());
        let report = run_jobs(jobs, &SweepOptions::default());
        let results = report.into_results().expect("partitioned point succeeds");
        // The partitioner preserves architecture: the machine-derived
        // tasks retire at least the scalar baseline's instructions and
        // satisfy the workload's memory expectations (checked by the
        // executor), so both points simply succeed.
        assert!(results[1].stats.instructions >= results[0].stats.instructions);
        assert!(results[1].job.id().contains("/part["));
    }

    #[test]
    fn bad_partition_key_fails_that_point_only() {
        let mut jobs = tiny_jobs();
        jobs[1].partition = Some("part v0;bogus".into());
        let report = run_jobs(jobs, &SweepOptions::default());
        assert_eq!(report.executed, 1);
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].to_string().contains("bad partition key"), "{}", failures[0]);
    }

    #[test]
    fn custom_executors_see_every_cache_miss() {
        struct Counting(AtomicUsize, InProcessExecutor);
        impl Executor for Counting {
            fn run(
                &self,
                job: &Job,
                w: &ms_workloads::Workload,
                slot: usize,
            ) -> Result<RunStats, String> {
                self.0.fetch_add(1, Ordering::Relaxed);
                self.1.run(job, w, slot)
            }
            fn name(&self) -> &str {
                "counting"
            }
        }
        let dir = std::env::temp_dir().join(format!("ms-sweep-exec-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions { cache: SweepCache::at(&dir), ..SweepOptions::default() };
        let exec = Counting(AtomicUsize::new(0), InProcessExecutor::from_options(&opts));

        let cold = run_jobs_with(tiny_jobs(), &opts, &exec);
        assert_eq!(exec.0.load(Ordering::Relaxed), 2, "both points executed");
        assert_eq!(cold.cache_hits, 0);

        let warm = run_jobs_with(tiny_jobs(), &opts, &exec);
        assert_eq!(exec.0.load(Ordering::Relaxed), 2, "warm run never touches the executor");
        assert_eq!(warm.cache_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_job_fails_that_point_only() {
        struct PanicsOnEight(InProcessExecutor);
        impl Executor for PanicsOnEight {
            fn run(
                &self,
                job: &Job,
                w: &ms_workloads::Workload,
                slot: usize,
            ) -> Result<RunStats, String> {
                if job.cfg.units == 8 {
                    panic!("injected panic on {}", job.id());
                }
                self.0.run(job, w, slot)
            }
            fn name(&self) -> &str {
                "panics-on-eight"
            }
        }
        let mut jobs = tiny_jobs();
        for units in [8, 2] {
            jobs.push(Job { cfg: SimConfig::multiscalar(units), ..jobs[1].clone() });
        }
        let opts = SweepOptions { jobs: 2, ..SweepOptions::default() };
        let report = run_jobs_with(jobs, &opts, &PanicsOnEight(InProcessExecutor::new()));
        assert_eq!(report.executed, 4);
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].job.cfg.units, 8);
        assert!(
            failures[0].error.starts_with("executor panicked: injected panic"),
            "{}",
            failures[0]
        );
        assert_eq!(report.successes().count(), 3);
    }

    #[test]
    fn get_finds_exact_points() {
        let jobs = tiny_jobs();
        let probe = jobs[1].clone();
        let report = run_jobs(jobs, &SweepOptions::default());
        assert!(report.get(&probe).is_some());
        let mut other = probe.clone();
        other.cfg.arb_capacity = 1;
        assert!(report.get(&other).is_none());
    }
}
