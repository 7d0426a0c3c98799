//! Worker-process supervision: health, restarts, re-queues, poison jobs.
//!
//! A [`Supervisor`] owns a fixed set of worker *slots*. Each slot runs a
//! child process speaking the [`crate::worker`] pipe protocol; the
//! supervisor assumes any worker can die (panic, SIGKILL), hang (no
//! heartbeats, or a job past its deadline), or emit garbage (protocol
//! breach) at any moment, and recovers without losing or duplicating
//! results:
//!
//! - **Health** — every busy worker must heartbeat within
//!   [`ShardOptions::heartbeat_timeout_ms`] and finish within
//!   [`ShardOptions::job_deadline_ms`]; violators are killed.
//! - **Restart** — a dead slot respawns with capped exponential backoff
//!   ([`ShardOptions::backoff_base_ms`] · 2^streak, capped at
//!   [`ShardOptions::backoff_cap_ms`]); the streak resets when the slot
//!   completes a job. A global [`ShardOptions::max_restarts`] budget
//!   stops a hopeless configuration (e.g. a broken worker binary) from
//!   respawning forever — the supervisor gives up and settles every
//!   unfinished job with a structured error.
//! - **Re-queue** — a job orphaned by a worker death is re-queued
//!   *exactly once per death* by its idempotent identity (the full
//!   sweep-cache key: workload fingerprint + `SimConfig::stable_key`).
//!   If another live assignment or queued ticket for the same identity
//!   already exists, the re-queue is deduplicated instead.
//! - **Poison** — an identity whose workers died
//!   [`ShardOptions::poison_threshold`] times is permanently
//!   quarantined: its waiters get a structured error and a [`PoisonJob`]
//!   report is recorded, so one pathological job cannot wedge the sweep.
//!
//! Results are settled by identity, so concurrent submissions of the
//! same design point coalesce (single-flight, like [`crate::flight`]
//! but across processes) and a duplicated dispatch — deliberate, via
//! [`ShardOptions::duplicate_nth`], or incidental during recovery — is
//! detected on arrival and discarded, never double-settled.

use crate::worker::{exit_line, job_line, parse_worker_line, WorkerLine, GEN_ENV};
use ms_sweep::Job;
use multiscalar::RunStats;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a pool of worker processes should be run and disciplined.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Worker processes to keep alive.
    pub workers: usize,
    /// Worker command line (`argv[0]` + args). `None` re-execs the
    /// current binary with `--worker` — every ms CLI that embeds this
    /// executor handles that flag.
    pub worker_cmd: Option<Vec<String>>,
    /// A busy worker must finish its job within this deadline or be
    /// killed and replaced.
    pub job_deadline_ms: u64,
    /// A busy worker must heartbeat within this window or be presumed
    /// wedged, killed, and replaced.
    pub heartbeat_timeout_ms: u64,
    /// First-death respawn delay; doubles per consecutive death.
    pub backoff_base_ms: u64,
    /// Upper bound on the respawn delay.
    pub backoff_cap_ms: u64,
    /// Total death budget (restarts and failed spawns both count);
    /// exhausted means the supervisor gives up and settles all
    /// unfinished jobs with a structured error.
    pub max_restarts: u64,
    /// Worker deaths on the same job identity before it is declared a
    /// [`PoisonJob`] and permanently quarantined.
    pub poison_threshold: u32,
    /// Extra environment for specific worker slots, `(slot, key, value)`
    /// — the chaos harness uses this to arm [`crate::worker::FAULT_ENV`]
    /// on one slot.
    pub worker_env: Vec<(usize, String, String)>,
    /// Chaos knob: additionally re-queue the identity of the N-th
    /// dispatch (0-based), so the same job runs on two workers and the
    /// second result must be discarded as a duplicate.
    pub duplicate_nth: Option<u64>,
}

impl Default for ShardOptions {
    fn default() -> ShardOptions {
        ShardOptions {
            workers: 2,
            worker_cmd: None,
            job_deadline_ms: 120_000,
            heartbeat_timeout_ms: 2_000,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            max_restarts: 64,
            poison_threshold: 3,
            worker_env: Vec::new(),
            duplicate_nth: None,
        }
    }
}

/// A job identity permanently quarantined after repeated worker deaths.
#[derive(Clone, Debug)]
pub struct PoisonJob {
    /// Human-readable job id (`wc@test/ms4/w1/inorder`).
    pub job: String,
    /// The full idempotent identity (sweep-cache key).
    pub identity: String,
    /// Worker deaths attributed to this identity.
    pub deaths: u32,
    /// What the last death looked like.
    pub last_error: String,
}

/// Counters describing everything the supervisor did. Snapshot via
/// [`Supervisor::stats`]; rendered deterministically by
/// [`ShardStats::to_json`] (field order fixed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Worker processes ever spawned (initial spawns + restarts).
    pub spawned: u64,
    /// Respawns after a death (excludes the initial spawns).
    pub restarts: u64,
    /// Worker deaths observed (any cause).
    pub deaths: u64,
    /// Deaths caused by a per-job deadline kill.
    pub deadline_kills: u64,
    /// Deaths caused by a missed-heartbeat kill.
    pub hang_kills: u64,
    /// Deaths caused by an unparseable worker line.
    pub protocol_breaches: u64,
    /// Orphaned jobs re-queued by identity.
    pub requeued: u64,
    /// Orphan re-queues skipped because the identity already had a live
    /// assignment or queued ticket (deduplicated re-queue).
    pub requeue_deduped: u64,
    /// Results discarded because their identity was already settled.
    pub duplicates_discarded: u64,
    /// Identities quarantined as [`PoisonJob`]s.
    pub poisoned: u64,
    /// Job dispatches written to workers.
    pub dispatched: u64,
    /// Jobs settled from a worker result (ok or error).
    pub completed: u64,
    /// Submissions that joined an identity already submitted.
    pub dedup_joins: u64,
}

impl ShardStats {
    /// Deterministic JSON rendering (fixed field order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(
            s,
            "\"spawned\":{},\"restarts\":{},\"deaths\":{},\"deadline_kills\":{},\
             \"hang_kills\":{},\"protocol_breaches\":{},\"requeued\":{},\
             \"requeue_deduped\":{},\"duplicates_discarded\":{},\"poisoned\":{},\
             \"dispatched\":{},\"completed\":{},\"dedup_joins\":{}",
            self.spawned,
            self.restarts,
            self.deaths,
            self.deadline_kills,
            self.hang_kills,
            self.protocol_breaches,
            self.requeued,
            self.requeue_deduped,
            self.duplicates_discarded,
            self.poisoned,
            self.dispatched,
            self.completed,
            self.dedup_joins,
        );
        s.push('}');
        s
    }
}

enum SlotState {
    /// Process spawned; waiting for its `ready` line.
    Starting {
        /// Spawn time; a worker that never readies is killed after the
        /// heartbeat window (readiness is immediate in a healthy child).
        since: Instant,
    },
    /// Ready for a job.
    Idle,
    /// Computing `identity` as wire id `job_id`.
    Busy { identity: String, job_id: u64, deadline: Instant, last_hb: Instant },
    /// Dead; respawns at `respawn_at` (unless the supervisor gave up).
    Down { respawn_at: Instant },
    /// Shut down for good.
    Stopped,
}

struct WorkerSlot {
    state: SlotState,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Spawn generation (exported to the worker via [`GEN_ENV`]).
    gen: u64,
    /// Consecutive deaths without completing a job (backoff input).
    streak: u32,
    /// Bumped on every (re)spawn so a stale reader thread — still
    /// draining the previous process's pipe — cannot act on this slot.
    epoch: u64,
}

struct EntryState {
    job: Job,
    result: Option<Result<RunStats, String>>,
    /// Workers currently computing this identity.
    live_assignments: u32,
    /// Tickets for this identity currently in the dispatch queue.
    queued: u32,
    /// Worker deaths attributed to this identity.
    deaths: u32,
}

#[derive(Default)]
struct State {
    entries: HashMap<String, EntryState>,
    queue: VecDeque<String>,
    workers: Vec<WorkerSlot>,
    next_job_id: u64,
    stats: ShardStats,
    poison: Vec<PoisonJob>,
    /// Restart budget exhausted: stop respawning, fail fast.
    gave_up: bool,
    shutdown: bool,
}

struct Inner {
    opts: ShardOptions,
    state: Mutex<State>,
    /// Wakes the monitor thread (new work, a death, shutdown).
    work_cv: Condvar,
    /// Wakes submitters blocked on a settle.
    settle_cv: Condvar,
}

/// A supervised pool of worker processes executing jobs by idempotent
/// identity. See the module docs for the discipline; see
/// [`crate::shard::ProcessShardExecutor`] for the [`ms_sweep::Executor`]
/// facade.
pub struct Supervisor {
    inner: Arc<Inner>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

const MONITOR_TICK: Duration = Duration::from_millis(5);

fn backoff_delay(opts: &ShardOptions, streak: u32) -> Duration {
    let exp = streak.saturating_sub(1).min(16);
    let ms = opts.backoff_base_ms.saturating_mul(1u64 << exp).min(opts.backoff_cap_ms);
    Duration::from_millis(ms)
}

impl Supervisor {
    /// Starts the pool: spawns `opts.workers` worker processes and the
    /// monitor thread. Workers that fail to spawn retry with backoff;
    /// a configuration that can never spawn burns the restart budget
    /// and fails jobs with a structured error rather than hanging.
    pub fn start(opts: ShardOptions) -> Supervisor {
        let workers = opts.workers.max(1);
        let inner = Arc::new(Inner {
            opts,
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            settle_cv: Condvar::new(),
        });
        {
            let mut st = inner.state.lock().unwrap();
            for _ in 0..workers {
                st.workers.push(WorkerSlot {
                    state: SlotState::Down { respawn_at: Instant::now() },
                    child: None,
                    stdin: None,
                    gen: 0,
                    streak: 0,
                    epoch: 0,
                });
            }
            for i in 0..workers {
                Inner::spawn_worker(&inner, &mut st, i);
            }
        }
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || Inner::monitor_loop(&inner))
        };
        Supervisor { inner, monitor: Mutex::new(Some(monitor)) }
    }

    /// Submits `job` under `identity` (its sweep-cache key) and blocks
    /// until it settles. Concurrent submissions of the same identity
    /// coalesce onto one computation; a later submission of an identity
    /// that already settled returns the recorded result immediately.
    ///
    /// # Errors
    /// The worker's failure string, a poison-job report, or a
    /// supervisor-gave-up error. Never hangs: every path to a worker
    /// death, stall, or restart-budget exhaustion settles the entry.
    pub fn submit_and_wait(&self, identity: String, job: &Job) -> Result<RunStats, String> {
        let inner = &self.inner;
        let mut st = inner.state.lock().unwrap();
        if st.shutdown {
            return Err("process-shard supervisor is shut down".into());
        }
        if st.gave_up {
            return Err(gave_up_error(&st.stats));
        }
        let joined = st.entries.contains_key(&identity);
        if joined {
            st.stats.dedup_joins += 1;
            if let Some(r) = &st.entries[&identity].result {
                return r.clone();
            }
        } else {
            st.entries.insert(
                identity.clone(),
                EntryState {
                    job: job.clone(),
                    result: None,
                    live_assignments: 0,
                    queued: 1,
                    deaths: 0,
                },
            );
            st.queue.push_back(identity.clone());
            inner.work_cv.notify_all();
        }
        loop {
            if let Some(r) = &st.entries[&identity].result {
                return r.clone();
            }
            st = inner.settle_cv.wait(st).unwrap();
        }
    }

    /// A snapshot of the supervision counters.
    pub fn stats(&self) -> ShardStats {
        self.inner.state.lock().unwrap().stats
    }

    /// The poison jobs recorded so far, in quarantine order.
    pub fn poison_jobs(&self) -> Vec<PoisonJob> {
        self.inner.state.lock().unwrap().poison.clone()
    }

    /// Stops the pool: asks workers to exit, kills stragglers, settles
    /// any unfinished jobs with a structured error, joins the monitor.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        if let Some(h) = self.monitor.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn gave_up_error(stats: &ShardStats) -> String {
    format!(
        "process-shard supervisor gave up: restart budget exhausted \
         ({} restarts, {} deaths); worker command is likely broken",
        stats.restarts, stats.deaths
    )
}

impl Inner {
    fn worker_command(&self) -> Command {
        match &self.opts.worker_cmd {
            Some(argv) if !argv.is_empty() => {
                let mut c = Command::new(&argv[0]);
                c.args(&argv[1..]);
                c
            }
            _ => {
                // Re-exec ourselves in worker mode. If the executable
                // path is unknowable the spawn fails and the restart
                // budget turns it into a structured give-up error.
                let exe = std::env::current_exe()
                    .unwrap_or_else(|_| std::path::PathBuf::from("ms-worker-unresolvable"));
                let mut c = Command::new(exe);
                c.arg("--worker");
                c
            }
        }
    }

    /// Spawns (or respawns) slot `i`. On failure the slot goes back to
    /// `Down` with backoff and the death is counted against the budget.
    fn spawn_worker(inner: &Arc<Inner>, st: &mut State, i: usize) {
        let is_restart = st.workers[i].gen > 0;
        let mut cmd = inner.worker_command();
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
        cmd.env(GEN_ENV, st.workers[i].gen.to_string());
        for (slot, k, v) in &inner.opts.worker_env {
            if *slot == i {
                cmd.env(k, v);
            }
        }
        match cmd.spawn() {
            Ok(mut child) => {
                let stdout = child.stdout.take().expect("stdout was piped");
                let stdin = child.stdin.take().expect("stdin was piped");
                let slot = &mut st.workers[i];
                slot.epoch += 1;
                slot.gen += 1;
                slot.child = Some(child);
                slot.stdin = Some(stdin);
                slot.state = SlotState::Starting { since: Instant::now() };
                st.stats.spawned += 1;
                if is_restart {
                    st.stats.restarts += 1;
                }
                let epoch = slot.epoch;
                let rd = Arc::clone(inner);
                std::thread::spawn(move || Inner::reader_loop(&rd, i, epoch, stdout));
            }
            Err(e) => {
                // The slot was `Down` (that is the only state we spawn
                // from), so `on_death` would no-op; burn budget and
                // reschedule by hand.
                eprintln!("ms-serve: worker spawn failed: {e}");
                let slot = &mut st.workers[i];
                slot.streak += 1;
                st.stats.deaths += 1;
                if st.stats.deaths >= inner.opts.max_restarts {
                    Inner::give_up(inner, st);
                    return;
                }
                let delay = backoff_delay(&inner.opts, st.workers[i].streak);
                st.workers[i].state = SlotState::Down { respawn_at: Instant::now() + delay };
            }
        }
    }

    /// Handles a death of slot `i` from any cause. Safe to call from the
    /// monitor (kills) and readers (EOF, breaches); the first caller
    /// wins, later calls on an already-`Down` slot are no-ops.
    fn on_death(inner: &Arc<Inner>, st: &mut State, i: usize, detail: &str) {
        let slot = &mut st.workers[i];
        let prev = std::mem::replace(&mut slot.state, SlotState::Stopped);
        match prev {
            SlotState::Down { .. } | SlotState::Stopped => {
                slot.state = prev;
                return;
            }
            SlotState::Starting { .. } | SlotState::Idle => {}
            SlotState::Busy { identity, .. } => {
                Inner::orphan(inner, st, &identity, detail);
            }
        }
        let slot = &mut st.workers[i];
        slot.streak += 1;
        slot.stdin = None;
        if let Some(mut child) = slot.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        st.stats.deaths += 1;
        if st.stats.deaths >= inner.opts.max_restarts {
            Inner::give_up(inner, st);
            return;
        }
        let delay = backoff_delay(&inner.opts, st.workers[i].streak);
        st.workers[i].state = SlotState::Down { respawn_at: Instant::now() + delay };
        inner.work_cv.notify_all();
    }

    /// A worker died while computing `identity`: re-queue exactly once
    /// unless another path to completion exists, or quarantine it as a
    /// poison job once the death threshold is hit.
    fn orphan(inner: &Arc<Inner>, st: &mut State, identity: &str, detail: &str) {
        let Some(e) = st.entries.get_mut(identity) else { return };
        e.live_assignments = e.live_assignments.saturating_sub(1);
        if e.result.is_some() {
            return;
        }
        e.deaths += 1;
        if e.live_assignments > 0 || e.queued > 0 {
            st.stats.requeue_deduped += 1;
        } else if e.deaths >= inner.opts.poison_threshold {
            let poison = PoisonJob {
                job: e.job.id(),
                identity: identity.to_string(),
                deaths: e.deaths,
                last_error: detail.to_string(),
            };
            e.result = Some(Err(format!(
                "poison job: workers died {} times computing {} (last: {detail}); \
                 identity quarantined",
                e.deaths,
                e.job.id(),
            )));
            st.stats.poisoned += 1;
            st.poison.push(poison);
            inner.settle_cv.notify_all();
        } else {
            e.queued += 1;
            st.queue.push_back(identity.to_string());
            st.stats.requeued += 1;
        }
    }

    /// Restart budget exhausted: settle everything, stop respawning.
    fn give_up(inner: &Arc<Inner>, st: &mut State) {
        st.gave_up = true;
        let err = gave_up_error(&st.stats);
        for e in st.entries.values_mut() {
            if e.result.is_none() {
                e.result = Some(Err(err.clone()));
            }
        }
        st.queue.clear();
        inner.settle_cv.notify_all();
    }

    /// Pops queue tickets onto idle workers.
    fn dispatch(inner: &Arc<Inner>, st: &mut State) {
        loop {
            if st.queue.is_empty() {
                return;
            }
            let Some(i) = st.workers.iter().position(|w| matches!(w.state, SlotState::Idle)) else {
                return;
            };
            let identity = st.queue.pop_front().expect("queue checked non-empty");
            let job_id = st.next_job_id;
            st.next_job_id += 1;
            let nth = st.stats.dispatched;
            st.stats.dispatched += 1;
            let (line, duplicate) = {
                let e = st.entries.get_mut(&identity).expect("queued identities have entries");
                e.queued = e.queued.saturating_sub(1);
                e.live_assignments += 1;
                (job_line(job_id, &e.job), inner.opts.duplicate_nth == Some(nth))
            };
            if duplicate {
                // Chaos: enqueue the same identity again; whichever
                // result arrives second is discarded on arrival.
                let e = st.entries.get_mut(&identity).expect("entry exists");
                e.queued += 1;
                st.queue.push_back(identity.clone());
            }
            let now = Instant::now();
            let deadline = now + Duration::from_millis(inner.opts.job_deadline_ms);
            st.workers[i].state = SlotState::Busy { identity, job_id, deadline, last_hb: now };
            let write = st.workers[i]
                .stdin
                .as_mut()
                .map(|s| s.write_all(line.as_bytes()).and_then(|()| s.flush()));
            match write {
                Some(Ok(())) => {}
                _ => Inner::on_death(inner, st, i, "worker stdin write failed"),
            }
        }
    }

    fn monitor_loop(inner: &Arc<Inner>) {
        let mut st = inner.state.lock().unwrap();
        loop {
            if st.shutdown {
                break;
            }
            let now = Instant::now();
            // Respawn due slots (unless the budget is gone).
            if !st.gave_up {
                for i in 0..st.workers.len() {
                    if let SlotState::Down { respawn_at } = st.workers[i].state {
                        if now >= respawn_at {
                            Inner::spawn_worker(inner, &mut st, i);
                        }
                    }
                }
            }
            // Kill deadline violators and wedged workers.
            let hb_window = Duration::from_millis(inner.opts.heartbeat_timeout_ms);
            for i in 0..st.workers.len() {
                match st.workers[i].state {
                    SlotState::Busy { deadline, last_hb, .. } => {
                        if now >= deadline {
                            st.stats.deadline_kills += 1;
                            Inner::on_death(inner, &mut st, i, "job deadline exceeded");
                        } else if now.duration_since(last_hb) >= hb_window {
                            st.stats.hang_kills += 1;
                            Inner::on_death(inner, &mut st, i, "worker heartbeat lost");
                        }
                    }
                    SlotState::Starting { since } if now.duration_since(since) >= hb_window => {
                        st.stats.hang_kills += 1;
                        Inner::on_death(inner, &mut st, i, "worker never became ready");
                    }
                    _ => {}
                }
            }
            Inner::dispatch(inner, &mut st);
            let (next, _) = inner.work_cv.wait_timeout(st, MONITOR_TICK).unwrap();
            st = next;
        }
        // Shutdown: ask nicely, then make sure, then settle leftovers.
        for slot in st.workers.iter_mut() {
            if let Some(stdin) = slot.stdin.as_mut() {
                let _ = stdin.write_all(exit_line().as_bytes());
                let _ = stdin.flush();
            }
            slot.stdin = None;
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.state = SlotState::Stopped;
        }
        for e in st.entries.values_mut() {
            if e.result.is_none() {
                e.result = Some(Err("process-shard supervisor shut down mid-job".into()));
            }
        }
        inner.settle_cv.notify_all();
    }

    fn reader_loop(inner: &Arc<Inner>, i: usize, epoch: u64, stdout: std::process::ChildStdout) {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line);
            let mut st = inner.state.lock().unwrap();
            if st.workers[i].epoch != epoch || st.shutdown {
                return; // a newer process owns this slot now
            }
            match n {
                Ok(0) | Err(_) => {
                    Inner::on_death(inner, &mut st, i, "worker process died");
                    inner.work_cv.notify_all();
                    return;
                }
                Ok(_) => match parse_worker_line(&line) {
                    Ok(WorkerLine::Ready { .. }) => {
                        if matches!(st.workers[i].state, SlotState::Starting { .. }) {
                            st.workers[i].state = SlotState::Idle;
                            inner.work_cv.notify_all();
                        }
                    }
                    Ok(WorkerLine::Heartbeat { job_id }) => {
                        if let SlotState::Busy { job_id: expect, last_hb, .. } =
                            &mut st.workers[i].state
                        {
                            if job_id == *expect {
                                *last_hb = Instant::now();
                            }
                        }
                    }
                    Ok(WorkerLine::Result { job_id, result }) => {
                        let result = result.map(|b| *b);
                        Inner::on_result(inner, &mut st, i, job_id, result);
                    }
                    Err(e) => {
                        st.stats.protocol_breaches += 1;
                        Inner::on_death(inner, &mut st, i, &format!("worker protocol breach: {e}"));
                        inner.work_cv.notify_all();
                        return;
                    }
                },
            }
        }
    }

    fn on_result(
        inner: &Arc<Inner>,
        st: &mut State,
        i: usize,
        job_id: u64,
        result: Result<RunStats, String>,
    ) {
        let prev = std::mem::replace(&mut st.workers[i].state, SlotState::Idle);
        let SlotState::Busy { identity, job_id: expect, .. } = prev else {
            st.workers[i].state = prev;
            st.stats.protocol_breaches += 1;
            Inner::on_death(inner, st, i, "result from a worker with no job");
            return;
        };
        if job_id != expect {
            st.workers[i].state = SlotState::Busy {
                identity,
                job_id: expect,
                deadline: Instant::now(),
                last_hb: Instant::now(),
            };
            st.stats.protocol_breaches += 1;
            Inner::on_death(inner, st, i, "result for a job this worker does not hold");
            return;
        }
        st.workers[i].streak = 0;
        if let Some(e) = st.entries.get_mut(&identity) {
            e.live_assignments = e.live_assignments.saturating_sub(1);
            if e.result.is_some() {
                st.stats.duplicates_discarded += 1;
            } else {
                e.result = Some(result);
                st.stats.completed += 1;
                inner.settle_cv.notify_all();
            }
        }
        inner.work_cv.notify_all();
    }
}
