//! The daemon: listener, connection threads, worker pool, admission
//! control, and graceful drain.
//!
//! ## Threading model
//!
//! One acceptor thread polls a non-blocking listener; each connection
//! gets its own thread that reads request lines and writes exactly one
//! response line per request, in order. Compute never happens on a
//! connection thread: a cache-missed design point is pushed onto a
//! bounded queue consumed by [`ServerConfig::workers`] worker threads,
//! and the connection thread waits on the point's [`crate::Flight`].
//!
//! ## Admission control
//!
//! The compute queue is the only unbounded-growth hazard, so it is the
//! thing that is bounded. A request that would push past
//! [`ServerConfig::queue_depth`] is answered `overloaded` with a
//! `retry_after_ms` hint — immediately, not after a timeout — and its
//! flight is resolved `Rejected` so coalesced duplicates hear the same
//! answer. Requests that resolve without computing (cache hits, dedup
//! joins, stats, ping) are never refused: a saturated daemon still
//! serves everything it already knows.
//!
//! ## Drain
//!
//! `shutdown` (the protocol op or [`ServerHandle::shutdown`]) flips the
//! daemon into draining: new connections are refused, new compute is
//! rejected `shutting_down`, but everything already queued or running
//! completes and is answered. Only when the queue is empty and every
//! worker idle does the `bye` line go out and the listener close.

use crate::flight::{FlightBoard, FlightOutcome, Role};
use crate::protocol::{self, Envelope, Request};
use crate::stats::{ServeStats, StatsSnapshot};
use ms_sweep::{
    artifacts, compute_and_store, resolve_workload, Executor, Job, JobFailure, JobOutcome,
    SweepCache,
};
use ms_workloads::{Scale, Workload};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a refused client should back off before retrying.
const RETRY_AFTER_MS: u64 = 100;

/// Poll interval for the acceptor and connection read loops; bounds how
/// long threads take to notice a stop signal.
const POLL: Duration = Duration::from_millis(100);

/// The longest request line, newline included. Requests are a few
/// hundred bytes (a sweep over every suite workload is under 1 KiB); a
/// line that reaches the cap is answered `bad_request` and its
/// connection closed, so one client cannot grow a buffer without bound.
const MAX_LINE: usize = 1 << 20;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7461` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; `0` means `std::thread::available_parallelism()`.
    pub workers: usize,
    /// Bound on queued (not yet executing) design points.
    pub queue_depth: usize,
    /// Result cache shared with `mssweep` (same key space).
    pub cache: SweepCache,
    /// Reject sweeps that expand beyond this many design points.
    pub max_sweep_jobs: usize,
    /// Close a connection that has sent no complete request line for
    /// this many milliseconds; `0` disables the idle timeout. The
    /// daemon answers a structured `timeout` error line before closing,
    /// so clients can tell an idle eviction from a crash.
    pub idle_timeout_ms: u64,
    /// Emit one structured log line per request to stderr.
    pub log: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_depth: 256,
            cache: SweepCache::disabled(),
            max_sweep_jobs: 512,
            idle_timeout_ms: 0,
            log: false,
        }
    }
}

impl ServerConfig {
    fn worker_count(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// One cache-missed design point queued for a worker.
struct WorkItem {
    job: Job,
    workload: Arc<Workload>,
    fingerprint: u64,
    key: String,
    flight: Arc<crate::flight::Flight>,
}

/// The compute queue plus the worker/drain accounting it protects.
#[derive(Default)]
struct QueueState {
    items: VecDeque<WorkItem>,
    /// Design points a worker is executing right now.
    active: usize,
    /// New compute is refused; queued work still completes.
    draining: bool,
    /// Workers exit once the queue is empty.
    stop_workers: bool,
}

type WorkloadTable = HashMap<(String, Scale, Option<String>), Result<(Arc<Workload>, u64), String>>;

struct Shared {
    cfg: ServerConfig,
    exec: Arc<dyn Executor>,
    stats: ServeStats,
    board: FlightBoard,
    queue: Mutex<QueueState>,
    /// Wakes workers when work arrives or `stop_workers` flips.
    work_cv: Condvar,
    /// Wakes the drain waiter when the queue empties and workers idle.
    drain_cv: Condvar,
    workloads: Mutex<WorkloadTable>,
    /// Stops the acceptor and the connection read loops.
    stop: AtomicBool,
    workers: usize,
}

impl Shared {
    /// Resolves (and memoizes) a job's workload by name × scale ×
    /// partition, exactly as the sweep engine does — so a failure
    /// carries the engine's error text.
    fn workload(&self, job: &Job) -> Result<(Arc<Workload>, u64), String> {
        let key = (job.workload.to_ascii_lowercase(), job.scale, job.partition.clone());
        let mut table = self.workloads.lock().unwrap();
        table
            .entry(key)
            .or_insert_with(|| {
                resolve_workload(&job.workload, job.scale, job.partition.as_deref())
                    .map(|(w, fp)| (Arc::new(w), fp))
            })
            .clone()
    }

    fn log(&self, conn: u64, msg: &str) {
        if self.cfg.log {
            eprintln!("msserve: conn={conn} {msg}");
        }
    }

    /// Flips into draining mode: refuse new connections and new compute.
    fn begin_drain(&self) {
        self.stats.draining.store(true, Ordering::Relaxed);
        self.stop.store(true, Ordering::Relaxed);
        let mut q = self.queue.lock().unwrap();
        q.draining = true;
        // Wake idle workers so they re-check; wake a drain waiter in
        // case the queue is already empty.
        drop(q);
        self.work_cv.notify_all();
        self.drain_cv.notify_all();
    }

    /// Blocks until every queued and executing design point settles.
    fn wait_drained(&self) {
        let mut q = self.queue.lock().unwrap();
        while !(q.items.is_empty() && q.active == 0) {
            q = self.drain_cv.wait(q).unwrap();
        }
    }

    /// Tells workers to exit once the queue is empty.
    fn stop_workers(&self) {
        self.queue.lock().unwrap().stop_workers = true;
        self.work_cv.notify_all();
    }
}

/// How a request settled, for the per-request log line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    Computed,
    CacheHit,
    Deduped,
    Failed,
}

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(item) = q.items.pop_front() {
                    q.active += 1;
                    shared.stats.queue_popped();
                    break item;
                }
                if q.stop_workers {
                    return;
                }
                q = shared.work_cv.wait(q).unwrap();
            }
        };

        // `compute_and_store` runs the executor under a panic guard: a
        // leader that panics mid-compute still resolves its flight (with
        // a structured failure), so no coalesced joiner waits forever
        // and the flight key is freed for the next caller.
        let computed = compute_and_store(
            &item.job,
            &item.workload,
            item.fingerprint,
            &shared.cfg.cache,
            shared.exec.as_ref(),
            0,
        );
        let outcome = match computed {
            Ok(stats) => {
                shared.stats.computed.fetch_add(1, Ordering::Relaxed);
                Ok(JobOutcome { job: item.job.clone(), stats, cached: false })
            }
            Err(error) => Err(JobFailure { job: item.job.clone(), error }),
        };
        let payload: Arc<str> = artifacts::outcome_json(&outcome).into();
        // Complete before resolving: later identical requests must start
        // a fresh flight and find the disk cache entry just stored.
        shared.board.complete(&item.key);
        item.flight.resolve(FlightOutcome::Payload(payload));

        let mut q = shared.queue.lock().unwrap();
        q.active -= 1;
        if q.items.is_empty() && q.active == 0 {
            shared.drain_cv.notify_all();
        }
    }
}

/// Settles one design point through the three layers (flight → cache →
/// queue) and returns the response payload or a rejection code.
fn serve_point(shared: &Shared, job: Job) -> (Result<Arc<str>, &'static str>, Served) {
    // Unresolvable workloads settle like the sweep engine settles them:
    // a deterministic failure payload, no flight, no queue slot.
    let (workload, fingerprint) = match shared.workload(&job) {
        Ok(resolved) => resolved,
        Err(error) => {
            let payload = artifacts::outcome_json(&Err(JobFailure { job, error }));
            return (Ok(payload.into()), Served::Failed);
        }
    };
    let key = job.cache_key(fingerprint);

    let flight = match shared.board.join(&key) {
        Role::Joiner(flight) => {
            shared.stats.dedup_joins.fetch_add(1, Ordering::Relaxed);
            return match flight.wait() {
                FlightOutcome::Payload(p) => (Ok(p), Served::Deduped),
                FlightOutcome::Rejected(code) => (Err(code), Served::Deduped),
            };
        }
        Role::Leader(flight) => flight,
    };

    // Leader: probe the shared disk cache before paying for compute.
    if let Some(stats) = shared.cfg.cache.load(&key) {
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        let payload: Arc<str> =
            artifacts::outcome_json(&Ok(JobOutcome { job, stats, cached: true })).into();
        shared.board.complete(&key);
        flight.resolve(FlightOutcome::Payload(Arc::clone(&payload)));
        return (Ok(payload), Served::CacheHit);
    }

    // Miss: ask the admission controller for a queue slot.
    {
        let mut q = shared.queue.lock().unwrap();
        let reject = if q.draining {
            Some("shutting_down")
        } else if q.items.len() >= shared.cfg.queue_depth {
            shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            Some("overloaded")
        } else {
            None
        };
        if let Some(code) = reject {
            drop(q);
            shared.board.complete(&key);
            flight.resolve(FlightOutcome::Rejected(code));
            return (Err(code), Served::Failed);
        }
        q.items.push_back(WorkItem {
            job,
            workload,
            fingerprint,
            key,
            flight: Arc::clone(&flight),
        });
        shared.stats.queue_pushed();
        shared.work_cv.notify_one();
    }

    match flight.wait() {
        FlightOutcome::Payload(p) => (Ok(p), Served::Computed),
        FlightOutcome::Rejected(code) => (Err(code), Served::Failed),
    }
}

/// Settles a whole sweep: every point goes through the same flight /
/// cache / queue layers, misses are admitted all-or-none, and the
/// response is byte-identical to the `results.json` document `mssweep`
/// writes for the same spec.
fn serve_sweep(shared: &Shared, jobs: Vec<Job>) -> Result<String, (&'static str, String)> {
    if jobs.len() > shared.cfg.max_sweep_jobs {
        return Err((
            "bad_request",
            format!(
                "sweep expands to {} design points, limit is {}",
                jobs.len(),
                shared.cfg.max_sweep_jobs
            ),
        ));
    }

    /// How each point in the sweep will produce its fragment.
    enum Pending {
        /// Settled immediately (unresolvable workload or cache hit).
        Done(Arc<str>),
        /// Wait on this flight (we lead it or joined it).
        Wait(Arc<crate::flight::Flight>),
    }

    let total = jobs.len();
    let mut pending: Vec<Pending> = Vec::with_capacity(total);
    // Flights this sweep leads but has not yet enqueued; admitted
    // all-or-none below so a half-admitted sweep never deadlocks
    // against the queue bound.
    let mut misses: Vec<WorkItem> = Vec::new();

    for job in jobs {
        let (workload, fingerprint) = match shared.workload(&job) {
            Ok(resolved) => resolved,
            Err(error) => {
                pending.push(Pending::Done(
                    artifacts::outcome_json(&Err(JobFailure { job, error })).into(),
                ));
                continue;
            }
        };
        let key = job.cache_key(fingerprint);
        match shared.board.join(&key) {
            Role::Joiner(flight) => {
                shared.stats.dedup_joins.fetch_add(1, Ordering::Relaxed);
                pending.push(Pending::Wait(flight));
            }
            Role::Leader(flight) => {
                if let Some(stats) = shared.cfg.cache.load(&key) {
                    shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                    let payload: Arc<str> =
                        artifacts::outcome_json(&Ok(JobOutcome { job, stats, cached: true }))
                            .into();
                    shared.board.complete(&key);
                    flight.resolve(FlightOutcome::Payload(Arc::clone(&payload)));
                    pending.push(Pending::Done(payload));
                } else {
                    pending.push(Pending::Wait(Arc::clone(&flight)));
                    misses.push(WorkItem { job, workload, fingerprint, key, flight });
                }
            }
        }
    }

    // Admit every miss or none: rejecting the whole sweep beats
    // deadlocking on a queue that can never fit the remainder.
    if !misses.is_empty() {
        let mut q = shared.queue.lock().unwrap();
        let reject = if q.draining {
            Some("shutting_down")
        } else if q.items.len() + misses.len() > shared.cfg.queue_depth {
            shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            Some("overloaded")
        } else {
            None
        };
        if let Some(code) = reject {
            drop(q);
            for item in misses {
                shared.board.complete(&item.key);
                item.flight.resolve(FlightOutcome::Rejected(code));
            }
            let detail = match code {
                "overloaded" => "compute queue cannot admit the sweep".to_string(),
                _ => "daemon is draining".to_string(),
            };
            // The points this sweep joined (rather than led) still
            // settle on their own; only this response is refused.
            for p in pending {
                if let Pending::Wait(f) = p {
                    // Do not block the error response on other leaders'
                    // flights; drop the handles.
                    drop(f);
                }
            }
            return Err((code, detail));
        }
        for item in misses {
            q.items.push_back(item);
            shared.stats.queue_pushed();
        }
        drop(q);
        shared.work_cv.notify_all();
    }

    let mut fragments: Vec<Arc<str>> = Vec::with_capacity(total);
    for p in pending {
        match p {
            Pending::Done(frag) => fragments.push(frag),
            Pending::Wait(flight) => match flight.wait() {
                FlightOutcome::Payload(frag) => fragments.push(frag),
                FlightOutcome::Rejected(code) => {
                    return Err((code, "a design point in this sweep was refused".into()))
                }
            },
        }
    }
    Ok(artifacts::results_envelope(total, fragments.iter().map(|f| f.as_ref())))
}

/// Reads `\n`-terminated lines from a stream whose read timeout is
/// [`POLL`], surfacing timeouts so the caller can check the stop flag.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` that are valid.
    len: usize,
    /// Start of the unconsumed region.
    pos: usize,
}

enum ReadLine {
    Line(String),
    TimedOut,
    /// [`MAX_LINE`] bytes arrived without a newline.
    TooLong,
    Eof,
}

impl LineReader {
    fn new(stream: TcpStream) -> LineReader {
        LineReader { stream, buf: vec![0; 64 * 1024], len: 0, pos: 0 }
    }

    fn read_line(&mut self) -> std::io::Result<ReadLine> {
        loop {
            if let Some(nl) = self.buf[self.pos..self.len].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&self.buf[self.pos..self.pos + nl]).into_owned();
                self.pos += nl + 1;
                return Ok(ReadLine::Line(line));
            }
            // Compact the consumed prefix, grow if a line exceeds the
            // buffer, refuse a line that reaches the cap.
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
            if self.len == MAX_LINE {
                return Ok(ReadLine::TooLong);
            }
            if self.len == self.buf.len() {
                self.buf.resize((self.buf.len() * 2).min(MAX_LINE), 0);
            }
            match self.stream.read(&mut self.buf[self.len..]) {
                Ok(0) => return Ok(ReadLine::Eof),
                Ok(n) => self.len += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(ReadLine::TimedOut)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, conn: u64) {
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "?".into());
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if writer
        .write_all(protocol::hello_line(shared.workers, shared.cfg.queue_depth).as_bytes())
        .is_err()
    {
        return;
    }
    shared.log(conn, &format!("peer={peer} connected"));

    let idle_limit =
        (shared.cfg.idle_timeout_ms > 0).then(|| Duration::from_millis(shared.cfg.idle_timeout_ms));
    let mut last_line = std::time::Instant::now();
    let mut reader = LineReader::new(stream);
    loop {
        let line = match reader.read_line() {
            Ok(ReadLine::Line(line)) => {
                last_line = std::time::Instant::now();
                line
            }
            Ok(ReadLine::TimedOut) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(limit) = idle_limit {
                    if last_line.elapsed() >= limit {
                        // Structured goodbye: clients distinguish idle
                        // eviction from a daemon crash or network drop.
                        shared.log(conn, "outcome=idle_timeout");
                        let _ = writer.write_all(
                            protocol::error_line(
                                0,
                                "timeout",
                                None,
                                &format!(
                                    "idle for longer than {}ms; reconnect to continue",
                                    shared.cfg.idle_timeout_ms
                                ),
                            )
                            .as_bytes(),
                        );
                        break;
                    }
                }
                continue;
            }
            Ok(ReadLine::TooLong) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                shared.log(conn, "op=? outcome=bad_request detail=\"line too long\"");
                let detail = format!("request line longer than {MAX_LINE} bytes");
                let _ = writer
                    .write_all(protocol::error_line(0, "bad_request", None, &detail).as_bytes());
                // Half-close first, so the client reads the error and then
                // EOF even though the rest of its line is never read.
                let _ = writer.shutdown(Shutdown::Write);
                break;
            }
            Ok(ReadLine::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }

        let Envelope { id, req } = match protocol::parse_request(&line) {
            Ok(e) => e,
            Err(detail) => {
                shared.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                shared.log(conn, &format!("op=? outcome=bad_request detail={detail:?}"));
                if writer
                    .write_all(protocol::error_line(0, "bad_request", None, &detail).as_bytes())
                    .is_err()
                {
                    break;
                }
                continue;
            }
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);

        let response = match req {
            Request::Ping => {
                shared.log(conn, &format!("op=ping id={id}"));
                protocol::pong_line(id)
            }
            Request::Stats => {
                shared.log(conn, &format!("op=stats id={id}"));
                protocol::stats_line(id, &shared.stats.snapshot(shared.workers).to_json())
            }
            Request::Run(run) => {
                let job = run.job();
                let started = std::time::Instant::now();
                let (result, served) = serve_point(shared, job.clone());
                shared.log(
                    conn,
                    &format!(
                        "op=run id={id} job={} outcome={served:?} us={}",
                        job.id(),
                        started.elapsed().as_micros()
                    ),
                );
                match result {
                    Ok(payload) => protocol::result_line(id, &payload),
                    Err(code) => protocol::error_line(
                        id,
                        code,
                        (code == "overloaded").then_some(RETRY_AFTER_MS),
                        &format!("cannot run {} now", job.id()),
                    ),
                }
            }
            Request::Sweep(sweep) => {
                let jobs = sweep.spec().expand();
                let points = jobs.len();
                let started = std::time::Instant::now();
                let result = serve_sweep(shared, jobs);
                shared.log(
                    conn,
                    &format!(
                        "op=sweep id={id} points={points} ok={} us={}",
                        result.is_ok(),
                        started.elapsed().as_micros()
                    ),
                );
                match result {
                    Ok(payload) => protocol::sweep_result_line(id, &payload),
                    Err((code, detail)) => protocol::error_line(
                        id,
                        code,
                        (code == "overloaded").then_some(RETRY_AFTER_MS),
                        &detail,
                    ),
                }
            }
            Request::Shutdown => {
                shared.log(conn, &format!("op=shutdown id={id} draining"));
                shared.begin_drain();
                shared.wait_drained();
                shared.stop_workers();
                shared.log(conn, &format!("op=shutdown id={id} drained"));
                let _ = writer.write_all(protocol::bye_line(id).as_bytes());
                break;
            }
        };
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
    }
    shared.log(conn, "closed");
}

/// The daemon. Construct with [`Server::start`]; interact through the
/// returned [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds `cfg.addr`, spawns the worker pool and the acceptor, and
    /// returns a handle. Every cache-missed design point executes on
    /// `exec` (tests interpose counting or gated executors here;
    /// `msserve` passes [`ms_sweep::InProcessExecutor`]).
    ///
    /// # Errors
    /// Returns the bind error if the address is unusable.
    pub fn start(cfg: ServerConfig, exec: Arc<dyn Executor>) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = cfg.worker_count();
        let shared = Arc::new(Shared {
            cfg,
            exec,
            stats: ServeStats::new(),
            board: FlightBoard::new(),
            queue: Mutex::new(QueueState::default()),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            workloads: Mutex::new(WorkloadTable::new()),
            stop: AtomicBool::new(false),
            workers,
        });

        let mut worker_threads = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = Arc::clone(&shared);
            worker_threads.push(std::thread::spawn(move || worker_loop(&shared)));
        }

        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || {
                let mut next_conn = 0u64;
                loop {
                    if shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let conn = next_conn;
                            next_conn += 1;
                            let shared = Arc::clone(&shared);
                            let handle = std::thread::Builder::new()
                                .stack_size(256 * 1024)
                                .spawn(move || handle_connection(&shared, stream, conn))
                                .expect("spawn connection thread");
                            connections.lock().unwrap().push(handle);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                // Listener drops here: refused connections, bound port freed.
            })
        };

        Ok(ServerHandle { shared, addr, acceptor, worker_threads, connections })
    }
}

/// A running daemon: its address, counters, and lifecycle.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolved port when `addr` asked for port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the daemon's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.workers)
    }

    /// Initiates a graceful drain, exactly like the protocol `shutdown`
    /// op: stop accepting, finish queued and in-flight work, then stop.
    /// Returns once the drain completes; call [`ServerHandle::join`] to
    /// also reap every thread.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
        self.shared.wait_drained();
        self.shared.stop_workers();
    }

    /// Waits for the acceptor, every worker, and every connection thread
    /// to exit. Only returns promptly if a drain was initiated (by the
    /// protocol op or [`ServerHandle::shutdown`]).
    pub fn join(self) {
        let _ = self.acceptor.join();
        for w in self.worker_threads {
            let _ = w.join();
        }
        let handles = std::mem::take(&mut *self.connections.lock().unwrap());
        for c in handles {
            let _ = c.join();
        }
    }
}

/// Convenience for tests and `msload`: a one-request client connection.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Response;
    use ms_sweep::InProcessExecutor;
    use std::io::BufRead as _;

    fn start(cache: SweepCache, queue_depth: usize, workers: usize) -> ServerHandle {
        let cfg = ServerConfig { cache, queue_depth, workers, ..ServerConfig::default() };
        Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind")
    }

    fn request(addr: SocketAddr, lines: &[&str]) -> Vec<Response> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        assert!(matches!(protocol::parse_response(&hello), Ok(Response::Hello { .. })), "{hello}");
        let mut out = Vec::new();
        for line in lines {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            out.push(protocol::parse_response(&resp).expect(&resp));
        }
        out
    }

    #[test]
    fn serves_pings_stats_and_results() {
        let server = start(SweepCache::disabled(), 8, 2);
        let addr = server.addr();
        let responses = request(
            addr,
            &[
                r#"{"op":"ping","id":1}"#,
                r#"{"op":"run","id":2,"workload":"wc","units":4}"#,
                r#"{"op":"run","id":3,"workload":"nosuch"}"#,
                r#"{"op":"stats","id":4}"#,
                "not json at all",
            ],
        );
        assert_eq!(responses[0], Response::Pong { id: 1 });
        match &responses[1] {
            Response::Result { id: 2, payload } => {
                assert!(payload.contains("\"job\":\"wc@test/ms4/w1/inorder\""), "{payload}");
                assert!(payload.contains("\"ok\":true"), "{payload}");
            }
            other => panic!("{other:?}"),
        }
        match &responses[2] {
            Response::Result { id: 3, payload } => {
                // Settled exactly as a cold engine run settles it.
                let Ok(Envelope { req: Request::Run(run), .. }) =
                    protocol::parse_request(r#"{"op":"run","id":3,"workload":"nosuch"}"#)
                else {
                    panic!("not a run request");
                };
                let report = ms_sweep::run_jobs(vec![run.job()], &Default::default());
                assert_eq!(*payload, artifacts::outcome_json(&report.outcomes[0]));
                assert!(payload.contains("unknown workload `nosuch`"), "{payload}");
            }
            other => panic!("{other:?}"),
        }
        match &responses[3] {
            Response::Stats { id: 4, raw } => {
                let snap = StatsSnapshot::from_json(raw).unwrap();
                assert_eq!(snap.computed, 1, "{raw}");
                assert_eq!(snap.requests, 4, "{raw}");
            }
            other => panic!("{other:?}"),
        }
        match &responses[4] {
            Response::Error { code, .. } => assert_eq!(code, "bad_request"),
            other => panic!("{other:?}"),
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn shutdown_op_answers_bye_and_drains() {
        let server = start(SweepCache::disabled(), 8, 1);
        let addr = server.addr();
        let responses = request(
            addr,
            &[r#"{"op":"run","id":1,"workload":"wc"}"#, r#"{"op":"shutdown","id":2}"#],
        );
        assert!(matches!(responses[0], Response::Result { id: 1, .. }));
        assert_eq!(responses[1], Response::Bye { id: 2 });
        server.join();
        // The listener is gone after the drain.
        assert!(
            TcpStream::connect(addr).is_err() || {
                // A connect can race the close; a subsequent read sees EOF.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
                let mut buf = [0u8; 1];
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            }
        );
    }

    #[test]
    fn sweep_responses_are_results_documents() {
        let server = start(SweepCache::disabled(), 16, 2);
        let responses = request(
            server.addr(),
            &[r#"{"op":"sweep","id":5,"workloads":["wc"],"widths":[1],"units":[4]}"#],
        );
        match &responses[0] {
            Response::SweepResult { id: 5, payload } => {
                assert!(payload.starts_with("{\"version\":1,\"total\":2,\"jobs\":["), "{payload}");
                assert!(payload.contains("\"job\":\"wc@test/scalar/w1/inorder\""), "{payload}");
                assert!(payload.contains("\"job\":\"wc@test/ms4/w1/inorder\""), "{payload}");
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
        server.join();
    }

    #[test]
    fn oversized_sweeps_are_rejected_up_front() {
        let cfg = ServerConfig { max_sweep_jobs: 3, ..ServerConfig::default() };
        let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).unwrap();
        let responses = request(
            server.addr(),
            &[r#"{"op":"sweep","id":1,"workloads":["wc"],"widths":[1,2],"units":[4,8]}"#],
        );
        match &responses[0] {
            Response::Error { code, detail, .. } => {
                assert_eq!(code, "bad_request");
                assert!(detail.contains("limit is 3"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        server.shutdown();
        server.join();
    }
}
