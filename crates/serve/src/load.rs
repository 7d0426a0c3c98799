//! The `msload` load generator: deterministic traffic, divergence
//! detection, and a reproducible report.
//!
//! Traffic is derived entirely from a seed: each connection runs a
//! linear-congruential generator that picks design points from a small
//! space ([`LoadOptions::points`] distinct jobs over the workload suite
//! × unit counts), so two runs with the same options issue the *same
//! multiset of requests* — the precondition for a byte-identical
//! report. Every connection pipelines its whole batch (writes all
//! requests, then reads all responses), so the number of concurrently
//! in-flight requests is `connections × requests_per_conn`.
//!
//! For every point the generator folds each response payload into an
//! FNV-1a digest and counts **divergence**: two responses for the same
//! design point with different bytes. A correct daemon never diverges —
//! the payload is the deterministic `outcome_json` rendering whether it
//! was computed, cached, or deduplicated — so the report's `divergent`
//! field doubles as an end-to-end determinism check at load.
//!
//! The deterministic report ([`LoadOutcome::report_json`],
//! `multiscalar-load/v1`) contains only schedule-derived and simulated
//! content. Wall-clock measurements (throughput, latency percentiles)
//! and operational noise (overload retries) are real but
//! non-reproducible, so they are reported separately
//! ([`LoadOutcome::timing_json`]) and never mixed into the
//! deterministic artifact.

use crate::protocol::{self, Response};
use ms_sweep::{Job, JobKind};
use ms_trace::hash::{fnv1a_64, splitmix64, FNV1A_64_OFFSET};
use ms_workloads::{suite, Scale};
use multiscalar::SimConfig;
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Unit counts the point space cycles through (all valid multiscalar
/// configurations, cheap at `test` scale).
const UNIT_AXIS: [usize; 3] = [2, 4, 8];

/// Load-run parameters.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Daemon address, e.g. `127.0.0.1:7461`.
    pub addr: String,
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Requests pipelined per connection.
    pub requests_per_conn: usize,
    /// Distinct design points the traffic draws from. Small values make
    /// duplicate-heavy traffic (exercising dedup and the cache); large
    /// values make miss-heavy traffic (exercising the queue).
    pub points: usize,
    /// Seed for the per-connection generators.
    pub seed: u64,
    /// Retry budget per request for `overloaded` responses.
    pub max_retries: usize,
    /// Upper bound on any single retry backoff sleep. The server's
    /// `retry_after_ms` hint grows exponentially per attempt (plus
    /// deterministic seeded jitter) but never past this cap.
    pub backoff_cap_ms: u64,
    /// Per-request deadline: a request whose response (including all its
    /// retries) does not arrive within this window becomes a structured
    /// failure row in the outcome instead of hanging the run.
    pub deadline_ms: u64,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions {
            addr: "127.0.0.1:7461".into(),
            connections: 8,
            requests_per_conn: 8,
            points: 4,
            seed: 1,
            max_retries: 8,
            backoff_cap_ms: 1_000,
            deadline_ms: 30_000,
        }
    }
}

/// The design point with index `i` in the traffic space: workload-major
/// over the suite, then unit counts. Deterministic and independent of
/// the daemon.
pub fn point_job(i: usize, names: &[String]) -> Job {
    let units = UNIT_AXIS[(i / names.len()) % UNIT_AXIS.len()];
    Job {
        workload: names[i % names.len()].clone(),
        scale: Scale::Test,
        kind: JobKind::Multiscalar,
        cfg: SimConfig::multiscalar(units),
        partition: None,
    }
}

fn request_line(point: usize, job: &Job) -> String {
    // The point index rides in `id`, so the response maps back to its
    // point without positional bookkeeping.
    format!(
        "{{\"op\":\"run\",\"id\":{point},\"workload\":\"{}\",\"scale\":\"test\",\"units\":{}}}\n",
        job.workload, job.cfg.units
    )
}

/// The backoff before retry `attempt` (0-based) of `point` on
/// connection `conn`: the server's `retry_after_ms` hint doubled per
/// attempt, plus deterministic jitter (up to a quarter of the base,
/// derived from the seed so identical runs sleep identically while
/// concurrent connections desynchronize), hard-capped at
/// [`LoadOptions::backoff_cap_ms`].
fn backoff_ms(opts: &LoadOptions, conn: usize, point: usize, attempt: usize, hint: u64) -> u64 {
    let base = hint.max(1).saturating_mul(1u64 << attempt.min(16) as u32).min(opts.backoff_cap_ms);
    let salt = opts
        .seed
        .wrapping_add((conn as u64) << 40)
        .wrapping_add((point as u64) << 20)
        .wrapping_add(attempt as u64);
    // splitmix64 is a pure function of the salt, so retry schedules are
    // reproducible from the seed.
    let jitter = splitmix64(salt) % (base / 4 + 1);
    (base + jitter).min(opts.backoff_cap_ms)
}

/// Per-point accounting, merged across every connection.
#[derive(Clone, Debug, Default)]
struct PointState {
    requests: u64,
    digest: Option<u64>,
    divergent: u64,
    failed: u64,
}

/// Per-point summary in the deterministic report.
#[derive(Clone, Debug)]
pub struct PointReport {
    /// The design point's job id (`wc@test/ms4/w1/inorder`).
    pub job: String,
    /// Responses received for this point.
    pub requests: u64,
    /// FNV-1a digest of the (identical) response payload bytes, as 16
    /// hex digits; `None` if the point was never answered successfully.
    pub digest: Option<u64>,
}

/// Everything a load run produced.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// The options that generated the traffic.
    pub options: LoadOptions,
    /// Total responses received (excluding retries that failed).
    pub total: u64,
    /// Per-point summaries, in point order.
    pub per_point: Vec<PointReport>,
    /// Same-point responses whose bytes differed — must be 0 for a
    /// correct daemon.
    pub divergent: u64,
    /// Requests that never got a result (errors after retries).
    pub failed: u64,
    /// Overload rejections that were retried (operational, excluded
    /// from the deterministic report).
    pub overload_retries: u64,
    /// Requests abandoned because [`LoadOptions::deadline_ms`] elapsed
    /// before a response arrived (these also count in `failed`).
    pub deadline_failures: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-response latencies in microseconds, measured from each
    /// connection's first write (pipelined, so these are
    /// time-to-arrival, not isolated round trips). Sorted.
    pub latencies_us: Vec<u64>,
}

impl LoadOutcome {
    /// The byte-deterministic `multiscalar-load/v1` report: two runs
    /// with the same options against a correct daemon render the exact
    /// same bytes, whatever the cache or dedup state.
    pub fn report_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"multiscalar-load/v1\",\"seed\":{},\"connections\":{},\
             \"requests_per_conn\":{},\"points\":{},\"total\":{},\"per_point\":[",
            self.options.seed,
            self.options.connections,
            self.options.requests_per_conn,
            self.options.points,
            self.total,
        );
        for (i, p) in self.per_point.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"job\":\"{}\",\"requests\":{}", p.job, p.requests);
            match p.digest {
                Some(d) => {
                    let _ = write!(out, ",\"digest\":\"{d:016x}\"}}");
                }
                None => out.push_str(",\"digest\":null}"),
            }
        }
        let _ = write!(out, "],\"divergent\":{},\"failed\":{}}}", self.divergent, self.failed);
        out
    }

    /// Wall-clock measurements as JSON — intentionally a separate
    /// artifact from [`LoadOutcome::report_json`] because none of it is
    /// reproducible.
    pub fn timing_json(&self) -> String {
        let pct = |p: f64| -> u64 {
            if self.latencies_us.is_empty() {
                return 0;
            }
            let idx = ((self.latencies_us.len() - 1) as f64 * p).round() as usize;
            self.latencies_us[idx]
        };
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        format!(
            "{{\"schema\":\"multiscalar-load-timing/v1\",\"elapsed_ms\":{},\
             \"requests_per_sec\":{:.1},\"overload_retries\":{},\
             \"deadline_failures\":{},\
             \"latency_us\":{{\"p50\":{},\"p90\":{},\"p99\":{}}}}}",
            self.elapsed.as_millis(),
            self.total as f64 / secs,
            self.overload_retries,
            self.deadline_failures,
            pct(0.50),
            pct(0.90),
            pct(0.99),
        )
    }
}

struct ConnTally {
    points: Vec<PointState>,
    latencies_us: Vec<u64>,
    overload_retries: u64,
    deadline_failures: u64,
}

fn record(state: &mut PointState, payload: &str) {
    state.requests += 1;
    let digest = fnv1a_64(FNV1A_64_OFFSET, payload.as_bytes());
    match state.digest {
        None => state.digest = Some(digest),
        Some(d) if d != digest => state.divergent += 1,
        Some(_) => {}
    }
}

/// One connection's schedule: `requests_per_conn` point indices drawn
/// by an LCG seeded from (seed, connection index).
fn schedule(opts: &LoadOptions, conn: usize) -> Vec<usize> {
    let mut state = opts
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(conn as u64)
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    (0..opts.requests_per_conn)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % opts.points.max(1)
        })
        .collect()
}

/// Connects with `deadline` as the read timeout and reads the daemon's
/// greeting; returns the (reader, writer) halves.
fn connect_and_greet(
    opts: &LoadOptions,
    deadline: Duration,
) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(&opts.addr)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut hello = String::new();
    reader.read_line(&mut hello)?;
    protocol::parse_response(&hello)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok((reader, writer))
}

fn run_connection(
    opts: &LoadOptions,
    names: &[String],
    conn: usize,
    start: &Barrier,
) -> std::io::Result<ConnTally> {
    let mut tally = ConnTally {
        points: vec![PointState::default(); opts.points],
        latencies_us: Vec::with_capacity(opts.requests_per_conn),
        overload_retries: 0,
        deadline_failures: 0,
    };
    let deadline = Duration::from_millis(opts.deadline_ms.max(1));
    let greeted = connect_and_greet(opts, deadline);
    // Everybody connects and greets first, then fires together — this
    // is what makes connections × pipelining genuinely concurrent. Every
    // connection reaches the barrier exactly once, greeted or not, so a
    // failure on either side of it never strands the others.
    start.wait();
    let (mut reader, mut writer) = greeted?;
    let plan = schedule(opts, conn);
    let t0 = Instant::now();

    let mut batch = String::new();
    for &point in &plan {
        batch.push_str(&request_line(point, &point_job(point, names)));
    }
    writer.write_all(batch.as_bytes())?;

    // A read that outlasts the per-request deadline (or a daemon that
    // dies mid-batch) turns the unanswered remainder into structured
    // failure rows — the run reports, it never hangs.
    let mut retry: Vec<usize> = Vec::new();
    let mut line = String::new();
    for i in 0..plan.len() {
        line.clear();
        let n = match reader.read_line(&mut line) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                0
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            for &point in &plan[i..] {
                tally.points[point].failed += 1;
                tally.deadline_failures += 1;
            }
            return Ok(tally);
        }
        tally.latencies_us.push(t0.elapsed().as_micros() as u64);
        let bad = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        match protocol::parse_response(&line).map_err(bad)? {
            Response::Result { id, payload } => {
                let state = tally
                    .points
                    .get_mut(id as usize)
                    .ok_or_else(|| bad(format!("response id {id} outside the point space")))?;
                record(state, &payload);
            }
            Response::Error { id, code, retry_after_ms, .. } if code == "overloaded" => {
                tally.overload_retries += 1;
                std::thread::sleep(Duration::from_millis(backoff_ms(
                    opts,
                    conn,
                    id as usize,
                    0,
                    retry_after_ms.unwrap_or(100),
                )));
                retry.push(id as usize);
            }
            Response::Error { id, .. } => {
                if let Some(state) = tally.points.get_mut(id as usize) {
                    state.failed += 1;
                }
            }
            other => return Err(bad(format!("unexpected response: {other:?}"))),
        }
    }

    // Retries run unpipelined; each point gets `max_retries` attempts
    // inside its own deadline window, with capped exponential backoff
    // between attempts. A point that cannot settle in time becomes a
    // structured failure row, never an open-ended wait.
    for point in retry {
        let mut settled = false;
        let mut deadline_hit = false;
        let point_deadline = Instant::now() + deadline;
        for attempt in 0..opts.max_retries {
            let remaining = point_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                deadline_hit = true;
                break;
            }
            writer.write_all(request_line(point, &point_job(point, names)).as_bytes())?;
            line.clear();
            let n = match reader.read_line(&mut line) {
                Ok(n) => n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    0
                }
                Err(e) => return Err(e),
            };
            if n == 0 {
                deadline_hit = true;
                break;
            }
            match protocol::parse_response(&line) {
                Ok(Response::Result { payload, .. }) => {
                    record(&mut tally.points[point], &payload);
                    settled = true;
                    break;
                }
                Ok(Response::Error { code, retry_after_ms, .. }) if code == "overloaded" => {
                    tally.overload_retries += 1;
                    let sleep = Duration::from_millis(backoff_ms(
                        opts,
                        conn,
                        point,
                        attempt + 1,
                        retry_after_ms.unwrap_or(100),
                    ));
                    std::thread::sleep(sleep.min(remaining));
                }
                Ok(_) | Err(_) => break,
            }
        }
        if !settled {
            tally.points[point].failed += 1;
            if deadline_hit {
                tally.deadline_failures += 1;
            }
        }
    }
    Ok(tally)
}

/// Runs the load described by `opts` and aggregates the outcome.
///
/// # Errors
/// Returns the first connection-level I/O error (cannot connect, read
/// timeout, malformed greeting). Per-request overloads are retried and
/// counted, not errors.
pub fn run_load(opts: &LoadOptions) -> std::io::Result<LoadOutcome> {
    let names: Vec<String> =
        suite(Scale::Test).iter().map(|w| w.name.to_ascii_lowercase()).collect();
    let max_points = names.len() * UNIT_AXIS.len();
    if opts.points == 0 || opts.points > max_points {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("points must be in 1..={max_points}, got {}", opts.points),
        ));
    }

    let start = Arc::new(Barrier::new(opts.connections));
    let tallies: Arc<Mutex<Vec<ConnTally>>> = Arc::new(Mutex::new(Vec::new()));
    let errors: Arc<Mutex<Vec<std::io::Error>>> = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        for conn in 0..opts.connections {
            let (start, tallies, errors, names, opts) =
                (Arc::clone(&start), Arc::clone(&tallies), Arc::clone(&errors), &names, &opts);
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(scope, move || match run_connection(opts, names, conn, &start) {
                    Ok(tally) => tallies.lock().unwrap().push(tally),
                    Err(e) => errors.lock().unwrap().push(e),
                })
                .expect("spawn load connection thread");
        }
    });

    if let Some(e) = errors.lock().unwrap().pop() {
        return Err(e);
    }
    let elapsed = t0.elapsed();

    let mut points = vec![PointState::default(); opts.points];
    let mut latencies_us = Vec::new();
    let mut overload_retries = 0u64;
    let mut deadline_failures = 0u64;
    for tally in tallies.lock().unwrap().drain(..) {
        for (merged, p) in points.iter_mut().zip(tally.points) {
            merged.requests += p.requests;
            merged.divergent += p.divergent;
            merged.failed += p.failed;
            match (merged.digest, p.digest) {
                (None, d) => merged.digest = d,
                (Some(a), Some(b)) if a != b => merged.divergent += 1,
                _ => {}
            }
        }
        latencies_us.extend(tally.latencies_us);
        overload_retries += tally.overload_retries;
        deadline_failures += tally.deadline_failures;
    }
    latencies_us.sort_unstable();

    let per_point: Vec<PointReport> = points
        .iter()
        .enumerate()
        .map(|(i, p)| PointReport {
            job: point_job(i, &names).id(),
            requests: p.requests,
            digest: p.digest,
        })
        .collect();

    Ok(LoadOutcome {
        options: opts.clone(),
        total: points.iter().map(|p| p.requests).sum(),
        per_point,
        divergent: points.iter().map(|p| p.divergent).sum(),
        failed: points.iter().map(|p| p.failed).sum(),
        overload_retries,
        deadline_failures,
        elapsed,
        latencies_us,
    })
}

/// Fetches the daemon's raw `/stats` object over a throwaway connection
/// (for `msload --stats-out` and CI assertions).
///
/// # Errors
/// Propagates connect/read failures and malformed responses.
pub fn fetch_stats(addr: &str) -> std::io::Result<String> {
    let bad = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    protocol::parse_response(&line).map_err(bad)?;
    writer.write_all(b"{\"op\":\"stats\",\"id\":0}\n")?;
    line.clear();
    reader.read_line(&mut line)?;
    match protocol::parse_response(&line).map_err(bad)? {
        Response::Stats { raw, .. } => Ok(raw),
        other => Err(bad(format!("expected stats, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        suite(Scale::Test).iter().map(|w| w.name.to_ascii_lowercase()).collect()
    }

    #[test]
    fn schedules_are_deterministic_and_cover_points() {
        let opts = LoadOptions { points: 4, requests_per_conn: 64, ..LoadOptions::default() };
        assert_eq!(schedule(&opts, 0), schedule(&opts, 0));
        assert_ne!(schedule(&opts, 0), schedule(&opts, 1), "connections draw distinct traffic");
        let mut seen = [false; 4];
        for p in schedule(&opts, 0) {
            assert!(p < 4);
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 draws cover all 4 points");
        let reseeded = LoadOptions { seed: 2, ..opts.clone() };
        assert_ne!(schedule(&reseeded, 0), schedule(&opts, 0), "seed changes the traffic");
    }

    #[test]
    fn point_space_is_stable() {
        let names = names();
        assert_eq!(point_job(0, &names).id(), format!("{}@test/ms2/w1/inorder", names[0]));
        // Units advance once the workload axis wraps.
        let wrapped = point_job(names.len(), &names);
        assert_eq!(wrapped.cfg.units, 4);
        assert_eq!(point_job(0, &names), point_job(0, &names));
    }

    #[test]
    fn divergence_is_detected() {
        let mut p = PointState::default();
        record(&mut p, r#"{"ok":true}"#);
        record(&mut p, r#"{"ok":true}"#);
        assert_eq!(p.divergent, 0);
        record(&mut p, r#"{"ok":maybe}"#);
        assert_eq!(p.divergent, 1);
        assert_eq!(p.requests, 3);
    }

    #[test]
    fn report_json_is_deterministic_and_excludes_wall_clock() {
        let outcome = LoadOutcome {
            options: LoadOptions { points: 1, ..LoadOptions::default() },
            total: 3,
            per_point: vec![PointReport {
                job: "wc@test/ms2/w1/inorder".into(),
                requests: 3,
                digest: Some(0xdead_beef),
            }],
            divergent: 0,
            failed: 0,
            overload_retries: 7,
            deadline_failures: 2,
            elapsed: Duration::from_millis(1234),
            latencies_us: vec![10, 20, 30],
        };
        let report = outcome.report_json();
        assert!(report.starts_with("{\"schema\":\"multiscalar-load/v1\","), "{report}");
        assert!(report.contains("\"digest\":\"00000000deadbeef\""), "{report}");
        assert!(!report.contains("elapsed"), "wall clock must not leak into the report");
        assert!(!report.contains("retries"), "retry noise must not leak into the report");
        let mut faster = outcome.clone();
        faster.elapsed = Duration::from_millis(1);
        faster.latencies_us = vec![1];
        faster.overload_retries = 0;
        faster.deadline_failures = 0;
        assert_eq!(report, faster.report_json(), "timing never changes the report bytes");
        assert_ne!(outcome.timing_json(), faster.timing_json());
        assert!(outcome.timing_json().contains("\"deadline_failures\":2"));
    }

    #[test]
    fn backoff_is_capped_exponential_with_deterministic_jitter() {
        let opts = LoadOptions { seed: 7, backoff_cap_ms: 800, ..LoadOptions::default() };
        // Reproducible: same inputs, same sleep.
        assert_eq!(backoff_ms(&opts, 1, 2, 3, 100), backoff_ms(&opts, 1, 2, 3, 100));
        // Grows with the attempt, never past the cap — even at absurd
        // attempt counts (the shift saturates instead of overflowing).
        let delays: Vec<u64> =
            (0..12).map(|attempt| backoff_ms(&opts, 0, 0, attempt, 100)).collect();
        assert!(delays[0] >= 100 && delays[0] <= 125, "{delays:?}");
        assert!(delays[1] >= 200, "{delays:?}");
        assert!(delays.iter().all(|&d| d <= 800), "{delays:?}");
        assert_eq!(backoff_ms(&opts, 0, 0, 1_000_000, 100), 800);
        // Jitter desynchronizes connections retrying the same point.
        let spread: std::collections::HashSet<u64> =
            (0..16).map(|conn| backoff_ms(&opts, conn, 0, 0, 100)).collect();
        assert!(spread.len() > 1, "{spread:?}");
        // And the seed changes the schedule.
        let reseeded = LoadOptions { seed: 8, ..opts.clone() };
        assert_ne!(
            (0..16).map(|c| backoff_ms(&opts, c, 0, 0, 100)).collect::<Vec<_>>(),
            (0..16).map(|c| backoff_ms(&reseeded, c, 0, 0, 100)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn silent_daemon_yields_structured_failure_rows_not_a_hang() {
        // A "daemon" that greets and then never answers anything.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                if stream.write_all(protocol::hello_line(1, 8).as_bytes()).is_err() {
                    break;
                }
                held.push(stream); // keep the socket open, say nothing
                if held.len() >= 2 {
                    break;
                }
            }
            // Returned, not dropped: the sockets stay open (silent, not
            // closed) until the test joins this thread.
            held
        });

        let opts = LoadOptions {
            addr: addr.to_string(),
            connections: 2,
            requests_per_conn: 3,
            points: 2,
            deadline_ms: 300,
            ..LoadOptions::default()
        };
        let t0 = Instant::now();
        let outcome = run_load(&opts).expect("a silent daemon is rows, not an error");
        assert!(t0.elapsed() < Duration::from_secs(10), "deadline bounded the run");
        assert_eq!(outcome.failed, 6, "{outcome:?}");
        assert_eq!(outcome.deadline_failures, 6, "{outcome:?}");
        assert_eq!(outcome.total, 0, "{outcome:?}");
        drop(server.join().unwrap());
    }

    #[test]
    fn a_connection_failing_after_the_start_barrier_strands_no_one() {
        // The first connection gets a garbage line after its greeting and
        // fails after the barrier; the second gets silence and times out
        // into failure rows. The run must end, with the first's error.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let mut greeting = protocol::hello_line(1, 8);
                if held.is_empty() {
                    greeting.push_str("not json\n");
                }
                stream.write_all(greeting.as_bytes()).unwrap();
                held.push(stream);
            }
            held
        });

        let opts = LoadOptions {
            addr: addr.to_string(),
            connections: 2,
            requests_per_conn: 3,
            points: 2,
            deadline_ms: 300,
            ..LoadOptions::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(run_load(&opts).map(|_| ()).map_err(|e| e.kind())));
        let result = rx.recv_timeout(Duration::from_secs(10)).expect("run_load hung");
        assert_eq!(result, Err(std::io::ErrorKind::InvalidData));
        drop(server.join().unwrap());
    }
}
