//! The `serve` workload: an in-process `ms_serve::Server` with one
//! worker and a disk cache in a fresh directory, driven by two closed-loop
//! connections that each keep one `run` request outstanding. Each
//! connection sends four requests from a small hot set (cache hits), then
//! one first-time full-scale point (compute and queue wait).
//!
//! Every request is a point of the Section 5 grid that researchers serve:
//! a program on one of the [`GRID`] machines. The hot set is one point
//! per program, its machine taken in turn from the grid; the misses are
//! every other grid point.
//!
//! The traffic runs in rounds. Each round draws a new script from the
//! seed: the same misses in a new order with new hot picks. Before each
//! round the misses' cache entries are deleted, so every round serves
//! first-time points. Every thread runs pinned to one vCPU, on which the
//! host's speed is read every [`READ_EVERY`] through each untraced round
//! and at its ends; each round's times are scaled by the mean of those
//! readings to reference time (see [`HostSpeed`]), and the figures pool
//! every untraced round, so neither one script's queueing order nor a
//! slow spell of a shared host decides them.
//!
//! `partition` requests are left out of the mix: the daemon resolves a
//! workload by (name, scale) only and ignores the partition key, so a
//! partitioned request is served the hand-annotated result.

use crate::expect::Counts;
use crate::sim::{Machine, GRID};
use crate::trace::{self, Tracer};
use crate::util::{
    current_cpu, fnv1a, median, pin_thread, quantile, ratio, HostSpeed, Rng, SetupClock,
};
use crate::{Opts, Report};
use ms_serve::protocol::{parse_response, Response};
use ms_serve::{RunRequest, Server, ServerConfig, ServerHandle, StatsSnapshot};
use ms_sweep::{
    artifacts, resolve_workload, run_jobs, Executor, InProcessExecutor, Job, JobKind, SweepCache,
    SweepOptions,
};
use ms_trace::jsonv::{self, JsonValue};
use ms_workloads::{suite, Scale, Workload};
use multiscalar::RunStats;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load connections, each with one request outstanding.
const CONNECTIONS: usize = 2;
/// Each connection sends one miss after every `HOT_RUN` hits.
const HOT_RUN: usize = 4;
/// A reply slower than this counts as a failure.
const DEADLINE: Duration = Duration::from_secs(20);
/// Pings and cache loads timed after a traced run's rounds.
const PROBES: usize = 200;

/// How often the main thread reads the host's speed during an untraced
/// round. A reading takes about 4 ms of the vCPU the daemon runs on, the
/// same share of every round.
const READ_EVERY: Duration = Duration::from_millis(150);
/// The `RunStats` fields of every payload that must equal the
/// expectation file.
const PINNED: [&str; 4] = ["cycles", "instructions", "tasks_retired", "tasks_squashed"];

/// One design point as the protocol names it.
#[derive(Clone)]
struct Point {
    req: RunRequest,
    /// `Job::id()`, which also keys the executor's spans.
    id: String,
    /// The point's name in the expectation file, e.g. `wc/ms4w2ooo`.
    pin: String,
}

impl Point {
    fn new(workload: &str, scale: Scale, m: &Machine) -> Point {
        let kind = if m.units == 1 { JobKind::Scalar } else { JobKind::Multiscalar };
        let req = RunRequest {
            workload: workload.to_ascii_lowercase(),
            scale,
            kind,
            units: m.units,
            width: m.width,
            ooo: m.ooo,
            partition: None,
        };
        let id = req.job().id();
        let pin = format!("{}/{}", req.workload, m.name);
        Point { req, id, pin }
    }

    fn line(&self, id: u64) -> String {
        let r = &self.req;
        format!(
            "{{\"op\":\"run\",\"id\":{id},\"workload\":\"{}\",\"scale\":\"{}\",\"kind\":\"{}\",\
             \"units\":{},\"width\":{},\"ooo\":{}}}\n",
            r.workload,
            r.scale.id(),
            r.kind.id(),
            r.units,
            r.width,
            r.ooo
        )
    }
}

/// Every program on every [`GRID`] machine, split into the hot set (one
/// point per program, its machine taken in turn from the grid, so serving
/// the hot set also resolves every program) and the misses (the rest).
fn grid(names: &[String], scale: Scale) -> (Vec<Point>, Vec<Point>) {
    let (mut hot, mut misses) = (Vec::new(), Vec::new());
    for (i, name) in names.iter().enumerate() {
        for (j, m) in GRID.iter().enumerate() {
            let p = Point::new(name, scale, m);
            if j == i % GRID.len() {
                hot.push(p);
            } else {
                misses.push(p);
            }
        }
    }
    (hot, misses)
}

/// One request of a connection's script.
struct Step {
    hit: bool,
    point: Point,
}

/// Each connection's script: the misses in a seeded order, dealt in turn
/// to the connections, each preceded by [`HOT_RUN`] seeded hot picks;
/// each script starts at a seeded offset into its four-hits-one-miss
/// cycle.
fn scripts(misses: &[Point], hot: &[Point], seed: u64) -> Vec<Vec<Step>> {
    let mut rng = Rng::new(seed);
    let mut misses = misses.to_vec();
    rng.shuffle(&mut misses);
    let mut scripts: Vec<Vec<Step>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, miss) in misses.into_iter().enumerate() {
        let script = &mut scripts[i % CONNECTIONS];
        for _ in 0..HOT_RUN {
            script.push(Step { hit: true, point: hot[rng.below(hot.len())].clone() });
        }
        script.push(Step { hit: false, point: miss });
    }
    for script in &mut scripts {
        let offset = rng.below(HOT_RUN + 1);
        script.rotate_left(offset);
    }
    scripts
}

/// Wraps the daemon's executor to time each simulation.
struct TimedExecutor {
    inner: InProcessExecutor,
    tracer: Arc<Tracer>,
}

impl Executor for TimedExecutor {
    fn run(&self, job: &Job, w: &Workload, slot: usize) -> Result<RunStats, String> {
        self.tracer.span("serve.simulate", None, &job.id(), |_| self.inner.run(job, w, slot))
    }

    fn name(&self) -> &str {
        "timed-in-process"
    }
}

/// What every reply is checked against.
struct Oracle<'a> {
    /// The pinned counts of every grid point.
    expect: &'a Counts,
    /// Cold `run_jobs` payload per hot point id.
    golden: HashMap<String, String>,
    /// First payload digest seen per point id, across rounds.
    digests: Mutex<HashMap<String, u64>>,
}

impl Oracle<'_> {
    /// Checks one reply that took `elapsed`: in time, a result with
    /// `"ok":true` and the pinned counts, the same bytes as every earlier
    /// reply for the point, and for hot points the cold payload.
    fn check(&self, point: &Point, line: &str, elapsed: Duration) -> Result<(), String> {
        if elapsed > DEADLINE {
            return Err(format!("{}: missed the {DEADLINE:?} deadline", point.id));
        }
        let payload = match parse_response(line) {
            Ok(Response::Result { payload, .. }) => payload,
            Ok(Response::Error { code, detail, .. }) => {
                return Err(format!("{}: error reply `{code}`: {detail}", point.id))
            }
            Ok(other) => return Err(format!("{}: unexpected reply {other:?}", point.id)),
            Err(e) => return Err(format!("{}: unreadable reply: {e}", point.id)),
        };
        let doc = jsonv::parse(&payload).map_err(|e| format!("{}: bad payload: {e}", point.id))?;
        if doc.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            return Err(format!("{}: payload is not ok: {payload}", point.id));
        }
        for field in PINNED {
            let got = doc.get("stats").and_then(|s| s.get(field)).and_then(JsonValue::as_u64);
            let want = self.expect.get(&format!("{}.{field}", point.pin)).copied();
            if got.is_none() || got != want {
                let show = |v: Option<u64>| v.map_or("none".to_string(), |v| v.to_string());
                return Err(format!(
                    "{}: {field}={}, expected {}",
                    point.pin,
                    show(got),
                    show(want)
                ));
            }
        }
        let digest = fnv1a(payload.as_bytes());
        let first =
            *self.digests.lock().expect("digest map").entry(point.id.clone()).or_insert(digest);
        if first != digest {
            return Err(format!("{}: divergent payload {digest:016x} vs {first:016x}", point.id));
        }
        match self.golden.get(&point.id) {
            Some(cold) if *cold != payload => {
                Err(format!("{}: payload differs from the cold sweep", point.id))
            }
            _ => Ok(()),
        }
    }
}

/// A client connection that has read the daemon's greeting.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(DEADLINE)).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut conn = Conn { stream, reader };
        let hello = conn.read()?;
        match parse_response(&hello) {
            Ok(Response::Hello { .. }) => Ok(conn),
            _ => Err(format!("bad greeting {hello:?}")),
        }
    }

    fn read(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream.write_all(line.as_bytes()).map_err(|e| format!("write: {e}"))?;
        self.read()
    }
}

/// Replays one connection's script; returns each step's (start, end) in
/// tracer nanoseconds, or why it failed.
fn replay(
    addr: SocketAddr,
    script: &[Step],
    oracle: &Oracle,
    tracer: &Tracer,
) -> Vec<Result<(u64, u64), String>> {
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => return script.iter().map(|_| Err(e.clone())).collect(),
    };
    let mut out = Vec::with_capacity(script.len());
    for (i, step) in script.iter().enumerate() {
        let start = tracer.now_ns();
        let reply = conn.call(&step.point.line(i as u64));
        let end = tracer.now_ns();
        let elapsed = Duration::from_nanos(end - start);
        let checked = reply.and_then(|line| oracle.check(&step.point, &line, elapsed));
        out.push(checked.map(|()| (start, end)));
        if tracer.enabled() {
            let name = if step.hit { "serve.hit" } else { "serve.miss" };
            tracer.record(name, &step.point.id, start, end);
        }
    }
    out
}

/// Deletes every cache entry except the hot set's, so the next round's
/// misses are first-time points again.
fn forget_misses(cache_dir: &Path, keep: &HashSet<std::ffi::OsString>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    for entry in entries.flatten() {
        if !keep.contains(&entry.file_name()) {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Runs the hot set through a cold `run_jobs` into `cache`; returns each
/// point's payload.
fn golden(hot: &[Point], cache: &Path) -> Result<HashMap<String, String>, String> {
    let jobs = hot.iter().map(|p| p.req.job()).collect();
    let opts = SweepOptions { jobs: 1, cache: SweepCache::at(cache), ..SweepOptions::default() };
    let mut out = HashMap::new();
    for outcome in run_jobs(jobs, &opts).outcomes {
        let o = outcome.map_err(|f| format!("cold sweep: {f}"))?;
        out.insert(o.job.id(), artifacts::outcome_json(&Ok(o)));
    }
    Ok(out)
}

pub fn run(opts: &Opts, tracer: &Arc<Tracer>, expect: &Counts) -> Result<Report, String> {
    let cache_dir = opts.out_dir.join(format!("serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 64,
        cache: SweepCache::at(&cache_dir),
        ..ServerConfig::default()
    };
    // Pin this thread, and so every thread it starts (the daemon's and
    // the load's), to one vCPU: the simulations and the host-speed
    // readings then share it, so a slow spell of it shows in both. Where
    // the host refuses, the threads run unpinned.
    if let Some(cpu) = current_cpu() {
        pin_thread(cpu);
    }
    let exec: Arc<dyn Executor> =
        Arc::new(TimedExecutor { inner: InProcessExecutor::new(), tracer: Arc::clone(tracer) });

    // Set-up: generate the suite and start the daemon.
    let start = || -> Result<(ServerHandle, Vec<String>), String> {
        let suite = tracer.span("workloads.generate", None, "suite", |_| suite(opts.scale));
        let names = suite.iter().map(|w| w.name.to_string()).collect();
        let server = Server::start(cfg.clone(), Arc::clone(&exec)).map_err(|e| e.to_string())?;
        Ok((server, names))
    };
    let mut setup = SetupClock::default();
    let (server, names) = setup.time(start)?;
    // Later set-up samples start a daemon of their own and stop it again.
    let mut resample = || -> Result<(), String> {
        if setup.wants_more() {
            let (spare, _) = setup.time(start)?;
            spare.shutdown();
            spare.join();
        }
        Ok(())
    };
    let (hot, misses) = grid(&names, opts.scale);
    let result = load(opts, tracer, &server, (&hot, &misses), expect, &cache_dir, &mut resample)
        .map(|(r, scale)| Report { setup_s: setup.median() * scale, ..r });
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

/// A replayed round: per connection, per step, the outcome.
type Round = Vec<Vec<Result<(u64, u64), String>>>;

/// The timed rounds over the `(hot, misses)` points, then (traced runs)
/// the ping and cache-load probes and the per-layer figures. Also returns
/// the reference seconds per host second the figures were scaled by.
fn load(
    opts: &Opts,
    tracer: &Tracer,
    server: &ServerHandle,
    (hot, misses): (&[Point], &[Point]),
    expect: &Counts,
    cache_dir: &Path,
    resample_setup: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(Report, f64), String> {
    let mut report = Report::default();
    let t = Instant::now();
    let oracle = Oracle { expect, golden: golden(hot, cache_dir)?, digests: Mutex::default() };
    report.notes.push(("golden_s", t.elapsed().as_secs_f64(), "s"));
    let keep: HashSet<_> = std::fs::read_dir(cache_dir)
        .map_err(|e| format!("{}: {e}", cache_dir.display()))?
        .flatten()
        .map(|e| e.file_name())
        .collect();

    // Warm-up: every hot point once, which also resolves every program.
    let addr = server.addr();
    let mut conn = Conn::open(addr)?;
    for p in hot {
        let t = Instant::now();
        let line = conn.call(&p.line(0))?;
        oracle.check(p, &line, t.elapsed())?;
    }
    let before = server.stats();

    // Per untraced round: its seconds and every request's latency (ms),
    // host time; and the round's scale to reference time (`HostSpeed`).
    let mut untraced: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut scales = Vec::new();
    let mut speed = HostSpeed::new();
    let mut round_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut windows = Vec::new();
    let mut traced_rounds: Vec<(Vec<Vec<Step>>, Round)> = Vec::new();
    let mut rng = Rng::new(opts.seed);
    let start = Instant::now();
    let min_rounds = if opts.trace { 2 } else { 1 };
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && rounds % 2 == 1;
        let scripts = scripts(misses, hot, rng.next_u64());
        forget_misses(cache_dir, &keep)?;
        tracer.set_enabled(traced);
        let w0 = tracer.now_ns();
        let round: Round = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| scope.spawn(|| replay(addr, script, &oracle, tracer)))
                .collect();
            if !traced {
                // The host's speed through the round, not only at its ends.
                while !handles.iter().all(|h| h.is_finished()) {
                    std::thread::sleep(READ_EVERY);
                    speed.sample();
                }
            }
            handles.into_iter().map(|h| h.join().expect("load connection panicked")).collect()
        });
        let w1 = tracer.now_ns();
        tracer.set_enabled(false);
        let scale = speed.scale();
        let secs = (w1 - w0) as f64 / 1e9;
        round_s[usize::from(traced)].push(secs);
        let mut ms = Vec::new();
        for step in round.iter().flatten() {
            report.attempted += 1;
            match step {
                Ok((a, b)) => ms.push((b - a) as f64 / 1e6),
                Err(e) => report.fail(e.clone()),
            }
        }
        if traced {
            windows.push((w0, w1));
            traced_rounds.push((scripts, round));
        } else {
            untraced.push((secs, ms));
            scales.push(scale);
        }
        resample_setup()?;
        rounds += 1;
    }
    let after = server.stats();

    // In reference time, every untraced round pooled, which averages over
    // which misses happened to queue behind which. The median request is a
    // cache hit, whose time is mostly thread wake-ups that a slow spell
    // stretches unevenly, so `op_ms_p50` is the median over rounds of each
    // round's own median.
    let secs: f64 = untraced.iter().zip(&scales).map(|(r, k)| r.0 * k).sum();
    let ms: Vec<f64> =
        untraced.iter().zip(&scales).flat_map(|(r, k)| r.1.iter().map(move |t| t * k)).collect();
    let round_p50: Vec<f64> =
        untraced.iter().zip(&scales).map(|(r, k)| quantile(&r.1, 0.5) * k).collect();
    report.ops_per_s = ratio(ms.len() as f64, secs);
    let scale = median(&scales);
    report.op_ms_p50 = median(&round_p50);
    report.op_ms_p95 = quantile(&ms, 0.95);
    report.notes.push(("req_ms_p50", report.op_ms_p50, "ms"));
    report.notes.push(("req_ms_p99", quantile(&ms, 0.99), "ms"));
    report.notes.push(("req_per_s", report.ops_per_s, "1/s"));
    report.notes.push(("rounds", rounds as f64, "count"));
    report.notes.push(("requests", report.attempted as f64, "count"));
    report.notes.push(("host_scale", scale, "x"));
    if opts.trace {
        probe(tracer, &mut conn, hot, cache_dir, &mut report)?;
        per_layer(&mut report, tracer, &traced_rounds, &windows, &round_s, before, after);
        let digests = oracle.digests.lock().expect("digest map");
        report.counters = digests.iter().map(|(id, d)| (format!("{id}.payload_fnv"), *d)).collect();
    }
    Ok((report, scale))
}

/// Times [`PROBES`] pings and as many hot-set cache loads.
fn probe(
    tracer: &Tracer,
    conn: &mut Conn,
    hot: &[Point],
    cache_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    tracer.set_enabled(true);
    for i in 0..PROBES {
        let start = tracer.now_ns();
        let pong = conn.call(&format!("{{\"op\":\"ping\",\"id\":{i}}}\n"))?;
        tracer.record("serve.ping", "ping", start, tracer.now_ns());
        if !matches!(parse_response(&pong), Ok(Response::Pong { .. })) {
            report.fail(format!("bad ping reply {pong:?}"));
        }
    }
    let cache = SweepCache::at(cache_dir);
    for i in 0..PROBES {
        let p = &hot[i % hot.len()];
        let (_, fingerprint) = resolve_workload(&p.req.workload, p.req.scale, None)?;
        let key = p.req.job().cache_key(fingerprint);
        if tracer.span("sweep.cache_load", None, &p.id, |_| cache.load(&key)).is_none() {
            report.fail(format!("{}: cache entry missing", p.id));
        }
    }
    tracer.set_enabled(false);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    traced_rounds: &[(Vec<Vec<Step>>, Round)],
    windows: &[(u64, u64)],
    round_s: &[Vec<f64>; 2],
    before: StatsSnapshot,
    after: StatsSnapshot,
) {
    let spans = tracer.spans();
    let durs = |name: &str, unit_ns: f64| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / unit_ns).collect()
    };
    let mut simulate: HashMap<&str, Vec<&trace::Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "serve.simulate") {
        simulate.entry(s.key.as_str()).or_default().push(s);
    }
    let (mut hits, mut misses, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for (scripts, round) in traced_rounds {
        for (script, steps) in scripts.iter().zip(round) {
            for (step, outcome) in script.iter().zip(steps) {
                let Ok((a, b)) = *outcome else { continue };
                let ms = (b - a) as f64 / 1e6;
                if step.hit {
                    hits.push(ms);
                    continue;
                }
                misses.push(ms);
                // The simulation this request waited for.
                let sim = simulate.get(step.point.id.as_str()).and_then(|v| {
                    v.iter().find(|s| s.start_ns >= a && s.end_ns <= b).map(|s| s.dur_ns())
                });
                if let Some(sim) = sim {
                    overhead.push(ms - sim as f64 / 1e6);
                }
            }
        }
    }
    let generate = trace::self_times(&spans).remove("workloads.generate").unwrap_or_default();
    report.layer("workloads.generate_ms", median(&generate) / 1e6);
    report.layer("serve.hit_ms_p50", median(&hits));
    report.layer("serve.miss_ms_p50", median(&misses));
    report.layer("serve.simulate_ms_p50", median(&durs("serve.simulate", 1e6)));
    report.layer("serve.miss_overhead_ms_p50", median(&overhead));
    report.layer("serve.ping_us_p50", median(&durs("serve.ping", 1e3)));
    report.layer("sweep.cache_load_us_p50", median(&durs("sweep.cache_load", 1e3)));
    let delta = |f: fn(&StatsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let settled = delta(|s| s.cache_hits) + delta(|s| s.dedup_joins);
    report.layer("serve.hit_ratio", ratio(settled, delta(|s| s.requests)));
    report.layer("serve.dedup_joins", delta(|s| s.dedup_joins));
    report.layer("serve.peak_queue_depth", after.peak_queue_depth as f64);
    report.layer("serve.overloaded", delta(|s| s.overloaded));
    report.layer("trace.overhead_frac", median(&round_s[1]) / median(&round_s[0]) - 1.0);
    let requests: Vec<trace::Span> =
        spans.iter().filter(|s| s.name == "serve.hit" || s.name == "serve.miss").cloned().collect();
    report.layer("trace.span_coverage", trace::coverage(&requests, windows));
    report.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_serve::protocol::{error_line, result_line};

    /// A result payload with `cycles` and fixed other pinned counts.
    fn payload(cycles: u64) -> String {
        format!(
            "{{\"ok\":true,\"stats\":{{\"cycles\":{cycles},\"instructions\":20,\
             \"tasks_retired\":3,\"tasks_squashed\":1}}}}"
        )
    }

    #[test]
    fn the_oracle_rejects_every_kind_of_bad_reply() {
        let hot = Point::new("wc", Scale::Test, &GRID[1]);
        let cold_hot = Point::new("cmp", Scale::Test, &GRID[0]);
        let miss = Point::new("wc", Scale::Test, &GRID[4]);
        let mut expect = Counts::new();
        for p in [&hot, &cold_hot, &miss] {
            for (field, v) in PINNED.iter().zip([10, 20, 3, 1]) {
                expect.insert(format!("{}.{field}", p.pin), v);
            }
        }
        let golden = HashMap::from([
            (hot.id.clone(), payload(10)),
            (cold_hot.id.clone(), payload(10).replace("\"ok\":true", "\"ok\":true,\"x\":1")),
        ]);
        let oracle = Oracle { expect: &expect, golden, digests: Mutex::default() };
        let fast = Duration::from_millis(1);
        let check = |p: &Point, payload: &str| oracle.check(p, &result_line(7, payload), fast);
        let fails = |r: Result<(), String>, why: &str| {
            let e = r.expect_err(why);
            assert!(e.contains(why), "{e}");
        };

        assert_eq!(check(&hot, &payload(10)), Ok(()));
        assert_eq!(check(&miss, &payload(10)), Ok(()));
        fails(check(&miss, "{\"ok\":false,\"error\":\"boom\"}"), "payload is not ok");
        fails(check(&miss, &payload(11)), "wc/ms4w2ooo: cycles=11, expected 10");
        fails(check(&miss, &payload(10).replace("}}", "},\"x\":1}")), "divergent payload");
        fails(check(&cold_hot, &payload(10)), "differs from the cold sweep");
        let overloaded = error_line(7, "overloaded", Some(5), "queue full");
        fails(oracle.check(&miss, &overloaded, fast), "error reply `overloaded`");
        let late = DEADLINE + Duration::from_millis(1);
        fails(oracle.check(&hot, &result_line(7, &payload(10)), late), "deadline");
    }
}
