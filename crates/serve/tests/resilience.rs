//! Service-layer robustness: a leader that panics mid-compute must wake
//! its joiners with a structured error (and the next caller must get to
//! lead a fresh flight), idle connections are evicted with a structured
//! `timeout` line, never silently, a client that vanishes mid-request
//! changes nothing the next client is served, and no request line —
//! however deeply nested or however long — can abort the daemon or grow
//! its memory without bound.

use ms_serve::protocol::{self, Response};
use ms_serve::{Server, ServerConfig, StatsSnapshot};
use ms_sweep::{
    artifacts, run_jobs, Executor, InProcessExecutor, Job, SweepCache, SweepOptions, SweepSpec,
};
use ms_workloads::{Scale, Workload};
use multiscalar::RunStats;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Panics on its first evaluation — but only once the test opens the
/// gate, so joiners provably pile onto the doomed flight first. Later
/// evaluations delegate to the real engine.
struct PanicOnceExecutor {
    inner: InProcessExecutor,
    entered: AtomicUsize,
    open: Mutex<bool>,
    cv: Condvar,
}

impl PanicOnceExecutor {
    fn new() -> PanicOnceExecutor {
        PanicOnceExecutor {
            inner: InProcessExecutor::new(),
            entered: AtomicUsize::new(0),
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl Executor for PanicOnceExecutor {
    fn run(&self, job: &Job, w: &Workload, slot: usize) -> Result<RunStats, String> {
        if self.entered.fetch_add(1, Ordering::SeqCst) == 0 {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            panic!("injected leader panic (test)");
        }
        self.inner.run(job, w, slot)
    }

    fn name(&self) -> &str {
        "panic-once"
    }
}

/// Opens a connection, reads the hello line, sends `request` and
/// returns the one response line.
fn exchange(addr: SocketAddr, request: &[u8]) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello
    writer.write_all(request).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    protocol::parse_response(&line).unwrap()
}

fn fetch_stats(addr: SocketAddr) -> StatsSnapshot {
    match exchange(addr, b"{\"op\":\"stats\",\"id\":0}\n") {
        Response::Stats { raw, .. } => StatsSnapshot::from_json(&raw).unwrap(),
        other => panic!("{other:?}"),
    }
}

fn ask(addr: SocketAddr) -> String {
    match exchange(addr, b"{\"op\":\"run\",\"id\":1,\"workload\":\"wc\",\"units\":4}\n") {
        Response::Result { id: 1, payload } => payload,
        other => panic!("{other:?}"),
    }
}

#[test]
fn leader_panic_wakes_joiners_with_structured_error_and_frees_the_flight() {
    const JOINERS: usize = 3;
    let exec = Arc::new(PanicOnceExecutor::new());
    let cfg = ServerConfig { workers: 2, queue_depth: 16, ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::clone(&exec) as Arc<dyn Executor>).expect("bind");
    let addr = server.addr();

    let payloads: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    std::thread::scope(|scope| {
        for _ in 0..(1 + JOINERS) {
            let payloads = Arc::clone(&payloads);
            scope.spawn(move || {
                // Block on the request first; only then take the lock
                // (holding it across `ask` would serialize the clients).
                let p = ask(addr);
                payloads.lock().unwrap().push(p);
            });
        }
        // Hold the doomed evaluation open until every joiner has landed
        // on its flight, then let it panic with an audience.
        while fetch_stats(addr).dedup_joins < JOINERS as u64
            || exec.entered.load(Ordering::SeqCst) < 1
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        exec.release();
    });

    let payloads = payloads.lock().unwrap();
    assert_eq!(payloads.len(), 1 + JOINERS);
    for p in payloads.iter() {
        assert_eq!(p, &payloads[0], "leader and joiners hear identical bytes");
        assert!(p.contains("\"ok\":false"), "{p}");
        assert!(p.contains("executor panicked: injected leader panic"), "{p}");
    }
    drop(payloads);

    // The flight key is free again: the next caller leads a fresh
    // flight, and this time the evaluation succeeds.
    let retry = ask(addr);
    assert!(retry.contains("\"ok\":true"), "{retry}");
    assert_eq!(exec.entered.load(Ordering::SeqCst), 2, "retry re-evaluated");

    server.shutdown();
    server.join();
}

#[test]
fn clients_that_vanish_mid_request_change_nothing_the_next_client_gets() {
    // The reference, built as `served_sweep_bytes_equal_results_json`
    // builds it: a cold engine run of the spec the sweep line expands to.
    let spec = SweepSpec {
        workloads: vec!["wc".into(), "cmp".into()],
        scale: Scale::Test,
        widths: vec![1],
        orders: vec![false],
        unit_counts: vec![4],
        include_scalar: true,
        partitions: Vec::new(),
    };
    let cold = artifacts::results_json(&run_jobs(spec.expand(), &SweepOptions::default()));

    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind");
    let addr = server.addr();
    let sweep: &[u8] = b"{\"op\":\"sweep\",\"id\":1,\"workloads\":[\"wc\",\"cmp\"],\
                         \"widths\":[1],\"units\":[4]}\n";

    // One client sends the whole line and closes without reading the
    // answer, so the daemon computes for a socket that is gone. Another
    // closes halfway through the line.
    for sent in [sweep, &sweep[..sweep.len() / 2]] {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut hello = String::new();
        BufReader::new(stream).read_line(&mut hello).unwrap();
        writer.write_all(sent).unwrap();
    }

    match exchange(addr, sweep) {
        Response::SweepResult { id: 1, payload } => {
            assert_eq!(payload, cold, "served sweep != results.json bytes after the drops");
        }
        other => panic!("{other:?}"),
    }
    // The reader drops a partial line at EOF: it is not a bad request.
    assert_eq!(fetch_stats(addr).bad_requests, 0);

    server.shutdown();
    server.join();
}

#[test]
fn idle_connections_get_a_structured_timeout_then_eof() {
    let cfg = ServerConfig {
        workers: 1,
        idle_timeout_ms: 250,
        cache: SweepCache::disabled(),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello

    // Activity is still served before the idle window elapses.
    writer.write_all(b"{\"op\":\"ping\",\"id\":7}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(protocol::parse_response(&line).unwrap(), Response::Pong { id: 7 });

    // Then silence: the daemon announces the eviction before closing.
    line.clear();
    reader.read_line(&mut line).unwrap();
    match protocol::parse_response(&line).unwrap() {
        Response::Error { id, code, detail, .. } => {
            assert_eq!((id, code.as_str()), (0, "timeout"), "{line}");
            assert!(detail.contains("250ms"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "connection closed after timeout");

    // The daemon itself is unaffected: a new connection still serves.
    assert!(ask(addr).contains("\"ok\":true"));

    server.shutdown();
    server.join();
}

#[test]
fn deeply_nested_lines_are_bad_requests_not_a_daemon_abort() {
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind");
    let addr = server.addr();
    let ping = |depth: usize| {
        format!("{{\"op\":\"ping\",\"id\":3,\"x\":{}{}}}\n", "[".repeat(depth), "]".repeat(depth))
    };

    // Nesting up to the parser's limit is still a request, parsed on a
    // connection thread's stack.
    let at_limit = ping(ms_trace::jsonv::MAX_DEPTH - 1);
    assert_eq!(exchange(addr, at_limit.as_bytes()), Response::Pong { id: 3 });

    // 100,000 levels once overflowed that stack and aborted the process.
    match exchange(addr, ping(100_000).as_bytes()) {
        Response::Error { code, detail, .. } => {
            assert_eq!(code, "bad_request");
            assert!(detail.contains("nesting deeper than"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(exchange(addr, b"{\"op\":\"ping\",\"id\":4}\n"), Response::Pong { id: 4 });

    server.shutdown();
    server.join();
}

#[test]
fn an_endless_line_is_refused_and_its_connection_closed() {
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // hello

    // 8 MiB with no newline. The daemon stops reading at its cap, so the
    // tail of this write may fail once the connection is gone.
    let flood = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..128 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });

    line.clear();
    reader.read_line(&mut line).unwrap();
    match protocol::parse_response(&line).unwrap() {
        Response::Error { code, detail, .. } => {
            assert_eq!(code, "bad_request", "{line}");
            assert!(detail.contains("request line longer than"), "{detail}");
        }
        other => panic!("{other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "connection closed after the error");
    flood.join().unwrap();

    // The daemon counted the refusal and keeps serving other connections.
    assert_eq!(fetch_stats(addr).bad_requests, 1);
    assert_eq!(exchange(addr, b"{\"op\":\"ping\",\"id\":5}\n"), Response::Pong { id: 5 });

    server.shutdown();
    server.join();
}
