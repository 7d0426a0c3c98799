//! End-to-end determinism: a served response is byte-identical to what
//! a cold `mssweep`-style run computes for the same design point, and a
//! served sweep is byte-identical to the `results.json` document. That
//! holds whether a point was computed, cached or coalesced, and whether
//! its request came alone or pipelined behind others.

use ms_serve::protocol::{self, Response};
use ms_serve::{Server, ServerConfig};
use ms_sweep::{
    artifacts, run_jobs, InProcessExecutor, Job, JobKind, SweepCache, SweepOptions, SweepSpec,
};
use ms_workloads::Scale;
use multiscalar::SimConfig;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn ask(addr: std::net::SocketAddr, line: &str) -> Response {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    reader.read_line(&mut buf).unwrap(); // hello
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    buf.clear();
    reader.read_line(&mut buf).unwrap();
    protocol::parse_response(&buf).expect(&buf)
}

#[test]
fn served_point_bytes_equal_cold_engine_bytes() {
    // One hand-annotated point and one auto-partitioned point: the
    // partition key must reach the simulator and the fingerprint.
    let key = "part v1;size=16;loops=1;calls=0;fwd=1;rel=1";
    let spec = SweepSpec {
        workloads: vec!["wc".into()],
        scale: Scale::Test,
        widths: vec![1],
        orders: vec![false],
        unit_counts: vec![4],
        include_scalar: false,
        partitions: vec![None, Some(key.into())],
    };
    // The reference bytes: what a cold, cache-less engine run renders
    // into results.json for each design point.
    let report = run_jobs(spec.expand(), &SweepOptions::default());
    let cold: Vec<String> = report.outcomes.iter().map(artifacts::outcome_json).collect();
    assert_ne!(cold[0], cold[1], "partitioning must change the payload");

    let server =
        Server::start(ServerConfig::default(), Arc::new(InProcessExecutor::new())).expect("bind");
    let requests = [
        r#"{"op":"run","id":1,"workload":"wc","units":4}"#.to_string(),
        format!(r#"{{"op":"run","id":2,"workload":"wc","units":4,"partition":"{key}"}}"#),
    ];
    for (line, cold) in requests.iter().zip(&cold) {
        let served = match ask(server.addr(), line) {
            Response::Result { payload, .. } => payload,
            other => panic!("{other:?}"),
        };
        assert_eq!(&served, cold, "served bytes != cold engine bytes for {line}");
    }
    server.shutdown();
    server.join();
}

#[test]
fn warm_cache_and_cold_compute_serve_identical_bytes() {
    let dir = std::env::temp_dir().join(format!("ms-serve-bytes-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig { cache: SweepCache::at(&dir), ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind");
    let addr = server.addr();

    let line = r#"{"op":"run","id":1,"workload":"cmp","units":8}"#;
    let cold = match ask(addr, line) {
        Response::Result { payload, .. } => payload,
        other => panic!("{other:?}"),
    };
    let warm = match ask(addr, line) {
        Response::Result { payload, .. } => payload,
        other => panic!("{other:?}"),
    };
    assert_eq!(cold, warm, "cache-served bytes != computed bytes");
    let stats = server.stats();
    assert_eq!((stats.computed, stats.cache_hits), (1, 1), "{stats:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_sweep_bytes_equal_results_json() {
    let spec = SweepSpec {
        workloads: vec!["wc".into(), "cmp".into()],
        scale: Scale::Test,
        widths: vec![1],
        orders: vec![false],
        unit_counts: vec![4],
        include_scalar: true,
        partitions: Vec::new(),
    };
    let report = run_jobs(spec.expand(), &SweepOptions::default());
    let results_json = artifacts::results_json(&report);

    let server =
        Server::start(ServerConfig::default(), Arc::new(InProcessExecutor::new())).expect("bind");
    let served = match ask(
        server.addr(),
        r#"{"op":"sweep","id":1,"workloads":["wc","cmp"],"widths":[1],"units":[4]}"#,
    ) {
        Response::SweepResult { payload, .. } => payload,
        other => panic!("{other:?}"),
    };
    assert_eq!(served, results_json, "served sweep != results.json bytes");
    server.shutdown();
    server.join();
}

#[test]
fn pipelined_batches_are_answered_in_order_with_engine_bytes_cold_and_warm() {
    const CONNECTIONS: usize = 4;
    const BATCH: usize = 8;
    let points = [("wc", 4), ("cmp", 4), ("wc", 8)];
    // The reference bytes: a cold, cache-less engine run of each point.
    let jobs: Vec<Job> = points
        .iter()
        .map(|&(workload, units)| Job {
            workload: workload.into(),
            scale: Scale::Test,
            kind: JobKind::Multiscalar,
            cfg: SimConfig::multiscalar(units),
            partition: None,
        })
        .collect();
    let report = run_jobs(jobs, &SweepOptions::default());
    let cold: Vec<String> = report.outcomes.iter().map(artifacts::outcome_json).collect();

    let dir = std::env::temp_dir().join(format!("ms-serve-bytes-pipe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig { workers: 2, cache: SweepCache::at(&dir), ..ServerConfig::default() };
    let server = Server::start(cfg, Arc::new(InProcessExecutor::new())).expect("bind");
    let addr = server.addr();
    // Connection `c` asks for point `(c + id) % 3` under id `id`, so the
    // connections interleave the points differently.
    let point = |c: usize, id: usize| (c + id) % points.len();

    // Round one computes on an empty cache; round two is answered from it.
    for round in ["cold", "warm"] {
        let start = Barrier::new(CONNECTIONS);
        std::thread::scope(|scope| {
            for c in 0..CONNECTIONS {
                let (start, points, cold) = (&start, &points, &cold);
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap(); // hello
                    let batch: String = (0..BATCH)
                        .map(|id| {
                            let (workload, units) = points[point(c, id)];
                            format!(
                                "{{\"op\":\"run\",\"id\":{id},\"workload\":\"{workload}\",\
                                 \"units\":{units}}}\n"
                            )
                        })
                        .collect();
                    // The four batches go out together, and each one is
                    // written whole before its first answer is read.
                    start.wait();
                    writer.write_all(batch.as_bytes()).unwrap();
                    for id in 0..BATCH {
                        line.clear();
                        reader.read_line(&mut line).unwrap();
                        match protocol::parse_response(&line).expect(&line) {
                            Response::Result { id: got, payload } => {
                                assert_eq!(got, id as u64, "{round} conn {c}: answers in order");
                                assert_eq!(
                                    payload,
                                    cold[point(c, id)],
                                    "{round} conn {c} id {id}: served != cold engine bytes"
                                );
                            }
                            other => panic!("{round} conn {c} id {id}: {other:?}"),
                        }
                    }
                });
            }
        });
    }

    let stats = server.stats();
    assert!(stats.computed <= 3, "at most one compute per point: {stats:?}");
    assert!(stats.cache_hits > 0, "the warm round must hit the cache: {stats:?}");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
