//! The `msload` load generator for `msserve`.
//!
//! ```text
//! cargo run --release -p ms-serve --bin msload -- \
//!     [--addr HOST:PORT] [--connections N] [--requests N] [--points N] \
//!     [--seed N] [--deadline-ms MS] [--backoff-cap-ms MS] \
//!     [--out FILE] [--timing-out FILE] [--stats-out FILE] [--shutdown]
//! ```
//!
//! Opens `--connections` concurrent connections, pipelines `--requests`
//! seeded requests on each (so `connections × requests` are in flight at
//! once), digests every response, and verifies that all responses for
//! the same design point are byte-identical.
//!
//! Writes the byte-deterministic `multiscalar-load/v1` report to
//! `--out` (default stdout): identical options against a correct daemon
//! produce identical bytes, regardless of cache state, dedup, worker
//! count, or machine speed. Wall-clock measurements (throughput,
//! latency percentiles, overload retries) print to stderr and, with
//! `--timing-out`, to a separate non-deterministic artifact.
//! `--stats-out` fetches the daemon's counters after the run (CI asserts
//! dedup and cache activity from it); `--shutdown` then drains the
//! daemon.
//!
//! Overload retries back off exponentially from the server's hint with
//! deterministic seeded jitter, capped at `--backoff-cap-ms`; a request
//! that cannot settle within `--deadline-ms` (daemon wedged, network
//! gone quiet) becomes a structured failure row in the report instead
//! of hanging the run.
//!
//! Exits non-zero if any same-point responses diverged or any request
//! failed outright.

use ms_serve::load::{fetch_stats, run_load, LoadOptions};
use ms_workloads::cli::{parse_cli, parsed, CliArgs, CliError, CliSpec};
use std::process::ExitCode;

const USAGE: &str = "usage: msload [--addr HOST:PORT] [--connections N] [--requests N] \
                     [--points N] [--seed N] [--deadline-ms MS] [--backoff-cap-ms MS] \
                     [--out FILE] [--timing-out FILE] [--stats-out FILE] [--shutdown]";
const SPEC: CliSpec = CliSpec {
    flags: &["--shutdown"],
    options: &[
        "--addr",
        "--connections",
        "--requests",
        "--points",
        "--seed",
        "--deadline-ms",
        "--backoff-cap-ms",
        "--out",
        "--timing-out",
        "--stats-out",
    ],
};

fn load_options(args: &CliArgs) -> Result<LoadOptions, CliError> {
    let d = LoadOptions::default();
    // Counts and times of zero are raised to one.
    let at_least_one = |option| args.get(option, |v| parsed::<usize>(v).map(|n| n.max(1)));
    Ok(LoadOptions {
        addr: args.value("--addr").map_or(d.addr, str::to_string),
        connections: at_least_one("--connections")?.unwrap_or(d.connections),
        requests_per_conn: at_least_one("--requests")?.unwrap_or(d.requests_per_conn),
        points: args.get("--points", parsed)?.unwrap_or(d.points),
        seed: args.get("--seed", parsed)?.unwrap_or(d.seed),
        deadline_ms: at_least_one("--deadline-ms")?.map_or(d.deadline_ms, |n| n as u64),
        backoff_cap_ms: at_least_one("--backoff-cap-ms")?.map_or(d.backoff_cap_ms, |n| n as u64),
        ..d
    })
}

fn write_artifact(path: &str, contents: &str) -> bool {
    match ms_sweep::artifacts::write_atomic(std::path::Path::new(path), contents.as_bytes()) {
        Ok(()) => {
            eprintln!("msload: wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("msload: cannot write {path}: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let parsed = parse_cli(&SPEC, std::env::args().skip(1)).and_then(|args| {
        if let Some(extra) = args.positional.first() {
            return Err(format!("unexpected argument `{extra}`").into());
        }
        Ok((load_options(&args)?, args))
    });
    let (opts, args) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("msload: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "msload: {} connections x {} pipelined requests over {} points -> {} in flight",
        opts.connections,
        opts.requests_per_conn,
        opts.points,
        opts.connections * opts.requests_per_conn,
    );

    let outcome = match run_load(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("msload: load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "msload: {} responses, {} divergent, {} failed; {}",
        outcome.total,
        outcome.divergent,
        outcome.failed,
        outcome.timing_json(),
    );

    let mut io_ok = true;
    let report = outcome.report_json();
    match args.value("--out") {
        Some(path) => io_ok &= write_artifact(path, &report),
        None => println!("{report}"),
    }
    if let Some(path) = args.value("--timing-out") {
        io_ok &= write_artifact(path, &outcome.timing_json());
    }
    if let Some(path) = args.value("--stats-out") {
        match fetch_stats(&opts.addr) {
            Ok(raw) => io_ok &= write_artifact(path, &raw),
            Err(e) => {
                eprintln!("msload: cannot fetch stats: {e}");
                io_ok = false;
            }
        }
    }

    if args.has("--shutdown") {
        use std::io::{BufRead as _, BufReader, Write as _};
        let drain = || -> std::io::Result<()> {
            let stream = std::net::TcpStream::connect(&opts.addr)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line)?; // hello
            writer.write_all(b"{\"op\":\"shutdown\",\"id\":0}\n")?;
            line.clear();
            reader.read_line(&mut line)?; // bye (after the drain)
            eprintln!("msload: daemon drained: {}", line.trim_end());
            Ok(())
        };
        if let Err(e) = drain() {
            eprintln!("msload: shutdown failed: {e}");
            io_ok = false;
        }
    }

    if outcome.divergent > 0 || outcome.failed > 0 || !io_ok {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
