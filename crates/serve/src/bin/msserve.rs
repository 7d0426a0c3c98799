//! The `msserve` daemon: deterministic simulation-as-a-service.
//!
//! ```text
//! cargo run --release -p ms-serve --bin msserve -- \
//!     [--port N | --addr HOST:PORT] [--jobs N] [--queue-depth N] \
//!     [--cache-dir DIR] [--no-cache] [--max-sweep-jobs N] \
//!     [--idle-timeout-ms MS] [--quiet]
//! ```
//!
//! Speaks `multiscalar-serve/v1` (see `ms_serve::protocol`): one JSON
//! request per line, one JSON response per request. Results are
//! byte-identical to the `results.json` entries `mssweep` writes for the
//! same design points, whether they were computed, served from the
//! shared cache, or coalesced onto a duplicate in-flight request.
//!
//! Every design point computes on one of `--jobs` in-process worker
//! threads, under a panic guard: a job that panics is answered as a
//! structured failure and the daemon keeps serving. `--idle-timeout-ms
//! MS` evicts connections that go quiet, answering a structured
//! `timeout` error line before closing.
//!
//! The cache defaults to the `mssweep` convention (`--cache-dir`, else
//! `$MS_SWEEP_CACHE`, else `.ms-sweep-cache`), so a daemon started in a
//! directory where sweeps have run answers those points without
//! simulating — and points the daemon computes warm later sweeps.
//!
//! Prints `msserve: listening on ADDR` once ready. Runs until a client
//! sends `{"op":"shutdown"}`, then drains queued and in-flight work,
//! answers everything accepted, and exits 0. Structured per-request log
//! lines go to stderr unless `--quiet`.

use ms_serve::{Server, ServerConfig};
use ms_sweep::{InProcessExecutor, SweepCache};
use ms_workloads::cli::{parse_cli, parsed, CliArgs, CliError, CliSpec};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: msserve [--port N | --addr HOST:PORT] [--jobs N] [--queue-depth N] \
                     [--cache-dir DIR] [--no-cache] [--max-sweep-jobs N] \
                     [--idle-timeout-ms MS] [--quiet]";
const SPEC: CliSpec = CliSpec {
    flags: &["--no-cache", "--quiet"],
    options: &[
        "--port",
        "--addr",
        "--jobs",
        "--queue-depth",
        "--cache-dir",
        "--max-sweep-jobs",
        "--idle-timeout-ms",
    ],
};

fn server_config(args: &CliArgs) -> Result<ServerConfig, CliError> {
    if let Some(extra) = args.positional.first() {
        return Err(format!("unexpected argument `{extra}`").into());
    }
    let d = ServerConfig::default();
    let addr = match (args.get("--port", parsed::<usize>)?, args.value("--addr")) {
        (Some(_), Some(_)) => return Err("give --port or --addr, not both".into()),
        (Some(port), None) => format!("127.0.0.1:{port}"),
        (None, addr) => addr.unwrap_or("127.0.0.1:7461").to_string(),
    };
    let at_least_one = |option| args.get(option, |v| parsed::<usize>(v).map(|n| n.max(1)));
    Ok(ServerConfig {
        addr,
        workers: args.get("--jobs", parsed)?.unwrap_or(d.workers),
        queue_depth: at_least_one("--queue-depth")?.unwrap_or(d.queue_depth),
        max_sweep_jobs: at_least_one("--max-sweep-jobs")?.unwrap_or(d.max_sweep_jobs),
        idle_timeout_ms: args.get("--idle-timeout-ms", parsed)?.unwrap_or(d.idle_timeout_ms),
        cache: SweepCache::from_cli(args),
        log: !args.has("--quiet"),
    })
}

fn main() -> ExitCode {
    let cfg = match parse_cli(&SPEC, std::env::args().skip(1)).and_then(|a| server_config(&a)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("msserve: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Same up-front validation as mssweep: a bad cache directory is a
    // structured startup error naming the path, not a warning per job.
    if let Err(e) = cfg.cache.ensure_ready() {
        eprintln!("msserve: {e}");
        return ExitCode::FAILURE;
    }

    let handle = match Server::start(cfg.clone(), Arc::new(InProcessExecutor::new())) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("msserve: cannot listen on {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };

    let cache_note = match cfg.cache.dir() {
        Some(d) => format!("cache {}", d.display()),
        None => "cache disabled".to_string(),
    };
    println!("msserve: listening on {} ({cache_note})", handle.addr());

    // The daemon runs until a client's shutdown op drains it.
    handle.join();
    println!("msserve: drained, exiting");
    ExitCode::SUCCESS
}
