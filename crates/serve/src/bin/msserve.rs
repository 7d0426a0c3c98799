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
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: msserve [--port N | --addr HOST:PORT] [--jobs N] [--queue-depth N] \
         [--cache-dir DIR] [--no-cache] [--max-sweep-jobs N] \
         [--idle-timeout-ms MS] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut cfg =
        ServerConfig { addr: "127.0.0.1:7461".into(), log: true, ..ServerConfig::default() };
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        let number = |flag: &str, v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} needs a non-negative integer, got `{v}`");
                usage()
            })
        };
        match arg.as_str() {
            "--port" => cfg.addr = format!("127.0.0.1:{}", number("--port", value("--port"))),
            "--addr" => cfg.addr = value("--addr"),
            "--jobs" => cfg.workers = number("--jobs", value("--jobs")),
            "--queue-depth" => {
                cfg.queue_depth = number("--queue-depth", value("--queue-depth")).max(1)
            }
            "--max-sweep-jobs" => {
                cfg.max_sweep_jobs = number("--max-sweep-jobs", value("--max-sweep-jobs")).max(1)
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout_ms = number("--idle-timeout-ms", value("--idle-timeout-ms")) as u64
            }
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--no-cache" => no_cache = true,
            "--quiet" => cfg.log = false,
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }

    cfg.cache = if no_cache {
        SweepCache::disabled()
    } else {
        match cache_dir {
            Some(dir) => SweepCache::at(dir),
            None => SweepCache::from_env(),
        }
    };
    cfg
}

fn main() -> ExitCode {
    let cfg = parse_args();

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
