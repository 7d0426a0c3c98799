//! Traced workload runner: executes one named workload on the multiscalar
//! processor with the full trace layer attached and writes machine-readable
//! artifacts.
//!
//! ```text
//! cargo run --release -p ms-bench --bin mstrace -- <workload> \
//!     [--units N] [--scale test|full] [--out-dir DIR] [--jsonl] [--list]
//! ```
//!
//! Outputs, under `--out-dir` (default `mstrace-out`):
//! * `trace.json`  — Chrome `trace_event` JSON: per-unit task timelines,
//!   squash-wave instants, ARB occupancy counter. Load in Perfetto or
//!   `chrome://tracing`.
//! * `report.json` — the [`ms_trace::MetricsReport`] (event-derived
//!   counters and histograms) next to the simulator's own `RunStats`
//!   and the run's CPI stack, after cross-checking the events against
//!   `RunStats`.
//! * `trace.jsonl` (with `--jsonl`) — one JSON object per trace event,
//!   including one `unit_issue` or `unit_stall` per (unit, cycle).
//!
//! The metrics, the CPI stack and the trace files are sinks on one event
//! stream, so the stack's buckets equal the metrics' stall counters by
//! construction. What is checked is that the events agree with the
//! simulator's own `RunStats` counters and that the stack conserves
//! (every unit-cycle in exactly one bucket). Exits non-zero with the
//! exact disagreements if either check fails.
//!
//! A run that fails (timeout, watchdog, fault, wrong result) still
//! leaves complete `trace.json` and `trace.jsonl` up to the failure;
//! `report.json` then holds the error and its diagnostic snapshot, and
//! the exit code is 1.

use ms_sweep::statsio::stats_to_json;
use ms_trace::{json, ChromeTraceSink, JsonLinesSink, MetricsReport, MetricsSink, TeeSink};
use ms_workloads::cli::{parse_cli, positive, CliArgs, CliError, CliSpec};
use ms_workloads::{Scale, WorkloadError};
use multiscalar::{CpiAccountant, RunStats, SimConfig};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    units: usize,
    scale: Scale,
    out_dir: PathBuf,
    jsonl: bool,
    list: bool,
}

const USAGE: &str = "usage: mstrace <workload> [--units N] [--scale test|full] \
                     [--out-dir DIR] [--jsonl]\n       mstrace --list";
const SPEC: CliSpec =
    CliSpec { flags: &["--list", "--jsonl"], options: &["--units", "--scale", "--out-dir"] };

fn parse_args(args: &CliArgs) -> Result<Args, CliError> {
    let units = args.get("--units", positive)?.unwrap_or(8);
    let scale = args.scale(Scale::Test)?;
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or("mstrace-out"));
    let list = args.has("--list");
    let workload = match args.positional.as_slice() {
        [workload] => workload.clone(),
        [] if list => String::new(),
        [] => return Err("no workload named".into()),
        _ => return Err("more than one workload named".into()),
    };
    Ok(Args { workload, units, scale, out_dir, jsonl: args.has("--jsonl"), list })
}

/// Cross-checks event-derived counters against the simulator's own
/// aggregates. Any disagreement means an instrumentation call-site is
/// missing or double-counting.
fn reconcile(m: &MetricsReport, s: &RunStats) -> Vec<String> {
    let icache_misses = m.icache_fetches - m.icache_hits;
    let desc_misses = m.descriptor_fetches - m.descriptor_hits;
    let pairs: &[(&str, u64, u64)] = &[
        ("tasks_retired", m.tasks_retired, s.tasks_retired),
        ("tasks_squashed", m.tasks_squashed, s.tasks_squashed),
        ("control_squash_waves", m.control_squash_waves, s.control_squashes),
        ("memory_squash_waves", m.memory_squash_waves, s.memory_squashes),
        ("arb_full_squash_waves", m.arb_full_squash_waves, s.arb_squashes),
        ("arb_loads", m.arb_loads, s.arb.loads),
        ("arb_stores", m.arb_stores, s.arb.stores),
        ("arb_forwarded_loads", m.arb_forwarded_loads, s.arb.load_forwards),
        ("arb_violations", m.arb_violations, s.arb.violations),
        ("arb_full_stalls", m.arb_full_stalls, s.arb.full_events),
        ("icache_fetches", m.icache_fetches, s.icache.accesses),
        ("icache_misses", icache_misses, s.icache.misses),
        ("descriptor_fetches", m.descriptor_fetches, s.descriptor_cache.0),
        ("descriptor_misses", desc_misses, s.descriptor_cache.1),
        ("task_len_instrs.sum", m.task_len_instrs.sum(), s.instructions),
    ];
    let mut mismatches: Vec<String> = pairs
        .iter()
        .filter(|(_, ev, st)| ev != st)
        .map(|(name, ev, st)| format!("{name}: events say {ev}, RunStats says {st}"))
        .collect();

    match &s.cpi {
        None => mismatches.push("cpi: accountant produced no CpiStack".to_string()),
        Some(cpi) if !cpi.conservation_holds() => mismatches.push(format!(
            "cpi conservation: accounted {} of {} unit-cycles",
            cpi.accounted_unit_cycles(),
            cpi.total_unit_cycles()
        )),
        Some(_) => {}
    }
    mismatches
}

/// The fields of a successful run's report, after its identity.
fn success_fields(stats: &RunStats, metrics: &MetricsReport, mismatches: &[String]) -> String {
    let mut out =
        format!("\"reconciled\":{},\"stats\":{},", mismatches.is_empty(), stats_to_json(stats));
    if let Some(cpi) = &stats.cpi {
        out.push_str(&format!("\"cpi\":{},", cpi.to_json()));
    }
    out.push_str(&format!("\"metrics\":{}", metrics.to_json()));
    out
}

/// The fields of a failed run's report, after its identity: the error
/// and the machine state it carries (`null` when it carries none).
fn failure_fields(err: &WorkloadError) -> String {
    let snapshot = match err {
        WorkloadError::Sim(e) => e.snapshot().map(|s| s.to_json()),
        _ => None,
    };
    format!(
        "\"error\":{},\"snapshot\":{}",
        json::string(&err.to_string()),
        snapshot.as_deref().unwrap_or("null")
    )
}

/// Writes `report.json`: the run's identity, then `fields`.
fn write_report(path: &Path, args: &Args, fields: &str) -> io::Result<()> {
    let mut f = BufWriter::new(File::create(path)?);
    write!(
        f,
        "{{\"workload\":\"{}\",\"units\":{},\"scale\":\"{}\",{fields}}}",
        args.workload.to_ascii_lowercase(),
        args.units,
        args.scale.id(),
    )?;
    f.flush()
}

fn main() -> ExitCode {
    let usage = |e: &dyn std::fmt::Display| {
        eprintln!("mstrace: {e}\n{USAGE}");
        ExitCode::from(2)
    };
    let args = match parse_cli(&SPEC, std::env::args().skip(1)).and_then(|a| parse_args(&a)) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    if args.list {
        for w in ms_workloads::suite(Scale::Test) {
            println!("{:<12} {}", w.name, w.description);
        }
        return ExitCode::SUCCESS;
    }
    let Some(w) = ms_workloads::by_name(&args.workload, args.scale) else {
        return usage(&format!("unknown workload `{}`; try --list", args.workload));
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = args.out_dir.join("trace.json");
    let report_path = args.out_dir.join("report.json");
    let jsonl_path = args.out_dir.join("trace.jsonl");

    let chrome_writer = match File::create(&trace_path) {
        Ok(f) => BufWriter::new(f),
        Err(e) => {
            eprintln!("cannot create {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let jsonl_writer: Box<dyn Write> = if args.jsonl {
        match File::create(&jsonl_path) {
            Ok(f) => Box::new(BufWriter::new(f)),
            Err(e) => {
                eprintln!("cannot create {}: {e}", jsonl_path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        Box::new(io::sink())
    };

    let sink = TeeSink(
        TeeSink(MetricsSink::new(), CpiAccountant::new()),
        TeeSink(ChromeTraceSink::new(chrome_writer), JsonLinesSink::new(jsonl_writer)),
    );

    let cfg = SimConfig::multiscalar(args.units);
    let (result, sink) = w.run_multiscalar_with_sink(cfg, sink);
    let TeeSink(TeeSink(metrics_sink, _), TeeSink(chrome, jsonl)) = sink;
    let metrics = metrics_sink.into_report();

    let (_, chrome_err) = chrome.into_inner();
    if let Some(e) = chrome_err {
        eprintln!("writing {}: {e}", trace_path.display());
        return ExitCode::FAILURE;
    }
    let (_, jsonl_err) = jsonl.into_inner();
    if let Some(e) = jsonl_err {
        eprintln!("writing {}: {e}", jsonl_path.display());
        return ExitCode::FAILURE;
    }

    let stats = match result {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            if let Err(io) = write_report(&report_path, &args, &failure_fields(&e)) {
                eprintln!("writing {}: {io}", report_path.display());
            }
            return ExitCode::FAILURE;
        }
    };
    let mismatches = reconcile(&metrics, &stats);
    if let Err(e) =
        write_report(&report_path, &args, &success_fields(&stats, &metrics, &mismatches))
    {
        eprintln!("writing {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }

    println!(
        "{}: {} cycles, {} instructions (IPC {:.3}), {} tasks retired, {} squashed",
        w.name,
        stats.cycles,
        stats.instructions,
        stats.ipc(),
        stats.tasks_retired,
        stats.tasks_squashed
    );
    println!("wrote {}", trace_path.display());
    if args.jsonl {
        println!("wrote {}", jsonl_path.display());
    }
    println!("wrote {}", report_path.display());

    if mismatches.is_empty() {
        println!("reconciliation: event counters match RunStats and the CPI stack conserves");
        ExitCode::SUCCESS
    } else {
        eprintln!("reconciliation FAILED:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_trace::jsonv;

    #[test]
    fn a_failed_run_reports_its_error_and_snapshot() {
        let w = ms_workloads::by_name("Wc", Scale::Test).expect("Wc exists");
        let (result, _) = w.run_multiscalar_with_sink(
            SimConfig::multiscalar(4).max_cycles(500),
            MetricsSink::new(),
        );
        let err = result.expect_err("500 cycles are too few for Wc");
        let report = jsonv::parse(&format!("{{{}}}", failure_fields(&err))).expect("valid JSON");
        assert_eq!(report.get("error").and_then(|e| e.as_str()), Some(err.to_string().as_str()));
        let snapshot = report.get("snapshot").expect("snapshot field");
        assert_eq!(snapshot.get("cycle").and_then(|c| c.as_u64()), Some(500));
    }
}
