//! `mspart` — partition plain scalar programs into multiscalar tasks.
//!
//! ```text
//! mspart program.s                         # partition with the default policy
//! mspart --policy size=8,loops=0 prog.s    # override policy axes
//! mspart --workload wc --workload sort     # partition scalar-stripped workloads
//! mspart --workload all --scale test       # the whole built-in suite
//! mspart --policy size=8 --policy size=32 prog.s   # one case per policy
//! mspart --emit out.s prog.s               # write the annotated source
//! mspart --report report.json ...          # deterministic JSON report
//! ```
//!
//! Inputs named by file are assembled in scalar mode, so already-annotated
//! sources are accepted: their annotations are stripped and re-derived.
//! Every emitted program is gated through the static checker; annotation
//! errors make the case fail.
//!
//! The report is byte-deterministic (`multiscalar-part/v1`): fixed field
//! order, no timestamps, so CI can `cmp` two runs.
//!
//! Exit status: 0 if every case partitioned and checked clean, 1 if any
//! case failed, 2 on usage, read or assembly errors.

use ms_cfg::{check_program, PartitionPolicy, Partitioned, Severity};
use ms_workloads::cli::{parse_cli, CliSpec};
use ms_workloads::Scale;
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "usage: mspart [--policy AXES]... [--workload NAME]... [--scale test|full] \
                     [--emit FILE] [--report FILE] [program.s]...";
const SPEC: CliSpec =
    CliSpec { flags: &[], options: &["--policy", "--workload", "--scale", "--emit", "--report"] };

/// One partitioning case: an input crossed with a policy point.
struct Case {
    input: String,
    policy_key: String,
    outcome: Result<(Partitioned, usize, usize, usize), String>,
}

fn fail(msg: String) -> ExitCode {
    eprintln!("mspart: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args = match parse_cli(&SPEC, std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return fail(e.to_string()),
    };

    let scale = match args.scale(Scale::Test) {
        Ok(scale) => scale,
        Err(e) => return fail(e.to_string()),
    };

    let mut policies = Vec::new();
    for axes in args.values("--policy") {
        match PartitionPolicy::parse(axes) {
            Ok(p) => policies.push(p),
            Err(e) => return fail(e),
        }
    }
    if policies.is_empty() {
        policies.push(PartitionPolicy::default());
    }

    // Gather inputs: named workloads (scalar-stripped), then files.
    let mut inputs: Vec<(String, String)> = Vec::new();
    for name in args.values("--workload") {
        if name == "all" {
            for w in ms_workloads::suite(scale) {
                inputs.push((w.name.to_lowercase(), w.source));
            }
        } else {
            match ms_workloads::by_name(name, scale) {
                Some(w) => inputs.push((w.name.to_lowercase(), w.source)),
                None => return fail(format!("unknown workload `{name}`")),
            }
        }
    }
    for path in &args.positional {
        match std::fs::read_to_string(path) {
            Ok(src) => inputs.push((path.clone(), src)),
            Err(e) => return fail(format!("cannot read {path}: {e}")),
        }
    }
    if inputs.is_empty() {
        return fail("no inputs: give a file or --workload".into());
    }
    if args.value("--emit").is_some() && inputs.len() * policies.len() != 1 {
        return fail("--emit needs exactly one input and one policy".into());
    }

    let mut cases = Vec::new();
    for (input, src) in &inputs {
        for policy in &policies {
            let outcome = match ms_cfg::partition_source(src, policy) {
                Ok(part) => {
                    let report = check_program(&part.program);
                    let errors = report.of_severity(Severity::Error).count();
                    let warnings = report.of_severity(Severity::Warning).count();
                    let infos = report.of_severity(Severity::Info).count();
                    if errors > 0 {
                        for d in report.of_severity(Severity::Error) {
                            eprintln!("mspart: {input}: {d}");
                        }
                    }
                    Ok((part, errors, warnings, infos))
                }
                Err(e) => Err(e.to_string()),
            };
            cases.push(Case { input: input.clone(), policy_key: policy.stable_key(), outcome });
        }
    }

    if let Some(path) = args.value("--emit") {
        if let Ok((part, ..)) = &cases[0].outcome {
            if let Err(e) = std::fs::write(path, &part.source) {
                return fail(format!("cannot write {path}: {e}"));
            }
        }
    }

    let mut failed = false;
    for case in &cases {
        match &case.outcome {
            Ok((part, errors, warnings, _)) => {
                println!(
                    "{}: policy [{}]: {} tasks, {} inserted, {} forwards, {} releases, \
                     {} errors, {} warnings",
                    case.input,
                    case.policy_key,
                    part.task_count,
                    part.inserted,
                    part.forwards,
                    part.releases,
                    errors,
                    warnings
                );
                failed |= *errors > 0;
            }
            Err(e) => {
                println!("{}: policy [{}]: FAILED: {e}", case.input, case.policy_key);
                failed = true;
            }
        }
    }

    if let Some(path) = args.value("--report") {
        let json = report_json(&cases);
        let result = if path == "-" {
            println!("{json}");
            Ok(())
        } else {
            std::fs::write(path, json)
        };
        if let Err(e) = result {
            return fail(format!("cannot write {path}: {e}"));
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders the deterministic `multiscalar-part/v1` report: fixed field
/// order, no timestamps or floats, byte-identical across runs.
fn report_json(cases: &[Case]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{\n  \"schema\": \"multiscalar-part/v1\",\n  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        match &case.outcome {
            Ok((part, errors, warnings, infos)) => {
                let _ = writeln!(
                    out,
                    "    {{\"input\": \"{}\", \"policy\": \"{}\", \"ok\": true, \
                     \"tasks\": {}, \"inserted\": {}, \"forwards\": {}, \"releases\": {}, \
                     \"max_task_instrs\": {}, \"errors\": {}, \"warnings\": {}, \"infos\": {}}}{sep}",
                    esc(&case.input),
                    esc(&case.policy_key),
                    part.task_count,
                    part.inserted,
                    part.forwards,
                    part.releases,
                    part.max_task_instrs,
                    errors,
                    warnings,
                    infos,
                );
            }
            Err(e) => {
                let _ = writeln!(
                    out,
                    "    {{\"input\": \"{}\", \"policy\": \"{}\", \"ok\": false, \
                     \"error\": \"{}\"}}{sep}",
                    esc(&case.input),
                    esc(&case.policy_key),
                    esc(e),
                );
            }
        }
    }
    out.push_str("  ]\n}\n");
    out
}
