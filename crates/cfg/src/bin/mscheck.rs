//! `mscheck` — assemble a multiscalar source file and statically verify
//! its task annotations.
//!
//! ```text
//! mscheck program.s            # check annotations
//! mscheck --list program.s     # print the annotated listing to stdout
//! ```
//!
//! With `--list`, the listing is the only stdout output; diagnostics and
//! the summary line go to stderr so piped listings stay machine-clean.
//!
//! Exit status: 0 if no errors, 1 on annotation errors, 2 on usage or
//! assembly failure.

use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, Severity};
use ms_workloads::cli::{parse_cli, CliSpec};
use std::process::ExitCode;

const USAGE: &str = "usage: mscheck [--list] <program.s>";
const SPEC: CliSpec = CliSpec { flags: &["--list"], options: &[] };

fn main() -> ExitCode {
    let args = match parse_cli(&SPEC, std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mscheck: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let [path] = args.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let list = args.has("--list");
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mscheck: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let prog = match assemble(&src, AsmMode::Multiscalar) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mscheck: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    if list {
        println!("{}", prog.listing());
    }
    let report = check_program(&prog);
    // With --list active, stdout is reserved for the listing; findings
    // move to stderr so `mscheck --list prog.s | ...` stays parseable.
    let mut say: Box<dyn FnMut(std::fmt::Arguments)> = if list {
        Box::new(|line| eprintln!("{line}"))
    } else {
        Box::new(|line| println!("{line}"))
    };
    for d in &report.diagnostics {
        say(format_args!("{d}"));
    }
    let errors = report.of_severity(Severity::Error).count();
    let warnings = report.of_severity(Severity::Warning).count();
    say(format_args!(
        "{}: {} tasks, {} errors, {} warnings",
        path,
        report.tasks.len(),
        errors,
        warnings
    ));
    if errors > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
