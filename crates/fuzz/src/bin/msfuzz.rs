//! `msfuzz` — the differential-fuzzing corpus runner.
//!
//! ```text
//! cargo run --release -p ms-fuzz --bin msfuzz -- \
//!     [--seed B] [--count N] [--mode normal|adversarial|mixed] \
//!     [--max-cycles N] [--watchdog N] [--no-shrink] \
//!     [--out PATH] [--repro-dir DIR] \
//!     [--repro FILE.s] [--repro-seed S] [--emit-seed S]
//! ```
//!
//! Generates `N` seeded programs, validates each differentially
//! (multiscalar at several configurations vs the scalar reference)
//! and against the `ms-cfg` static checker, prints a summary, and
//! writes a deterministic JSON report (default `FUZZ_report.json`;
//! schema `multiscalar-fuzz/v1`). Every failure is minimized by the
//! delta-debugging shrinker and written to `--repro-dir` as a
//! standalone `.s` file, along with the exact command reproducing it.
//! Exits non-zero on any failure.
//!
//! `--repro FILE.s` validates one assembly file under honest
//! expectations (the way to re-check a minimized repro); `--repro-seed
//! S` re-runs one generated case by its derived seed; `--emit-seed S`
//! prints the generated source without running it.

use ms_fuzz::diff::validate_source;
use ms_fuzz::{gen, run_corpus, run_one, Campaign, Mode};
use ms_workloads::cli::{parse_cli, CliArgs, CliError, CliSpec};

const USAGE: &str = "usage: msfuzz [--seed B] [--count N] [--mode normal|adversarial|mixed] \
                     [--max-cycles N] [--watchdog N] [--no-shrink] [--out PATH] \
                     [--repro-dir DIR] [--repro FILE.s] [--repro-seed S] [--emit-seed S]";
const SPEC: CliSpec = CliSpec {
    flags: &["--no-shrink"],
    options: &[
        "--seed",
        "--count",
        "--mode",
        "--max-cycles",
        "--watchdog",
        "--out",
        "--repro-dir",
        "--repro",
        "--repro-seed",
        "--emit-seed",
    ],
};

/// Reads a decimal or `0x`-prefixed hexadecimal integer.
fn int(v: &str) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn campaign(args: &CliArgs) -> Result<Campaign, CliError> {
    let mut c = Campaign::default();
    c.seed = args.get("--seed", int)?.unwrap_or(c.seed);
    c.count = args.get("--count", |v| int(v).filter(|&n| n > 0))?.unwrap_or(c.count);
    c.mode = args.get("--mode", Mode::parse)?.unwrap_or(c.mode);
    c.opts.max_cycles = args.get("--max-cycles", int)?.unwrap_or(c.opts.max_cycles);
    c.opts.watchdog = args.get("--watchdog", int)?.unwrap_or(c.opts.watchdog);
    c.shrink = !args.has("--no-shrink");
    Ok(c)
}

fn main() {
    let usage = |e: CliError| -> ! {
        eprintln!("msfuzz: {e}\n{USAGE}");
        std::process::exit(2);
    };
    let args = parse_cli(&SPEC, std::env::args().skip(1)).unwrap_or_else(|e| usage(e));
    if let Some(extra) = args.positional.first() {
        usage(format!("unexpected argument `{extra}`").into());
    }
    let campaign = campaign(&args).unwrap_or_else(|e| usage(e));
    let repro_seed = args.get("--repro-seed", int).unwrap_or_else(|e| usage(e));
    let emit_seed = args.get("--emit-seed", int).unwrap_or_else(|e| usage(e));
    let out_path = args.value("--out").unwrap_or("FUZZ_report.json");
    let repro_dir = args.value("--repro-dir").unwrap_or(".");

    if let Some(seed) = emit_seed {
        let adversarial = campaign.mode == Mode::Adversarial;
        print!("{}", gen::render(&gen::generate(seed, adversarial)));
        return;
    }

    if let Some(path) = args.value("--repro") {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("reading {path}: {e}");
            std::process::exit(2);
        });
        let outcome = validate_source(&src, false, &campaign.opts);
        println!("msfuzz: {path}: {}{}", outcome.verdict, prefixed(&outcome.detail));
        std::process::exit(if outcome.pass { 0 } else { 1 });
    }

    if let Some(seed) = repro_seed {
        let adversarial = campaign.mode == Mode::Adversarial;
        let (outcome, src) = run_one(seed, adversarial, &campaign.opts);
        println!("msfuzz: seed {seed:#x}: {}{}", outcome.verdict, prefixed(&outcome.detail));
        if !outcome.pass {
            let path = format!("{repro_dir}/fuzz-repro-{seed:x}.s");
            write_or_die(&path, &src);
            eprintln!("wrote {path}");
            std::process::exit(1);
        }
        return;
    }

    let report = run_corpus(&campaign);
    let total: u64 = report.verdicts.values().sum();
    let verdicts: Vec<String> = report.verdicts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!(
        "msfuzz: {} programs (seed {:#x}, {}): {} passed ({}), {} failed",
        campaign.count,
        campaign.seed,
        campaign.mode.name(),
        total,
        verdicts.join(", "),
        report.failures.len(),
    );
    for f in &report.failures {
        println!(
            "FAIL #{} seed {:#x}{}: {}{}\n  repro: {}",
            f.index,
            f.case_seed,
            f.perturbation.as_deref().map(|p| format!(" ({p})")).unwrap_or_default(),
            f.verdict,
            prefixed(&f.detail),
            f.repro,
        );
        let path = format!("{}/fuzz-repro-{:x}.s", repro_dir, f.case_seed);
        write_or_die(&path, &f.min_source);
        eprintln!("wrote {path}");
    }

    write_or_die(out_path, &report.to_json());
    eprintln!("wrote {out_path}");
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

fn prefixed(detail: &str) -> String {
    if detail.is_empty() {
        String::new()
    } else {
        format!(": {detail}")
    }
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
}
