#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! Differential fuzzing for the multiscalar simulator.
//!
//! `ms-fuzz` generates annotated multiscalar assembly programs from a
//! seed ([`gen`]), runs each differentially against the scalar
//! reference at several simulator configurations, and cross-validates
//! the result with the `ms-cfg` static checker ([`diff`]). Honest
//! programs are correct by construction and must match everywhere;
//! adversarial programs carry one seeded annotation bug that must be
//! flagged statically or caught at runtime — a perturbed program that
//! runs to completion with a different answer is a *silent divergence*,
//! the bug class the fuzzer exists to find. Failures are minimized by a
//! deterministic delta-debugging shrinker ([`shrink`]) into standalone
//! `.s` repros.
//!
//! The `msfuzz` binary drives seeded corpus runs with a deterministic
//! JSON report (schema `multiscalar-fuzz/v1`, same conventions as
//! `mschaos`). Building with `--features fuzz-teeth` sabotages the
//! annotation-derivation rule to prove the corpus has teeth.

pub mod diff;
pub mod gen;
pub mod shrink;

use diff::{validate_source, ValidateOpts};
use gen::{generate, render};
use ms_trace::hash::splitmix64;
use ms_trace::json;
use std::collections::BTreeMap;

/// Which expectation regime the corpus runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Honest annotations only: everything must validate clean.
    Normal,
    /// Every program carries one perturbation.
    Adversarial,
    /// Alternate honest and perturbed programs (the default).
    Mixed,
}

impl Mode {
    /// Parses a CLI mode name.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "normal" => Some(Mode::Normal),
            "adversarial" => Some(Mode::Adversarial),
            "mixed" => Some(Mode::Mixed),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Normal => "normal",
            Mode::Adversarial => "adversarial",
            Mode::Mixed => "mixed",
        }
    }

    fn adversarial(&self, index: u64) -> bool {
        match self {
            Mode::Normal => false,
            Mode::Adversarial => true,
            Mode::Mixed => index % 2 == 1,
        }
    }
}

/// A corpus run configuration.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Base seed; case `i` uses `splitmix64(seed ^ i)`, derived rather
    /// than sequential, so any case can be reproduced in isolation.
    pub seed: u64,
    /// Number of programs to generate and validate.
    pub count: u64,
    /// Expectation regime.
    pub mode: Mode,
    /// Simulation knobs.
    pub opts: ValidateOpts,
    /// Whether failures are minimized before reporting.
    pub shrink: bool,
}

impl Default for Campaign {
    fn default() -> Campaign {
        Campaign {
            seed: 0xF00D,
            count: 100,
            mode: Mode::Mixed,
            opts: ValidateOpts::default(),
            shrink: true,
        }
    }
}

/// One failing case, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Case index within the corpus.
    pub index: u64,
    /// The derived per-case seed (`msfuzz --repro-seed` input).
    pub case_seed: u64,
    /// Whether the case ran under adversarial expectations.
    pub adversarial: bool,
    /// Name of the applied perturbation, if any.
    pub perturbation: Option<String>,
    /// Failing verdict (`diverged`, `silent-divergence`, ...).
    pub verdict: &'static str,
    /// Human-readable first mismatch.
    pub detail: String,
    /// Minimized standalone source (the original source if shrinking
    /// was disabled or made no progress).
    pub min_source: String,
    /// Exact command reproducing the case from scratch.
    pub repro: String,
}

/// The outcome of a corpus run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The campaign that produced this report.
    pub campaign: Campaign,
    /// Pass-verdict histogram (`ok`, `caught-static`, ...).
    pub verdicts: BTreeMap<&'static str, u64>,
    /// All failing cases, in corpus order.
    pub failures: Vec<Failure>,
}

impl Report {
    /// Serializes the report as deterministic JSON (schema
    /// `multiscalar-fuzz/v1`): fixed field order, no timestamps, no
    /// floats — identical runs produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"multiscalar-fuzz/v1\"");
        out.push_str(&format!(",\"seed\":{}", self.campaign.seed));
        out.push_str(&format!(",\"count\":{}", self.campaign.count));
        out.push_str(&format!(",\"mode\":{}", json::string(self.campaign.mode.name())));
        out.push_str(&format!(",\"max_cycles\":{}", self.campaign.opts.max_cycles));
        out.push_str(&format!(",\"watchdog\":{}", self.campaign.opts.watchdog));
        out.push_str(&format!(",\"teeth\":{}", cfg!(feature = "fuzz-teeth")));
        out.push_str(",\"verdicts\":{");
        for (i, (k, v)) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json::string(k)));
        }
        out.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"case_seed\":{},\"adversarial\":{},\"perturbation\":{},\
                 \"verdict\":{},\"detail\":{},\"repro\":{}}}",
                f.index,
                f.case_seed,
                f.adversarial,
                f.perturbation.as_deref().map_or("null".into(), json::string),
                json::string(f.verdict),
                json::string(&f.detail),
                json::string(&f.repro),
            ));
        }
        out.push_str(&format!("],\"failure_count\":{}}}", self.failures.len()));
        out
    }
}

/// Runs a corpus: generates `count` programs, validates each, shrinks
/// the failures. Fully deterministic for a fixed campaign.
pub fn run_corpus(campaign: &Campaign) -> Report {
    let mut verdicts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut failures = Vec::new();

    for i in 0..campaign.count {
        let case_seed = splitmix64(campaign.seed ^ i);
        let adversarial = campaign.mode.adversarial(i);
        let prog = generate(case_seed, adversarial);
        let src = render(&prog);
        let outcome = validate_source(&src, adversarial, &campaign.opts);
        if outcome.pass {
            *verdicts.entry(outcome.verdict).or_insert(0) += 1;
            continue;
        }
        let min_source = if campaign.shrink {
            let (min, _) = shrink::minimize(&prog, adversarial, &campaign.opts);
            render(&min)
        } else {
            src
        };
        failures.push(Failure {
            index: i,
            case_seed,
            adversarial,
            perturbation: prog.perturbation.as_ref().map(|p| p.name().to_string()),
            verdict: outcome.verdict,
            detail: outcome.detail,
            min_source,
            repro: format!(
                "msfuzz --repro-seed {case_seed}{}",
                if adversarial { " --mode adversarial" } else { "" }
            ),
        });
    }

    Report { campaign: campaign.clone(), verdicts, failures }
}

/// Validates the single program derived from `case_seed` (the
/// `--repro-seed` path). Returns the outcome and the rendered source.
pub fn run_one(
    case_seed: u64,
    adversarial: bool,
    opts: &ValidateOpts,
) -> (diff::CaseOutcome, String) {
    let prog = generate(case_seed, adversarial);
    let src = render(&prog);
    let outcome = validate_source(&src, adversarial, opts);
    (outcome, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ValidateOpts {
        ValidateOpts { max_cycles: 500_000, watchdog: 100_000 }
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let a = render(&generate(seed, true));
            let b = render(&generate(seed, true));
            assert_eq!(a, b, "seed {seed} rendered differently twice");
        }
    }

    #[test]
    fn derived_forward_bit_lands_on_the_last_write() {
        use gen::{derive, BodyOp, GenTask, TaskKind};
        let task = GenTask {
            kind: TaskKind::Straight,
            early_exit: None,
            body: vec![
                BodyOp::AluImm { kind: 0, rd: 8, ra: 8, imm: 1 },
                BodyOp::AluImm { kind: 0, rd: 8, ra: 8, imm: 2 },
                BodyOp::AluImm { kind: 0, rd: 9, ra: 9, imm: 3 },
            ],
            end_release: Vec::new(),
        };
        let d = derive(&task, &[]);
        assert_eq!(d.create, vec![8, 9]);
        #[cfg(not(feature = "fuzz-teeth"))]
        assert_eq!(d.forwards, vec![(8, 1), (9, 2)]);
        #[cfg(feature = "fuzz-teeth")]
        assert_eq!(d.forwards, vec![(8, 0), (9, 2)]);
    }

    #[cfg(not(feature = "fuzz-teeth"))]
    #[test]
    fn small_corpus_passes_clean() {
        let campaign = Campaign {
            seed: 0xC0FFEE,
            count: 24,
            mode: Mode::Mixed,
            opts: quick_opts(),
            shrink: false,
        };
        let report = run_corpus(&campaign);
        assert!(
            report.failures.is_empty(),
            "corpus failures: {:?}",
            report
                .failures
                .iter()
                .map(|f| format!("#{} {} ({})", f.index, f.verdict, f.detail))
                .collect::<Vec<_>>()
        );
        // Mixed mode must actually exercise both regimes.
        assert!(report.verdicts.get("ok").copied().unwrap_or(0) > 0);
        let caught = report.verdicts.get("caught-static").copied().unwrap_or(0)
            + report.verdicts.get("caught-runtime").copied().unwrap_or(0)
            + report.verdicts.get("harmless").copied().unwrap_or(0);
        assert!(caught > 0, "no adversarial case was exercised: {:?}", report.verdicts);
    }

    #[cfg(not(feature = "fuzz-teeth"))]
    #[test]
    fn corpus_report_is_byte_deterministic() {
        let campaign =
            Campaign { seed: 7, count: 8, mode: Mode::Mixed, opts: quick_opts(), shrink: false };
        let a = run_corpus(&campaign).to_json();
        let b = run_corpus(&campaign).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"schema\":\"multiscalar-fuzz/v1\""));
    }

    /// With `--features fuzz-teeth` the derivation rule is sabotaged
    /// (forward bits land on the first write of multiply-written
    /// registers). A fixed-seed honest corpus must notice: either the
    /// static checker rejects the program (stale-communication rule) or
    /// the differential run diverges — both are corpus failures.
    #[cfg(feature = "fuzz-teeth")]
    #[test]
    fn sabotaged_derivation_is_caught_by_the_corpus() {
        let campaign = Campaign {
            seed: 0xF00D,
            count: 40,
            mode: Mode::Normal,
            opts: quick_opts(),
            shrink: false,
        };
        let report = run_corpus(&campaign);
        assert!(
            !report.failures.is_empty(),
            "the fuzz-teeth sabotage went unnoticed over {} programs",
            campaign.count
        );
        // And the catch must be loud in the expected way: a stale
        // forward is a static error now.
        assert!(
            report.failures.iter().any(|f| f.verdict == "static-reject"),
            "expected at least one static-reject, got: {:?}",
            report.failures.iter().map(|f| f.verdict).collect::<Vec<_>>()
        );
    }
}
