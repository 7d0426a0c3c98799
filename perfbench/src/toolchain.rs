//! The `toolchain` workload: for each program of the suite, a cold scalar
//! assemble, then under two partition policies `partition_program`,
//! `check_program` (no errors allowed) and a multiscalar reassembly of
//! the emitted source, which must equal the partitioner's own program.
//! One operation is one program's whole pipeline.

use crate::expect::{Counts, Pins};
use crate::passes;
use crate::trace::{self, Tracer};
use crate::util::{fnv1a, median, SetupClock};
use crate::{Opts, Report};
use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, partition_program, PartitionPolicy};
use ms_workloads::{suite, Scale, Workload};

/// The default policy and one other: smaller tasks, no loop-head split.
pub const POLICIES: [(&str, &str); 2] = [("default", ""), ("size8", "size=8,loops=0")];

fn policies() -> Vec<(&'static str, PartitionPolicy)> {
    POLICIES
        .iter()
        .map(|(name, spec)| (*name, PartitionPolicy::parse(spec).expect("built-in policies parse")))
        .collect()
}

/// One program's pipeline. Pins each policy's task count and emitted
/// source digest under `<program>/<policy>`.
fn pipeline(
    tracer: &Tracer,
    w: &Workload,
    policies: &[(&'static str, PartitionPolicy)],
    pins: &mut Pins,
) -> Result<(), String> {
    let key = w.name.to_ascii_lowercase();
    tracer.span("pipeline", None, &key, |id| {
        let scalar = tracer
            .span("asm.assemble", id, &key, |_| assemble(&w.source, AsmMode::Scalar))
            .map_err(|e| format!("{key}: {e}"))?;
        for (policy, pol) in policies {
            let point = format!("{key}/{policy}");
            let part = tracer
                .span("cfg.partition", id, &key, |_| partition_program(&scalar, pol))
                .map_err(|e| format!("{point}: {e}"))?;
            let check = tracer.span("cfg.check", id, &key, |_| check_program(&part.program));
            if check.has_errors() {
                return Err(format!("{point}: the checker rejects the partitioned program"));
            }
            let again = tracer
                .span("asm.reassemble", id, &key, |_| assemble(&part.source, AsmMode::Multiscalar))
                .map_err(|e| format!("{point}: reassembly: {e}"))?;
            if again != part.program {
                return Err(format!("{point}: reassembled source differs from the partition"));
            }
            let fields =
                [("tasks", part.task_count as u64), ("source_fnv", fnv1a(part.source.as_bytes()))];
            pins.check(&point, &fields)?;
        }
        Ok(())
    })
}

pub fn run(opts: &Opts, tracer: &Tracer, expect: &Counts) -> Result<Report, String> {
    let mut report = Report::default();
    let generate = || -> Result<Vec<Workload>, String> {
        Ok(tracer.span("workloads.generate", None, "suite", |_| suite(opts.scale)))
    };
    let mut setup = SetupClock::default();
    let programs = setup.time(generate)?;

    let policies = policies();
    let mut pins = Pins::new(Some(expect));
    let mut ops: Vec<(String, &Workload)> =
        programs.iter().map(|w| (w.name.to_string(), w)).collect();
    let op = |_: &str, w: &&Workload, _: bool| pipeline(tracer, w, &policies, &mut pins);
    let passes = passes::run(opts, tracer, &mut report, &mut ops, op, &mut setup, generate)?;
    passes.figures(&mut report, &setup);
    let partitions_per_s = report.ops_per_s * POLICIES.len() as f64;
    report.notes.push(("partitions_per_s", partitions_per_s, "1/s"));
    report.notes.push(("passes", passes.count as f64, "count"));

    if opts.trace {
        let spans = tracer.spans();
        let selfs = trace::self_times(&spans);
        let med_ms = |name: &str| selfs.get(name).map_or(0.0, |v| median(v) / 1e6);
        report.layer("workloads.generate_ms", med_ms("workloads.generate"));
        report.layer("asm.assemble_ms", med_ms("asm.assemble"));
        report.layer("cfg.partition_ms", med_ms("cfg.partition"));
        report.layer("cfg.check_ms", med_ms("cfg.check"));
        report.layer("asm.reassemble_ms", med_ms("asm.reassemble"));
        let tasks = pins.seen().iter().filter(|(k, _)| k.ends_with(".tasks")).map(|(_, v)| *v);
        report.layer("cfg.tasks_emitted", tasks.sum::<u64>() as f64);
        let overhead = median(&passes.pass_s[1]) / median(&passes.pass_s[0]) - 1.0;
        report.layer("trace.overhead_frac", overhead);
        report.layer("trace.span_coverage", trace::coverage(&spans, &passes.windows));
        report.counters = pins.seen().clone();
        report.spans = spans;
    }
    Ok(report)
}

/// Partitions every program once for the expectation file.
pub fn bless(scale: Scale) -> Result<Counts, String> {
    let tracer = Tracer::new(false);
    let policies = policies();
    let mut pins = Pins::new(None);
    for w in suite(scale) {
        pipeline(&tracer, &w, &policies, &mut pins)?;
    }
    Ok(pins.seen().clone())
}
