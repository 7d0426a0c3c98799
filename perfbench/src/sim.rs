//! The `ms-lowipc` and `ms-highipc` workloads: five programs each, at
//! full scale, on the scalar baseline, `ms4`, `ms8` (1-way in-order,
//! Table 3) and `ms8w2ooo` (2-way out-of-order, Table 4). One operation
//! is one point: construct, run, validate memory.

use crate::expect::{Counts, Pins};
use crate::passes;
use crate::trace::{self, Tracer};
use crate::util::{median, ratio, SetupClock};
use crate::{Opts, Report};
use ms_asm::{assemble, AsmMode};
use ms_isa::Program;
use ms_workloads::{suite, Scale, Workload};
use multiscalar::trace::{MetricsSink, StallReason};
use multiscalar::{CpiAccountant, NoFaults, Processor, RunStats, ScalarProcessor, SimConfig};

/// ms8 IPC below [`IPC_SPLIT`]: units issue in a small share of their
/// cycles, so skip-ahead, parking and stall classification do the work.
pub const LOW_IPC: [&str; 5] = ["Compress", "Espresso", "Gcc", "Sc", "Xlisp"];
/// ms8 IPC above [`IPC_SPLIT`]: busy ticks, issue, ring and ARB traffic.
pub const HIGH_IPC: [&str; 5] = ["Eqntott", "Tomcatv", "Cmp", "Wc", "Example"];
/// The ms8 IPC that separates the two program sets at full scale.
pub const IPC_SPLIT: f64 = 1.5;

/// One modelled machine.
pub struct Machine {
    pub name: &'static str,
    /// The span around `run` on this machine.
    span: &'static str,
    /// The per-layer metric that sums that span over a pass.
    layer: &'static str,
    pub units: usize,
    pub width: usize,
    pub ooo: bool,
}

impl Machine {
    pub fn cfg(&self) -> SimConfig {
        let base =
            if self.units == 1 { SimConfig::scalar() } else { SimConfig::multiscalar(self.units) };
        base.issue(self.width).out_of_order(self.ooo)
    }
}

/// The Section 5 grid: the scalar baseline and 4- and 8-unit machines
/// with 1-way in-order units (Table 3) or 2-way out-of-order units
/// (Table 4). The `ms-*` workloads time the first [`TIMED`] machines;
/// `serve` serves all five.
pub static GRID: [Machine; 5] = [
    Machine {
        name: "scalar",
        span: "core.run.scalar",
        layer: "core.run_s.scalar",
        units: 1,
        width: 1,
        ooo: false,
    },
    Machine {
        name: "ms4",
        span: "core.run.ms4",
        layer: "core.run_s.ms4",
        units: 4,
        width: 1,
        ooo: false,
    },
    Machine {
        name: "ms8",
        span: "core.run.ms8",
        layer: "core.run_s.ms8",
        units: 8,
        width: 1,
        ooo: false,
    },
    Machine {
        name: "ms8w2ooo",
        span: "core.run.ms8w2ooo",
        layer: "core.run_s.ms8w2ooo",
        units: 8,
        width: 2,
        ooo: true,
    },
    // Never timed, so it has no per-layer metric.
    Machine {
        name: "ms4w2ooo",
        span: "core.run.ms4w2ooo",
        layer: "",
        units: 4,
        width: 2,
        ooo: true,
    },
];

/// How many machines of [`GRID`], from the first, the `ms-*` workloads time.
const TIMED: usize = 4;

/// One program, generated and cold-assembled in both modes.
pub struct Prepared {
    pub key: String,
    pub workload: Workload,
    pub scalar: Program,
    pub multi: Program,
}

/// Generates the suite and cold-assembles the programs `names`, in that
/// order (`ms_asm::assemble` directly: `Workload::assemble` memoizes).
pub fn prepare(tracer: &Tracer, scale: Scale, names: &[&str]) -> Result<Vec<Prepared>, String> {
    let mut all = tracer.span("workloads.generate", None, "suite", |_| suite(scale));
    let mut out = Vec::new();
    for name in names {
        let at = all.iter().position(|w| w.name == *name).ok_or(format!("no workload {name}"))?;
        let workload = all.swap_remove(at);
        let key = workload.name.to_ascii_lowercase();
        let asm = |mode| {
            tracer
                .span("asm.assemble", None, &key, |_| assemble(&workload.source, mode))
                .map_err(|e| format!("{key}: {e}"))
        };
        let (scalar, multi) = (asm(AsmMode::Scalar)?, asm(AsmMode::Multiscalar)?);
        out.push(Prepared { key, workload, scalar, multi });
    }
    Ok(out)
}

/// What one point run returns besides its stats: the host-side
/// skip-ahead and parking telemetry (zero on the scalar baseline).
struct Sample {
    stats: RunStats,
    /// (probes, spans, cycles skipped).
    skip: [u64; 3],
    /// (probes, parks, cycles replayed).
    park: [u64; 3],
}

fn run_point(tracer: &Tracer, p: &Prepared, m: &Machine, key: &str) -> Result<Sample, String> {
    let s = |e: &dyn std::fmt::Display| format!("{key}: {e}");
    tracer.span("point", None, key, |id| {
        let verify = |mem, prog| {
            tracer.span("workloads.verify", id, key, |_| p.workload.verify_memory(mem, prog))
        };
        if m.units == 1 {
            let mut cpu = tracer
                .span("core.new", id, key, |_| ScalarProcessor::new(p.scalar.clone(), m.cfg()))
                .map_err(|e| s(&e))?;
            let stats = tracer.span(m.span, id, key, |_| cpu.run()).map_err(|e| s(&e))?;
            verify(cpu.memory(), cpu.program()).map_err(|e| s(&e))?;
            Ok(Sample { stats, skip: [0; 3], park: [0; 3] })
        } else {
            let mut cpu = tracer
                .span("core.new", id, key, |_| Processor::new(p.multi.clone(), m.cfg()))
                .map_err(|e| s(&e))?;
            let stats = tracer.span(m.span, id, key, |_| cpu.run()).map_err(|e| s(&e))?;
            verify(cpu.memory(), cpu.program()).map_err(|e| s(&e))?;
            let ((s0, s1, s2), (p0, p1, p2)) = (cpu.skip_telemetry(), cpu.unit_park_stats());
            Ok(Sample { stats, skip: [s0, s1, s2], park: [p0, p1, p2] })
        }
    })
}

/// The `RunStats` fields every run is pinned on.
fn run_fields(s: &RunStats) -> Vec<(&'static str, u64)> {
    vec![
        ("cycles", s.cycles),
        ("instructions", s.instructions),
        ("tasks_retired", s.tasks_retired),
        ("tasks_squashed", s.tasks_squashed),
        ("predictions", s.predictions),
        ("correct_predictions", s.correct_predictions),
        ("arb_loads", s.arb.loads),
        ("arb_stores", s.arb.stores),
        ("arb_violations", s.arb.violations),
        ("dcache_accesses", s.dcache.accesses),
        ("dcache_misses", s.dcache.misses),
        ("icache_accesses", s.icache.accesses),
        ("icache_misses", s.icache.misses),
        ("bus_wait_cycles", s.bus.contention_cycles),
    ]
}

/// Field names of the CPI-stack stall buckets, in [`StallReason::ALL`] order.
const STALL_FIELDS: [&str; StallReason::COUNT] = [
    "stall_fetch_empty",
    "stall_local_dep",
    "stall_remote_dep",
    "stall_fu_busy",
    "stall_hazard",
    "stall_arb_full",
    "stall_drain",
    "stall_wait_retire",
    "stall_cache_miss",
    "stall_no_task",
    "stall_squash_recovery",
];

/// The counting pass for one multiscalar point: a live `MetricsSink` and
/// `CpiAccountant` (which turn skip-ahead off), so its host time is not
/// comparable with the timed passes and is not measured.
fn count_point(p: &Prepared, m: &Machine) -> Result<Vec<(&'static str, u64)>, String> {
    let e = |e: &dyn std::fmt::Display| format!("{}/{} counting pass: {e}", p.key, m.name);
    let mut cpu = Processor::with_parts(
        p.multi.clone(),
        m.cfg(),
        MetricsSink::new(),
        NoFaults,
        CpiAccountant::new(),
    )
    .map_err(|x| e(&x))?;
    let stats = cpu.run().map_err(|x| e(&x))?;
    p.workload.verify_memory(cpu.memory(), cpu.program()).map_err(|x| e(&x))?;
    let cpi = stats.cpi.clone().ok_or_else(|| e(&"no CPI stack"))?;
    if !cpi.conservation_holds() {
        return Err(e(&"CPI stack does not conserve unit-cycles"));
    }
    let metrics = cpu.into_sink().into_report();
    let mut fields = run_fields(&stats);
    fields.push(("issued", cpi.issued_cycles));
    fields.extend(STALL_FIELDS.iter().zip(cpi.stall_cycles).map(|(f, v)| (*f, v)));
    fields.push(("ring_sends", metrics.ring_sends));
    fields.push(("ring_hops", metrics.ring_hops));
    Ok(fields)
}

/// Fails unless every program's pinned ms8 IPC falls on its side of
/// [`IPC_SPLIT`]. The split is a property of the inputs, so it is only
/// enforced at full scale.
fn check_ipc_split(counts: &Counts, names: &[&str], scale: Scale) -> Result<(), String> {
    if scale != Scale::Full {
        return Ok(());
    }
    let low = names == LOW_IPC;
    for name in names {
        let key = format!("{}/ms8", name.to_ascii_lowercase());
        let get = |f: &str| counts.get(&format!("{key}.{f}")).copied().unwrap_or(0) as f64;
        let ipc = ratio(get("instructions"), get("cycles"));
        if (low && ipc >= IPC_SPLIT) || (!low && ipc <= IPC_SPLIT) {
            let side = if low { "below" } else { "above" };
            return Err(format!("{key} IPC {ipc:.3} is not {side} the {IPC_SPLIT} split"));
        }
    }
    Ok(())
}

/// Sums `field` over the multiscalar points in `counts`.
fn sum_ms(counts: &Counts, field: &str) -> f64 {
    counts
        .iter()
        .filter_map(|(k, v)| {
            let (point, f) = k.rsplit_once('.')?;
            (f == field && !point.ends_with("/scalar")).then_some(*v as f64)
        })
        .sum()
}

fn simulated_layers(report: &mut Report, counts: &Counts) {
    let sum = |f: &str| sum_ms(counts, f);
    let stalls: Vec<f64> = STALL_FIELDS.iter().map(|f| sum(f)).collect();
    let unit_cycles = sum("issued") + stalls.iter().sum::<f64>();
    let stall = |r: StallReason| ratio(stalls[r.index()], unit_cycles);
    let kinstr = sum("instructions") / 1e3;
    report.layer("pipeline.issued_frac", ratio(sum("issued"), unit_cycles));
    report.layer("pipeline.stall.remote_dep_frac", stall(StallReason::RemoteDep));
    report.layer("pipeline.stall.local_dep_frac", stall(StallReason::LocalDep));
    report.layer("pipeline.stall.wait_retire_frac", stall(StallReason::WaitRetire));
    report.layer("pipeline.stall.fetch_empty_frac", stall(StallReason::FetchEmpty));
    report.layer("pipeline.stall.squash_recovery_frac", stall(StallReason::SquashRecovery));
    report.layer("pipeline.stall.no_task_frac", stall(StallReason::NoTask));
    let tasks = sum("tasks_retired") + sum("tasks_squashed");
    report.layer("core.squashed_task_frac", ratio(sum("tasks_squashed"), tasks));
    report.layer("predictor.accuracy", ratio(sum("correct_predictions"), sum("predictions")));
    report.layer("ring.sends_per_kinstr", ratio(sum("ring_sends"), kinstr));
    report.layer("ring.hops_per_kinstr", ratio(sum("ring_hops"), kinstr));
    report.layer("memsys.arb_loads_per_kinstr", ratio(sum("arb_loads"), kinstr));
    report.layer("memsys.arb_stores_per_kinstr", ratio(sum("arb_stores"), kinstr));
    report.layer("memsys.arb_violations", sum("arb_violations"));
    report.layer("memsys.dcache_miss_rate", ratio(sum("dcache_misses"), sum("dcache_accesses")));
    report.layer("memsys.icache_miss_rate", ratio(sum("icache_misses"), sum("icache_accesses")));
    report.layer("memsys.bus_wait_cycles", sum("bus_wait_cycles"));
}

/// Host-time layers from the traced passes (`windows`).
fn host_layers(
    report: &mut Report,
    spans: &[trace::Span],
    windows: &[(u64, u64)],
    counts: &Counts,
) {
    let selfs = trace::self_times(spans);
    let med_ms = |name: &str| selfs.get(name).map_or(0.0, |v| median(v) / 1e6);
    report.layer("workloads.generate_ms", med_ms("workloads.generate"));
    report.layer("asm.assemble_ms", med_ms("asm.assemble"));
    report.layer("core.new_ms", med_ms("core.new"));
    report.layer("workloads.verify_ms", med_ms("workloads.verify"));
    let (mut ms_ns, mut unit_cycles, mut sc_ns, mut sc_cycles) = (0.0, 0.0, 0.0, 0.0);
    for m in &GRID[..TIMED] {
        let runs: Vec<&trace::Span> = spans.iter().filter(|s| s.name == m.span).collect();
        let per_pass: Vec<f64> = windows
            .iter()
            .map(|&(a, b)| {
                let inside = runs.iter().filter(|s| s.start_ns >= a && s.end_ns <= b);
                inside.map(|s| s.dur_ns() as f64 / 1e9).sum()
            })
            .collect();
        report.layer(m.layer, median(&per_pass));
        for s in runs {
            let cycles = counts.get(&format!("{}.cycles", s.key)).copied().unwrap_or(0) as f64;
            if m.units == 1 {
                sc_ns += s.dur_ns() as f64;
                sc_cycles += cycles;
            } else {
                ms_ns += s.dur_ns() as f64;
                unit_cycles += cycles * m.units as f64;
            }
        }
    }
    report.layer("core.unit_cycle_ns", ratio(ms_ns, unit_cycles));
    report.layer("core.scalar_cycle_ns", ratio(sc_ns, sc_cycles));
}

pub fn run(
    opts: &Opts,
    tracer: &Tracer,
    expect: &Counts,
    names: &[&str; 5],
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup = SetupClock::default();
    let again = || prepare(tracer, opts.scale, names);
    let progs = setup.time(again)?;
    check_ipc_split(expect, names, opts.scale)?;

    let mut points: Vec<(String, (&Prepared, &Machine))> = Vec::new();
    for p in &progs {
        for m in &GRID[..TIMED] {
            points.push((format!("{}/{}", p.key, m.name), (p, m)));
        }
    }
    let mut pins = Pins::new(Some(expect));
    let (mut ms_cycles, mut ms_unit_cycles) = (0u64, 0u64);
    let (mut skip, mut park) = ([0u64; 3], [0u64; 3]);
    let op = |key: &str, &(p, m): &(&Prepared, &Machine), traced: bool| -> Result<(), String> {
        let s = run_point(tracer, p, m, key)?;
        pins.check(key, &run_fields(&s.stats))?;
        if !traced && m.units > 1 {
            ms_cycles += s.stats.cycles;
            ms_unit_cycles += s.stats.cycles * m.units as u64;
            for k in 0..3 {
                skip[k] += s.skip[k];
                park[k] += s.park[k];
            }
        }
        Ok(())
    };
    let passes = passes::run(opts, tracer, &mut report, &mut points, op, &mut setup, again)?;
    passes.figures(&mut report, &setup);
    let pass_cycles: u64 =
        points.iter().filter_map(|(key, _)| pins.seen().get(&format!("{key}.cycles"))).sum();
    let mcycles_per_s = ratio(pass_cycles as f64 * report.ops_per_s, points.len() as f64) / 1e6;
    report.notes.push(("sim_mcycles_per_s", mcycles_per_s, "Mcycles/s"));
    report.notes.push(("passes", passes.count as f64, "count"));

    if opts.trace {
        // Counting pass: exact simulated counters, pinned like the rest.
        for (key, (p, m)) in points.iter().filter(|(_, (_, m))| m.units > 1) {
            report.attempted += 1;
            if let Err(e) = count_point(p, m).and_then(|f| pins.check(key, &f)) {
                report.fail(e);
            }
        }
        let spans = tracer.spans();
        let counts = pins.seen().clone();
        host_layers(&mut report, &spans, &passes.windows, &counts);
        simulated_layers(&mut report, &counts);
        report.layer("core.skip.cycle_frac", ratio(skip[2] as f64, ms_cycles as f64));
        report.layer("core.skip.probe_yield", ratio(skip[1] as f64, skip[0] as f64));
        report.layer("pipeline.park.unit_cycle_frac", ratio(park[2] as f64, ms_unit_cycles as f64));
        report.layer("pipeline.park.probe_yield", ratio(park[1] as f64, park[0] as f64));
        let overhead = median(&passes.pass_s[1]) / median(&passes.pass_s[0]) - 1.0;
        report.layer("trace.overhead_frac", overhead);
        report.layer("trace.span_coverage", trace::coverage(&spans, &passes.windows));
        report.counters = counts;
        report.spans = spans;
    }
    Ok(report)
}

/// Measures every program of both sets on every [`GRID`] machine once,
/// with its counting pass, for the expectation file.
pub fn bless(scale: Scale) -> Result<Counts, String> {
    let tracer = Tracer::new(false);
    let mut pins = Pins::new(None);
    for names in [LOW_IPC, HIGH_IPC] {
        for p in prepare(&tracer, scale, &names)? {
            for m in &GRID {
                let key = format!("{}/{}", p.key, m.name);
                let s = run_point(&tracer, &p, m, &key)?;
                pins.check(&key, &run_fields(&s.stats))?;
                if m.units > 1 {
                    pins.check(&key, &count_point(&p, m)?)?;
                }
            }
        }
    }
    let counts = pins.seen().clone();
    check_ipc_split(&counts, &LOW_IPC, scale)?;
    check_ipc_split(&counts, &HIGH_IPC, scale)?;
    Ok(counts)
}
