//! CPI-stack profiling (the `msprof` harness).
//!
//! Where [`crate::perf`] times the simulator itself, this module profiles
//! the *simulated machine*: it sweeps a workload × machine matrix on the
//! `ms-sweep` engine with a live [`multiscalar::CpiAccountant`] per point
//! and reports where every unit-cycle went — the conservation-checked CPI
//! stack of [`multiscalar::trace::CpiStack`]. All outputs are
//! byte-deterministic for a given build, workload set and machine set
//! (they contain only simulated quantities, never wall times), so two
//! `msprof` runs can be `cmp`'d and profiles recorded before and after a
//! change can be diffed.
//!
//! ## `msprof` JSON schema (`multiscalar-prof/v1`)
//!
//! ```json
//! {
//!   "schema": "multiscalar-prof/v1",
//!   "scale": "test",
//!   "points": [
//!     {"workload":"Wc","machine":"ms4","cpi":{ ...multiscalar-cpi/v1... }}
//!   ]
//! }
//! ```
//!
//! The embedded `"cpi"` object is exactly [`CpiStack::to_json`]
//! (schema `multiscalar-cpi/v1`), including the `conserved` flag, the
//! aggregate buckets, and the per-unit/per-task breakdowns.
//!
//! [`parse_profile`] reads that document back with a small hand-rolled
//! JSON reader (this workspace deliberately has no serde), and
//! [`diff_profiles`] renders the bucket-by-bucket movement between two
//! recorded profiles.

use crate::perf::MachineSpec;
use ms_sweep::{run_jobs, Job, JobFailure, JobKind, SweepOptions};
use ms_trace::json;
use ms_trace::jsonv::{self, JsonValue};
use ms_trace::{CpiStack, StallReason};
use ms_workloads::Scale;
use std::fmt::Write as _;

/// Schema identifier stamped into [`profile_to_json`] output.
pub const PROF_SCHEMA: &str = "multiscalar-prof/v1";

/// One profiled (workload, machine) point.
#[derive(Clone, Debug)]
pub struct ProfPoint {
    /// Benchmark name (paper row name).
    pub workload: String,
    /// Machine name (`ms<N>`, possibly with suffixes the caller chose).
    pub machine: String,
    /// The conservation-checked CPI stack of the run.
    pub cpi: CpiStack,
}

/// Profiles every workload in `workloads` on every machine in
/// `machines`, workload-major, on the `ms-sweep` engine: each point runs
/// with a live cycle accountant ([`SweepOptions::cpi`]) and without the
/// result cache, whose entries carry no CPI stack.
///
/// Every run is validated against the workload's reference outputs (like
/// every other run path) and every returned stack is conservation-checked
/// — a violation is a simulator bug and panics rather than producing a
/// silently wrong profile.
///
/// # Errors
/// Returns the first failed design point with its job identity.
///
/// # Panics
/// Panics if a machine is the scalar baseline (it has no unit queue to
/// profile) or if cycle accounting lost a unit-cycle.
pub fn sweep(
    workloads: &[&str],
    machines: &[MachineSpec],
    scale: Scale,
) -> Result<Vec<ProfPoint>, JobFailure> {
    let points: Vec<(&str, &MachineSpec)> =
        workloads.iter().flat_map(|&w| machines.iter().map(move |m| (w, m))).collect();
    let jobs = points.iter().map(|&(workload, m)| {
        assert!(m.multiscalar, "msprof profiles multiscalar machines; `{}` is scalar", m.name);
        let kind = JobKind::Multiscalar;
        Job { workload: workload.to_string(), scale, kind, cfg: m.cfg, partition: None }
    });
    let opts = SweepOptions { cpi: true, ..SweepOptions::default() };
    Ok(run_jobs(jobs.collect(), &opts)
        .into_results()?
        .into_iter()
        .zip(points)
        .map(|(o, (workload, m))| {
            let cpi = o.stats.cpi.expect("a live accountant always yields a stack");
            assert!(
                cpi.conservation_holds(),
                "{workload} on {}: CPI conservation violated — accounted {} of {} unit-cycles",
                m.name,
                cpi.accounted_unit_cycles(),
                cpi.total_unit_cycles()
            );
            ProfPoint { workload: workload.to_string(), machine: m.name.clone(), cpi }
        })
        .collect())
}

/// Renders profiled points as the `multiscalar-prof/v1` JSON document.
pub fn profile_to_json(scale: &str, points: &[ProfPoint]) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"schema\":{},", json::string(PROF_SCHEMA));
    let _ = write!(out, "\"scale\":{},", json::string(scale));
    out.push_str("\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"workload\":{},\"machine\":{},\"cpi\":{}}}",
            json::string(&p.workload),
            json::string(&p.machine),
            p.cpi.to_json()
        );
    }
    out.push_str("]}");
    out
}

/// Renders profiled points as a flat CSV matrix: one row per point, one
/// column per bucket (unit-cycles).
pub fn profile_to_csv(points: &[ProfPoint]) -> String {
    let mut out = String::from("workload,machine,units,cycles,instructions,cpi,issued");
    for r in StallReason::ALL {
        out.push(',');
        out.push_str(r.as_str());
    }
    out.push('\n');
    for p in points {
        let cpi = p.cpi.cpi().map(json::number).unwrap_or_default();
        let _ = write!(
            out,
            "{},{},{},{},{},{},{}",
            p.workload,
            p.machine,
            p.cpi.units,
            p.cpi.cycles,
            p.cpi.instructions,
            cpi,
            p.cpi.issued_cycles,
        );
        for r in StallReason::ALL {
            let _ = write!(out, ",{}", p.cpi.stall_cycles[r.index()]);
        }
        out.push('\n');
    }
    out
}

/// Renders profiled points as human-readable per-point tables.
pub fn render_profile(points: &[ProfPoint]) -> String {
    let mut out = String::new();
    for p in points {
        let _ = writeln!(out, "=== {} on {} ===", p.workload, p.machine);
        let _ = write!(out, "{}", p.cpi);
    }
    out
}

// ---------------------------------------------------------------------
// Reading profiles back (for `msprof diff`).
// ---------------------------------------------------------------------

/// One point of a recorded profile, as read back from disk. Only the
/// aggregate stack is retained — diffs compare bucket totals, not
/// per-task rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedPoint {
    /// Benchmark name.
    pub workload: String,
    /// Machine name.
    pub machine: String,
    /// Number of processing units.
    pub units: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// `(bucket name, unit-cycles)` in recorded order (`issued` first).
    pub buckets: Vec<(String, u64)>,
}

impl RecordedPoint {
    /// Aggregate CPI (`None` if nothing committed).
    pub fn cpi(&self) -> Option<f64> {
        (self.instructions > 0).then(|| self.cycles as f64 / self.instructions as f64)
    }

    /// A bucket's CPI contribution (see [`CpiStack::cpi_component`]).
    pub fn cpi_component(&self, unit_cycles: u64) -> Option<f64> {
        (self.instructions > 0 && self.units > 0)
            .then(|| unit_cycles as f64 / (self.units as f64 * self.instructions as f64))
    }
}

/// A recorded profile document, as read back from disk.
#[derive(Clone, Debug, PartialEq)]
pub struct RecordedProfile {
    /// Workload scale the profile was taken at.
    pub scale: String,
    /// The recorded points, in document order.
    pub points: Vec<RecordedPoint>,
}

/// Parses a `multiscalar-prof/v1` document produced by
/// [`profile_to_json`].
///
/// # Errors
/// Returns a human-readable description of the first structural problem
/// (wrong schema, missing field, malformed JSON).
pub fn parse_profile(text: &str) -> Result<RecordedProfile, String> {
    let doc = jsonv::parse(text)?;
    let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("<missing>");
    if schema != PROF_SCHEMA {
        return Err(format!("not an msprof profile: schema `{schema}`, want `{PROF_SCHEMA}`"));
    }
    let scale =
        doc.get("scale").and_then(JsonValue::as_str).ok_or("profile has no `scale`")?.to_string();
    let JsonValue::Arr(raw_points) = doc.get("points").ok_or("profile has no `points`")? else {
        return Err("`points` is not an array".into());
    };
    let mut points = Vec::with_capacity(raw_points.len());
    for (i, p) in raw_points.iter().enumerate() {
        let field = |k: &str| p.get(k).ok_or_else(|| format!("point {i} has no `{k}`"));
        let workload = field("workload")?.as_str().ok_or("workload not a string")?.to_string();
        let machine = field("machine")?.as_str().ok_or("machine not a string")?.to_string();
        let cpi = field("cpi")?;
        let num = |k: &str| {
            cpi.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("point {i} cpi has no numeric `{k}`"))
        };
        let JsonValue::Obj(raw_buckets) =
            cpi.get("buckets").ok_or_else(|| format!("point {i} cpi has no `buckets`"))?
        else {
            return Err(format!("point {i} `buckets` is not an object"));
        };
        let mut buckets = Vec::with_capacity(raw_buckets.len());
        for (name, v) in raw_buckets {
            let v = v.as_u64().ok_or_else(|| format!("bucket `{name}` is not a count"))?;
            buckets.push((name.clone(), v));
        }
        points.push(RecordedPoint {
            workload,
            machine,
            units: num("units")?,
            cycles: num("cycles")?,
            instructions: num("instructions")?,
            buckets,
        });
    }
    Ok(RecordedProfile { scale, points })
}

fn signed_pct(old: u64, new: u64) -> String {
    if old == 0 {
        if new == 0 {
            return "      -".into();
        }
        return "    new".into();
    }
    let pct = 100.0 * (new as f64 - old as f64) / old as f64;
    format!("{pct:+6.1}%")
}

/// Renders the movement between two recorded profiles: per shared
/// point, the cycle/CPI change and every bucket whose count moved;
/// points present in only one profile are listed as added/removed.
pub fn diff_profiles(old: &RecordedProfile, new: &RecordedProfile) -> String {
    let mut out = String::new();
    let key = |p: &RecordedPoint| (p.workload.clone(), p.machine.clone());
    for np in &new.points {
        let Some(op) = old.points.iter().find(|op| key(op) == key(np)) else {
            let _ = writeln!(out, "{}/{}: only in new profile", np.workload, np.machine);
            continue;
        };
        let mut bucket_lines = String::new();
        for (name, nv) in &np.buckets {
            let ov = op.buckets.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
            if ov == *nv {
                continue;
            }
            let comp = match (op.cpi_component(ov), np.cpi_component(*nv)) {
                (Some(a), Some(b)) => format!("  cpi {a:+.4} -> {b:+.4}"),
                _ => String::new(),
            };
            let _ = writeln!(
                bucket_lines,
                "  {name:<16} {ov:>12} -> {nv:>12}  {}{comp}",
                signed_pct(ov, *nv)
            );
        }
        if op == np && bucket_lines.is_empty() {
            continue;
        }
        let cpi_note = match (op.cpi(), np.cpi()) {
            (Some(a), Some(b)) => format!(", CPI {a:.4} -> {b:.4}"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{}/{}: cycles {} -> {} ({}){cpi_note}",
            np.workload,
            np.machine,
            op.cycles,
            np.cycles,
            signed_pct(op.cycles, np.cycles).trim_start(),
        );
        out.push_str(&bucket_lines);
    }
    for op in &old.points {
        if !new.points.iter().any(|np| key(np) == key(op)) {
            let _ = writeln!(out, "{}/{}: only in old profile", op.workload, op.machine);
        }
    }
    if out.is_empty() {
        out.push_str("profiles are identical\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> ProfPoint {
        let m = MachineSpec::parse("ms4").unwrap();
        sweep(&["Wc"], &[m], Scale::Test).unwrap().remove(0)
    }

    #[test]
    fn profile_is_conserved_and_deterministic() {
        let p = point();
        assert!(p.cpi.conservation_holds());
        assert_eq!(p.cpi.units, 4);
        let a = profile_to_json("test", std::slice::from_ref(&p));
        let b = profile_to_json("test", std::slice::from_ref(&point()));
        assert_eq!(a, b, "msprof output must be byte-deterministic");
        assert!(a.starts_with("{\"schema\":\"multiscalar-prof/v1\","));
    }

    #[test]
    fn csv_and_text_render() {
        let p = point();
        let csv = profile_to_csv(std::slice::from_ref(&p));
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("workload,machine,units,cycles,instructions,cpi,issued,"));
        assert!(lines[0].ends_with(",squash_recovery"));
        assert!(lines[1].starts_with("Wc,ms4,4,"));
        let text = render_profile(std::slice::from_ref(&p));
        assert!(text.contains("=== Wc on ms4 ==="));
        assert!(text.contains("aggregate CPI"));
    }

    #[test]
    fn recorded_profile_round_trips() {
        let p = point();
        let doc = profile_to_json("test", std::slice::from_ref(&p));
        let rec = parse_profile(&doc).unwrap();
        assert_eq!(rec.scale, "test");
        assert_eq!(rec.points.len(), 1);
        let rp = &rec.points[0];
        assert_eq!(rp.workload, "Wc");
        assert_eq!(rp.machine, "ms4");
        assert_eq!(rp.cycles, p.cpi.cycles);
        assert_eq!(rp.instructions, p.cpi.instructions);
        assert_eq!(rp.buckets[0], ("issued".to_string(), p.cpi.issued_cycles));
        assert_eq!(rp.buckets.len(), 1 + StallReason::COUNT);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(parse_profile("{}").unwrap_err().contains("schema"));
        assert!(parse_profile("[1,2").is_err());
        assert!(parse_profile("{\"schema\":\"multiscalar-perf/v1\"}")
            .unwrap_err()
            .contains("multiscalar-prof/v1"));
    }

    #[test]
    fn diff_reports_identity_and_movement() {
        let p = point();
        let doc = profile_to_json("test", std::slice::from_ref(&p));
        let a = parse_profile(&doc).unwrap();
        let same = diff_profiles(&a, &a);
        assert!(same.contains("profiles are identical"), "{same}");

        let mut b = a.clone();
        b.points[0].cycles += 100;
        b.points[0].buckets[0].1 += 50;
        let moved = diff_profiles(&a, &b);
        assert!(moved.contains("Wc/ms4: cycles"), "{moved}");
        assert!(moved.contains("issued"), "{moved}");

        let mut c = a.clone();
        c.points[0].machine = "ms8".into();
        let disjoint = diff_profiles(&a, &c);
        assert!(disjoint.contains("only in new profile"), "{disjoint}");
        assert!(disjoint.contains("only in old profile"), "{disjoint}");
    }
}
