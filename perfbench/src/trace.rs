//! Spans recorded by the benchmark around its calls into each crate's
//! public API, kept in memory and written out once the run ends, plus
//! the `diff` mode that compares two such files layer by layer.

use crate::util::{median, ratio};
use ms_trace::json;
use ms_trace::jsonv::{self, JsonValue};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `key` names the point, program or request the call
/// worked on; spans of one request share it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub key: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans while enabled. Disabled, a span costs one atomic load.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(enabled),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (to parent its children), or `None` while tracing is off.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        key: &str,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled() {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.push(Span { id, parent, name, key: key.to_string(), start_ns, end_ns });
        out
    }

    /// Records a top-level span whose bounds the caller measured itself
    /// (the caller checked [`Tracer::enabled`] when it started timing).
    pub fn record(&self, name: &'static str, key: &str, start_ns: u64, end_ns: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span { id, parent: None, name, key: key.to_string(), start_ns, end_ns });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a span recorder panicked").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }
}

/// Self time of every span: its duration minus the part its children
/// cover, in nanoseconds, grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        out.entry(s.name).or_default().push(own as f64);
    }
    out
}

/// Share of the `windows` (start, end) that top-level spans cover,
/// counting time covered by several spans once.
pub fn coverage(spans: &[Span], windows: &[(u64, u64)]) -> f64 {
    let mut covered = 0u64;
    let mut total = 0u64;
    for &(w0, w1) in windows {
        total += w1 - w0;
        let mut iv: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns.max(w0), s.end_ns.min(w1)))
            .filter(|(a, b)| a < b)
            .collect();
        iv.sort_unstable();
        let mut reach = w0;
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
    }
    ratio(covered as f64, total as f64)
}

/// Writes the traced run's record: per-layer self-time summary, exact
/// simulated counters, per-layer metrics and every span.
pub fn write(
    path: &Path,
    header: &[(&str, String)],
    spans: &[Span],
    counters: &BTreeMap<String, u64>,
    metrics: &BTreeMap<&'static str, f64>,
) -> std::io::Result<()> {
    let mut out = String::from("{\"schema\":\"perfbench-trace/v1\"");
    for (k, v) in header {
        let _ = write!(out, ",{}:{}", json::string(k), json::string(v));
    }
    out.push_str(",\"layers\":{");
    for (i, (name, selfs)) in self_times(spans).iter().enumerate() {
        let total: f64 = selfs.iter().sum();
        let _ = write!(
            out,
            "{}{}:{{\"count\":{},\"self_ms_median\":{},\"self_ms_total\":{}}}",
            if i > 0 { "," } else { "" },
            json::string(name),
            selfs.len(),
            json::number(median(selfs) / 1e6),
            json::number(total / 1e6)
        );
    }
    out.push_str("},\"counters\":{");
    for (i, (k, v)) in counters.iter().enumerate() {
        let _ = write!(out, "{}{}:{v}", if i > 0 { "," } else { "" }, json::string(k));
    }
    out.push_str("},\"metrics\":{");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let _ =
            write!(out, "{}{}:{}", if i > 0 { "," } else { "" }, json::string(k), json::number(*v));
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n{{\"id\":{},\"parent\":{parent},\"name\":{},\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
            if i > 0 { "," } else { "" },
            s.id,
            json::string(s.name),
            json::string(&s.key),
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn obj(v: Option<&JsonValue>) -> &[(String, JsonValue)] {
    match v {
        Some(JsonValue::Obj(fields)) => fields,
        _ => &[],
    }
}

struct TraceFile {
    layers: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<TraceFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = jsonv::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some("perfbench-trace/v1") {
        return Err(format!("{path}: not a perfbench trace file"));
    }
    let layers = obj(doc.get("layers"))
        .iter()
        .map(|(k, v)| {
            (k.clone(), v.get("self_ms_median").and_then(JsonValue::as_f64).unwrap_or(0.0))
        })
        .collect();
    let counters = obj(doc.get("counters"))
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0)))
        .collect();
    Ok(TraceFile { layers, counters })
}

/// Compares two traced-run files: each layer's median self time and how
/// it moved, then every simulated counter that differs. Returns the
/// report and whether any counter changed.
pub fn diff(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14} {:>9}",
        "layer (median self)", "A ms", "B ms", "change"
    );
    let names: BTreeSet<&String> = a.layers.keys().chain(b.layers.keys()).collect();
    for name in names {
        let (x, y) = (a.layers.get(name).copied(), b.layers.get(name).copied());
        let change = match (x, y) {
            (Some(x), Some(y)) if x > 0.0 => format!("{:+.1}%", 100.0 * (y / x - 1.0)),
            _ => "n/a".to_string(),
        };
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        let _ = writeln!(out, "{:<28} {:>14} {:>14} {:>9}", name, show(x), show(y), change);
    }
    let keys: BTreeSet<&String> = a.counters.keys().chain(b.counters.keys()).collect();
    let changed: Vec<String> = keys
        .into_iter()
        .filter(|k| a.counters.get(*k) != b.counters.get(*k))
        .map(|k| {
            let show = |v: Option<&u64>| v.map_or("-".to_string(), u64::to_string);
            format!("  {k}: {} -> {}", show(a.counters.get(k)), show(b.counters.get(k)))
        })
        .collect();
    if changed.is_empty() {
        let _ = writeln!(out, "simulated counters: all {} identical", a.counters.len());
    } else {
        let _ = writeln!(out, "simulated counters changed ({}):", changed.len());
        for line in &changed {
            let _ = writeln!(out, "{line}");
        }
    }
    Ok((out, !changed.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, key: String::new(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [span(1, None, "point", 0, 100), span(2, Some(1), "run", 10, 70)];
        let st = self_times(&spans);
        assert_eq!(st["point"], vec![40.0]);
        assert_eq!(st["run"], vec![60.0]);
    }

    #[test]
    fn coverage_counts_overlap_once_and_clips_to_windows() {
        let spans = [
            span(1, None, "a", 0, 60),
            span(2, None, "b", 40, 80),
            span(3, Some(1), "child", 0, 100),
        ];
        assert_eq!(coverage(&spans, &[(0, 100)]), 0.8);
        assert_eq!(coverage(&spans, &[(50, 100)]), 0.6);
    }
}
