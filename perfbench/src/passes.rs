//! The timed loop of the batch workloads (`ms-*` and `toolchain`): whole
//! passes over every operation, each pass in a new seeded order, until
//! the run's time is up.

use crate::trace::Tracer;
use crate::util::{median, quantile, thread_cpu_s, HostSpeed, PerOp, Rng, SetupClock};
use crate::{Opts, Report};
use std::time::{Duration, Instant};

/// How often, in operation time, an untraced pass reads the host's speed.
/// A reading takes about 4 ms; the host's slow spells change within a
/// second.
const READ_EVERY: Duration = Duration::from_millis(150);

/// What the passes measured.
pub struct Passes {
    /// Each operation's on-CPU times over the untraced passes, each in
    /// reference seconds (scaled by the host's speed during its pass).
    pub times: PerOp,
    /// Every [`HostSpeed::scale`] the untraced passes applied.
    pub scales: Vec<f64>,
    /// Wall seconds per pass, untraced `[0]` and traced `[1]`, without
    /// the host-speed readings.
    pub pass_s: [Vec<f64>; 2],
    /// Tracer time (start, end) of each traced pass.
    pub windows: Vec<(u64, u64)>,
    pub count: usize,
}

impl Passes {
    /// Sets the report's end-to-end figures, in reference seconds: each
    /// operation at its median time, set-up at the run's median scale.
    pub fn figures(&self, report: &mut Report, setup: &SetupClock) {
        let ms = self.times.ms();
        let scale = median(&self.scales);
        report.setup_s = setup.median() * scale;
        report.ops_per_s = self.times.ops_per_s();
        report.op_ms_p50 = quantile(&ms, 0.5);
        report.op_ms_p95 = quantile(&ms, 0.95);
        report.notes.push(("host_scale", scale, "x"));
    }
}

/// Runs passes over `ops` (each a key and an operation) until
/// `opts.seconds` have gone. With `--trace 1` every second pass is
/// traced, so traced and untraced passes alternate on the same work and
/// the tracing overhead compares like with like. `op(key, item, traced)`
/// runs one operation; a failure is counted in `report`. In untraced
/// passes the host's speed is read (see [`HostSpeed`]) after every
/// [`READ_EVERY`] of operations and at the pass's end, and each
/// operation's time is scaled by the readings on either side of it.
/// After each pass, while `setup` wants samples, `prepare` is timed once
/// more.
pub fn run<T, S>(
    opts: &Opts,
    tracer: &Tracer,
    report: &mut Report,
    ops: &mut [(String, T)],
    mut op: impl FnMut(&str, &T, bool) -> Result<(), String>,
    setup: &mut SetupClock,
    prepare: impl Fn() -> Result<S, String>,
) -> Result<Passes, String> {
    let mut out = Passes {
        times: PerOp::default(),
        scales: Vec::new(),
        pass_s: [Vec::new(), Vec::new()],
        windows: Vec::new(),
        count: 0,
    };
    let mut rng = Rng::new(opts.seed);
    let mut speed = HostSpeed::new();
    let start = Instant::now();
    let min_passes = if opts.trace { 2 } else { 1 };
    while out.count < min_passes || start.elapsed().as_secs_f64() < opts.seconds {
        let traced = opts.trace && out.count % 2 == 1;
        tracer.set_enabled(traced);
        rng.shuffle(ops);
        if !traced {
            // The first operation's reading from before it, not from
            // before a traced pass.
            speed.scale();
        }
        let w0 = tracer.now_ns();
        let t0 = Instant::now();
        let mut reading_s = 0.0;
        let mut chunk = Vec::new();
        let mut since = Instant::now();
        for (i, (key, item)) in ops.iter().enumerate() {
            let cpu = thread_cpu_s();
            let r = op(key, item, traced);
            let dt = thread_cpu_s() - cpu;
            report.attempted += 1;
            match r {
                Ok(()) if !traced => chunk.push((key, dt)),
                Ok(()) => {}
                Err(e) => report.fail(e),
            }
            let last = i + 1 == ops.len();
            if !traced && (last || since.elapsed() >= READ_EVERY) {
                let t = Instant::now();
                let scale = speed.scale();
                reading_s += t.elapsed().as_secs_f64();
                out.scales.push(scale);
                for (key, dt) in chunk.drain(..) {
                    out.times.add(key, dt * scale);
                }
                since = Instant::now();
            }
        }
        out.pass_s[usize::from(traced)].push(t0.elapsed().as_secs_f64() - reading_s);
        if traced {
            out.windows.push((w0, tracer.now_ns()));
        }
        if setup.wants_more() {
            setup.time(&prepare)?;
        }
        out.count += 1;
    }
    tracer.set_enabled(false);
    Ok(out)
}
