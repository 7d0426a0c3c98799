//! Small helpers shared by every workload: a seeded RNG, order
//! statistics, FNV digests and host memory.

/// SplitMix64: a tiny, seedable, reproducible generator. The benchmark
/// only needs it to order points and draw the serve schedule.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile (`0..=1`) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times the set-up [`crate::SETUP_REPS`] times in a run: once before
/// the timed loop and then once after each pass or round, so a short slow
/// spell of the host moves one sample, not the median.
#[derive(Default)]
pub struct SetupClock(Vec<f64>);

impl SetupClock {
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = std::time::Instant::now();
        let out = setup()?;
        self.0.push(t.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Whether another sample is due.
    pub fn wants_more(&self) -> bool {
        self.0.len() < crate::SETUP_REPS
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// This thread's CPU time in seconds (`CLOCK_THREAD_CPUTIME_ID`). The
/// batch workloads time each operation with it: their operations are
/// single-threaded, and on a shared host a spell in which the vCPU runs
/// something else stretches wall time but not this.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// How fast the host runs, read from a fixed kernel that belongs to the
/// benchmark, not to the code it measures: standard-library work of the
/// kinds the simulator and toolchain do (hash-map and B-tree inserts and
/// lookups, a sort, formatting, their allocations) on fixed pseudo-random
/// input, timed on-CPU. On a shared host the same code runs 20–60% slower
/// for seconds to minutes at a time, so a run can fall wholly in a slow
/// spell. The kernel slows with the host, so a time multiplied by
/// [`HostSpeed::scale`] taken at the same spell slows far less.
pub struct HostSpeed {
    /// The previous reading, in reference seconds per host second.
    last: f64,
    /// Readings taken by [`HostSpeed::sample`] since then.
    between: Vec<f64>,
}

impl HostSpeed {
    /// Kernel runs (0.4 ms each) per reading; the reading is their
    /// median, so the first run, on caches the measured code has just
    /// filled, does not count.
    const BATCH: usize = 10;
    /// The kernel's time in a calm spell of the host the benchmark was
    /// built on (a 2-vCPU Xeon VM), so that scaled figures read as seconds
    /// on that host. It is a constant: changing it rescales every figure.
    pub const REFERENCE_S: f64 = 4.0e-4;
    /// How strongly the measured code follows the kernel: a slow spell
    /// stretches the simulator, the toolchain and the daemon more than the
    /// kernel, so the scale is the reading to this power. Over eight sets
    /// of ten to sixteen runs of one workload (every workload in at least
    /// one), the measured code's log time moved 1.2 to 2.0 times as far as
    /// the kernel's; at 1.5 every set's spread between quartiles stayed
    /// under 12%, against up to 19% at 1 (the plain reading) and up to 44%
    /// unscaled.
    const ELASTICITY: f64 = 1.5;

    pub fn new() -> HostSpeed {
        HostSpeed { last: Self::reading(), between: Vec::new() }
    }

    /// One run of the kernel, in on-CPU seconds.
    fn kernel() -> f64 {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::{BTreeMap, HashMap};
        use std::hash::BuildHasherDefault;
        const N: u64 = 1500;
        const KEYS: u64 = 4096;
        let t = thread_cpu_s();
        let mut rng = Rng::new(7);
        // A fixed-key hasher, so every run does the same work.
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut tree = BTreeMap::new();
        let mut values = Vec::with_capacity(N as usize);
        for i in 0..N {
            *map.entry(rng.next_u64() % KEYS).or_insert(0) += i;
            tree.insert(rng.next_u64() % KEYS, i);
            values.push(rng.next_u64());
        }
        let mut acc = 0u64;
        for _ in 0..N {
            let key = rng.next_u64() % KEYS;
            acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(1));
            if let Some((_, v)) = tree.range(key..).next() {
                acc ^= v;
            }
        }
        values.sort_unstable();
        let text: String = values.iter().take(200).map(|v| format!("{v:x}")).collect();
        std::hint::black_box((acc, text.len(), values[N as usize / 2]));
        thread_cpu_s() - t
    }

    fn reading() -> f64 {
        let times: Vec<f64> = (0..Self::BATCH).map(|_| Self::kernel()).collect();
        ratio(Self::REFERENCE_S, median(&times))
    }

    /// Takes a reading inside the current spell, for the next
    /// [`HostSpeed::scale`].
    pub fn sample(&mut self) {
        self.between.push(Self::reading());
    }

    /// Reference seconds per host second over the spell since the
    /// previous call (or since [`HostSpeed::new`]): the mean of the
    /// readings at its two ends and those [`HostSpeed::sample`] took in
    /// between, to the power [`Self::ELASTICITY`].
    pub fn scale(&mut self) -> f64 {
        let now = Self::reading();
        let n = self.between.len() + 2;
        let sum = self.last + now + self.between.drain(..).sum::<f64>();
        self.last = now;
        (sum / n as f64).powf(Self::ELASTICITY)
    }
}

/// Every time recorded per operation over a run's repetitions, each
/// already in reference seconds.
#[derive(Default)]
pub struct PerOp(std::collections::HashMap<String, Vec<f64>>);

impl PerOp {
    pub fn add(&mut self, op: &str, secs: f64) {
        self.0.entry(op.to_string()).or_default().push(secs);
    }

    /// Each operation's median time, in milliseconds.
    pub fn ms(&self) -> Vec<f64> {
        self.0.values().map(|v| median(v) * 1e3).collect()
    }

    /// Operations per second with each at its median time.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.0.len() as f64, self.ms().iter().sum::<f64>() / 1e3)
    }
}

/// Pins the calling thread to vCPU `cpu`; false where the host refuses.
pub fn pin_thread(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu set of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The vCPU the calling thread runs on, where the host says.
pub fn current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
    }
    // SAFETY: no arguments; returns -1 on failure.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a, the digest `msload` uses to detect divergent payloads.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_op_figures_use_each_operation_at_its_median() {
        let mut ops = PerOp::default();
        for (op, secs) in [("a", 0.010), ("a", 0.030), ("a", 0.020), ("b", 0.040)] {
            ops.add(op, secs);
        }
        let mut ms = ops.ms();
        ms.sort_by(f64::total_cmp);
        assert_eq!(ms, [20.0, 40.0]);
        assert!((ops.ops_per_s() - 2.0 / 0.060).abs() < 1e-9);
    }

    #[test]
    fn host_speed_readings_are_positive_and_finite() {
        let mut speed = HostSpeed::new();
        let scale = speed.scale();
        assert!(scale.is_finite() && scale > 0.0, "{scale}");
    }

    #[test]
    fn rng_is_reproducible_and_shuffles_everything() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
