//! Simulator configuration.

use ms_memsys::{BusConfig, DataBanksConfig, ICacheConfig};
use ms_pipeline::{LatencyTable, UnitConfig};

/// Configuration of a multiscalar (or scalar-baseline) processor.
///
/// Defaults reproduce the paper's Section 5.1 parameters. The four
/// configurations evaluated in Tables 3 and 4 are
/// `SimConfig::multiscalar(4 | 8).issue(1 | 2).out_of_order(bool)`
/// against `SimConfig::scalar().issue(..).out_of_order(..)`.
///
/// ```
/// use multiscalar::SimConfig;
/// let cfg = SimConfig::multiscalar(8).issue(2).out_of_order(true);
/// assert_eq!(cfg.units, 8);
/// assert_eq!(cfg.banks.nbanks, 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Number of processing units (1 for the scalar baseline).
    pub units: usize,
    /// Per-unit issue width (1 or 2).
    pub issue_width: usize,
    /// Out-of-order issue within each unit.
    pub ooo: bool,
    /// OoO consideration window.
    pub window: usize,
    /// Operation latencies (Table 1).
    pub latencies: LatencyTable,
    /// Instruction-cache configuration (per unit).
    pub icache: ICacheConfig,
    /// Data-bank configuration.
    pub banks: DataBanksConfig,
    /// Memory-bus configuration.
    pub bus: BusConfig,
    /// ARB entries per bank (the paper uses 256).
    pub arb_capacity: usize,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
    /// Forward-progress watchdog: if no task retires for this many
    /// cycles, the run fails fast with [`crate::SimError::NoProgress`]
    /// (carrying a diagnostic snapshot) instead of running to the cycle
    /// bound. `None` disables the watchdog.
    pub watchdog: Option<u64>,
    /// Ring hop latency in cycles (paper: 1).
    pub ring_hop_latency: u64,
    /// Ring width override; `None` matches the issue width (paper).
    pub ring_width: Option<usize>,
    /// Task-prediction scheme (paper default: PAs).
    pub predictor: crate::PredictorKind,
    /// Response to ARB capacity exhaustion (paper default: stall).
    pub arb_full_policy: crate::ArbFullPolicy,
}

impl SimConfig {
    /// The paper's multiscalar configuration for `units` processing units
    /// (2 × units data banks, 2-cycle data-cache hits).
    ///
    /// # Panics
    /// Panics if `units` is zero.
    pub fn multiscalar(units: usize) -> SimConfig {
        assert!(units > 0, "need at least one unit");
        SimConfig {
            units,
            issue_width: 1,
            ooo: false,
            window: 16,
            latencies: LatencyTable::default(),
            icache: ICacheConfig::default(),
            banks: DataBanksConfig::multiscalar(units),
            bus: BusConfig::default(),
            arb_capacity: 256,
            max_cycles: 2_000_000_000,
            watchdog: Some(10_000_000),
            ring_hop_latency: 1,
            ring_width: None,
            predictor: crate::PredictorKind::Pas,
            arb_full_policy: crate::ArbFullPolicy::Stall,
        }
    }

    /// The paper's scalar baseline (one aggressive unit, 1-cycle data
    /// cache hits, no multiscalar overheads).
    pub fn scalar() -> SimConfig {
        SimConfig { units: 1, banks: DataBanksConfig::scalar(), ..SimConfig::multiscalar(1) }
    }

    /// Sets the per-unit issue width (builder style).
    ///
    /// # Panics
    /// Panics unless `width` is 1 or 2.
    pub fn issue(mut self, width: usize) -> SimConfig {
        assert!(width == 1 || width == 2, "paper evaluates 1- and 2-way units");
        self.issue_width = width;
        self
    }

    /// Enables or disables out-of-order issue (builder style).
    pub fn out_of_order(mut self, ooo: bool) -> SimConfig {
        self.ooo = ooo;
        self
    }

    /// Overrides the cycle safety bound (builder style).
    pub fn max_cycles(mut self, cycles: u64) -> SimConfig {
        self.max_cycles = cycles;
        self
    }

    /// Sets the forward-progress watchdog window, or disables it with
    /// `None` (builder style). The default is 10M cycles: far above any
    /// legitimate inter-retirement gap, far below the cycle bound.
    pub fn watchdog(mut self, window: Option<u64>) -> SimConfig {
        self.watchdog = window;
        self
    }

    /// Sets the ring hop latency (builder style; ablation knob).
    ///
    /// # Panics
    /// Panics if `cycles` is zero.
    pub fn ring_latency(mut self, cycles: u64) -> SimConfig {
        assert!(cycles > 0, "ring hops take at least one cycle");
        self.ring_hop_latency = cycles;
        self
    }

    /// Overrides the ring width (builder style; ablation knob).
    pub fn ring_width(mut self, width: usize) -> SimConfig {
        assert!(width > 0, "ring width must be positive");
        self.ring_width = Some(width);
        self
    }

    /// Selects the task-prediction scheme (builder style; ablation knob).
    pub fn predictor(mut self, kind: crate::PredictorKind) -> SimConfig {
        self.predictor = kind;
        self
    }

    /// Selects the ARB-overflow policy (builder style; ablation knob).
    pub fn arb_policy(mut self, policy: crate::ArbFullPolicy) -> SimConfig {
        self.arb_full_policy = policy;
        self
    }

    /// A canonical, versioned, line-oriented serialization of every field
    /// that affects simulation results.
    ///
    /// Two configs produce the same key iff they are equal, and the
    /// rendering is stable across processes and Rust releases (unlike
    /// `Hash`, whose hasher may change), so it is safe to use in on-disk
    /// cache keys. The leading `simconfig v2` token must be bumped
    /// whenever a field is added, removed, or changes meaning.
    pub fn stable_key(&self) -> String {
        let predictor = match self.predictor {
            crate::PredictorKind::Pas => "pas",
            crate::PredictorKind::StaticFirstTarget => "static-first-target",
            crate::PredictorKind::LastOutcome => "last-outcome",
        };
        let arb_policy = match self.arb_full_policy {
            crate::ArbFullPolicy::Stall => "stall",
            crate::ArbFullPolicy::Squash => "squash",
        };
        let ring_width = match self.ring_width {
            Some(w) => w.to_string(),
            None => "issue".to_string(),
        };
        let watchdog = match self.watchdog {
            Some(w) => w.to_string(),
            None => "off".to_string(),
        };
        let l = &self.latencies;
        format!(
            "simconfig v2;units={};issue={};ooo={};window={};\
             lat={},{},{},{},{},{},{},{},{},{},{},{};\
             icache={},{},{},{};banks={},{},{},{},{};bus={},{};\
             arb_capacity={};max_cycles={};watchdog={};ring_hop={};ring_width={};\
             predictor={};arb_full={}",
            self.units,
            self.issue_width,
            self.ooo,
            self.window,
            l.int_alu,
            l.int_mul,
            l.int_div,
            l.load,
            l.store,
            l.branch,
            l.fp_add_s,
            l.fp_mul_s,
            l.fp_div_s,
            l.fp_add_d,
            l.fp_mul_d,
            l.fp_div_d,
            self.icache.size_bytes,
            self.icache.block_bytes,
            self.icache.hit_time,
            self.icache.miss_extra,
            self.banks.nbanks,
            self.banks.bank_bytes,
            self.banks.block_bytes,
            self.banks.hit_time,
            self.banks.miss_extra,
            self.bus.first_beat,
            self.bus.extra_beat,
            self.arb_capacity,
            self.max_cycles,
            watchdog,
            self.ring_hop_latency,
            ring_width,
            predictor,
            arb_policy,
        )
    }

    /// The per-unit pipeline configuration implied by this config.
    pub fn unit_config(&self) -> UnitConfig {
        UnitConfig {
            issue_width: self.issue_width,
            ooo: self.ooo,
            window: self.window,
            fetch_buffer: 16,
            latencies: self.latencies,
            icache: self.icache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let m8 = SimConfig::multiscalar(8);
        assert_eq!(m8.banks.nbanks, 16);
        assert_eq!(m8.banks.hit_time, 2);
        assert_eq!(m8.arb_capacity, 256);
        let s = SimConfig::scalar();
        assert_eq!(s.units, 1);
        assert_eq!(s.banks.hit_time, 1);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::multiscalar(4).issue(2).out_of_order(true).max_cycles(5);
        assert_eq!(c.issue_width, 2);
        assert!(c.ooo);
        assert_eq!(c.max_cycles, 5);
        assert_eq!(c.unit_config().issue_width, 2);
    }

    #[test]
    #[should_panic(expected = "1- and 2-way")]
    fn bad_width_rejected() {
        let _ = SimConfig::scalar().issue(3);
    }

    #[test]
    fn stable_key_distinguishes_every_builder_knob() {
        let base = SimConfig::multiscalar(8);
        let variants = [
            base.issue(2),
            base.out_of_order(true),
            base.max_cycles(7),
            base.watchdog(None),
            base.watchdog(Some(5_000)),
            base.ring_latency(2),
            base.ring_width(4),
            base.predictor(crate::PredictorKind::LastOutcome),
            base.arb_policy(crate::ArbFullPolicy::Squash),
            SimConfig::multiscalar(4),
            SimConfig::scalar(),
        ];
        let base_key = base.stable_key();
        assert_eq!(base_key, SimConfig::multiscalar(8).stable_key());
        assert!(base_key.starts_with("simconfig v2;"));
        for v in &variants {
            assert_ne!(v.stable_key(), base_key, "{v:?}");
        }
        // Fields no builder sets, one variant each.
        let mut fields = [base; 6];
        fields[0].arb_capacity = 8;
        fields[1].window = 32;
        fields[2].latencies.int_mul = 7;
        fields[3].icache.size_bytes *= 2;
        fields[4].banks.nbanks *= 2;
        fields[5].bus.extra_beat += 1;
        for v in &fields {
            assert_ne!(v.stable_key(), base_key, "{v:?}");
        }
    }
}
