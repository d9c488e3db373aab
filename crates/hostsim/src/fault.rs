//! Deterministic, seedable fault injection for the simulated platform.
//!
//! Every fault site in the stack (PCIe doorbell path, controller completion
//! post, inline chunk train, NAND array) consults one shared
//! [`FaultInjector`]. The injector draws from a single SplitMix64 stream, and
//! the simulation is single-threaded, so a given `(FaultConfig, workload)`
//! pair replays the *exact* same fault schedule on every run — chaos tests
//! are reproducible from a seed alone.
//!
//! **Zero overhead when off:** with [`FaultConfig::disabled`] every query
//! short-circuits before touching the RNG, the virtual clock, or any traffic
//! counter, so traffic/latency figures are byte-identical to a build without
//! fault hooks.

/// Probabilities and parameters for every injectable fault class.
///
/// All probabilities are per-event in `[0, 1]`. A default-constructed config
/// injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Link-layer TLP loss: probability an SQ-doorbell posted write is
    /// dropped before the device observes it (the driver's view of the queue
    /// advances; the device never fetches).
    pub drop_doorbell: f64,
    /// Completion loss: probability the controller's CQE posted write (and
    /// its MSI) is swallowed, leaving the host polling an unchanged queue.
    pub drop_completion: f64,
    /// Chunk-train corruption: probability a fetched inline chunk has its
    /// reassembly header corrupted in flight.
    pub corrupt_chunk_header: f64,
    /// Chunk-train truncation: probability the host-side train writer drops
    /// one chunk of a reassembly train (stalling the tracker until the
    /// controller's parked-command deadline evicts it).
    pub truncate_train: f64,
    /// NAND: probability a page program fails (the FTL remaps the block).
    pub nand_program_fail: f64,
    /// NAND: probability a page read returns flipped bits.
    pub nand_read_bitflip: f64,
    /// NAND: when a read does flip bits, the flip count is drawn uniformly
    /// from `1..=nand_max_flips`.
    pub nand_max_flips: u32,
    /// ECC strength: reads with at most this many flipped bits are corrected
    /// transparently (counted); beyond it the read is uncorrectable.
    pub ecc_correctable_bits: u32,
    /// Whole-system power cut: the device freezes after this many controller
    /// scheduling events ([`FaultInjector::power_cut_tick`] calls). Unlike
    /// the probabilistic classes this is a deterministic countdown — crash
    /// sweeps enumerate every cut point exhaustively — and it never touches
    /// the RNG, so adding a cut to a seeded schedule does not perturb which
    /// probabilistic faults fire before it. `None` (the default) never cuts.
    pub power_cut_after_events: Option<u64>,
}

impl FaultConfig {
    /// A configuration injecting nothing (the default).
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            drop_doorbell: 0.0,
            drop_completion: 0.0,
            corrupt_chunk_header: 0.0,
            truncate_train: 0.0,
            nand_program_fail: 0.0,
            nand_read_bitflip: 0.0,
            nand_max_flips: 4,
            ecc_correctable_bits: 8,
            power_cut_after_events: None,
        }
    }

    /// True if any fault class has a non-zero probability (or a power cut is
    /// scheduled).
    pub(crate) fn any_enabled(&self) -> bool {
        self.drop_doorbell > 0.0
            || self.drop_completion > 0.0
            || self.corrupt_chunk_header > 0.0
            || self.truncate_train > 0.0
            || self.nand_program_fail > 0.0
            || self.nand_read_bitflip > 0.0
            || self.power_cut_after_events.is_some()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// How many times each fault class actually fired (for chaos-test coverage
/// assertions: "did this run really exercise ≥ N distinct fault classes?").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FaultCounters {
    /// SQ doorbells dropped on the link.
    pub doorbells_dropped: u64,
    /// CQE/MSI posts swallowed by the controller.
    pub completions_dropped: u64,
    /// Inline chunk headers corrupted in flight.
    pub chunk_headers_corrupted: u64,
    /// Reassembly trains truncated by the host-side writer.
    pub trains_truncated: u64,
    /// NAND page programs failed.
    pub nand_program_failures: u64,
    /// NAND page reads that came back with flipped bits (correctable or not).
    pub nand_read_bitflips: u64,
    /// Whole-system power cuts fired.
    pub power_cuts: u64,
}

impl FaultCounters {
    /// The per-class difference against an earlier snapshot (windowed
    /// reporting). Each count saturates at zero rather than wrapping.
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            doorbells_dropped: self
                .doorbells_dropped
                .saturating_sub(earlier.doorbells_dropped),
            completions_dropped: self
                .completions_dropped
                .saturating_sub(earlier.completions_dropped),
            chunk_headers_corrupted: self
                .chunk_headers_corrupted
                .saturating_sub(earlier.chunk_headers_corrupted),
            trains_truncated: self
                .trains_truncated
                .saturating_sub(earlier.trains_truncated),
            nand_program_failures: self
                .nand_program_failures
                .saturating_sub(earlier.nand_program_failures),
            nand_read_bitflips: self
                .nand_read_bitflips
                .saturating_sub(earlier.nand_read_bitflips),
            power_cuts: self.power_cuts.saturating_sub(earlier.power_cuts),
        }
    }

    /// Number of distinct fault classes that fired at least once.
    pub fn distinct_classes(&self) -> usize {
        [
            self.doorbells_dropped,
            self.completions_dropped,
            self.chunk_headers_corrupted,
            self.trains_truncated,
            self.nand_program_failures,
            self.nand_read_bitflips,
            self.power_cuts,
        ]
        .iter()
        .filter(|&&n| n > 0)
        .count()
    }
}

/// The shared fault-decision engine.
///
/// One instance is shared (behind `Rc<RefCell<_>>`) by every component of a
/// simulated platform; the single RNG stream plus single-threaded execution
/// makes the schedule deterministic.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    enabled: bool,
    rng_state: u64,
    counters: FaultCounters,
    /// Scheduling events left before the power cut fires; `None` when no cut
    /// is scheduled (or the scheduled one already fired — a cut is one-shot).
    power_cut_remaining: Option<u64>,
}

impl FaultInjector {
    /// An injector that never fires and never touches its RNG.
    pub fn disabled() -> Self {
        FaultInjector::new(FaultConfig::disabled())
    }

    /// Builds an injector from `cfg`, seeded from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        let enabled = cfg.any_enabled();
        FaultInjector {
            rng_state: cfg.seed,
            enabled,
            power_cut_remaining: cfg.power_cut_after_events,
            cfg,
            counters: FaultCounters::default(),
        }
    }

    /// Replaces the configuration (and reseeds), e.g. to disable faults for
    /// a verification phase of a chaos test.
    pub fn reconfigure(&mut self, cfg: FaultConfig) {
        self.rng_state = cfg.seed;
        self.enabled = cfg.any_enabled();
        self.power_cut_remaining = cfg.power_cut_after_events;
        self.cfg = cfg;
    }

    /// Injection counts so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    fn next_u64(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bernoulli draw; guaranteed not to advance the RNG when the class (or
    /// the whole injector) is disabled, preserving schedule stability when
    /// individual classes are toggled.
    fn chance(&mut self, p: f64) -> bool {
        if !self.enabled || p <= 0.0 {
            return false;
        }
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Should this SQ doorbell ring be dropped on the link?
    pub fn drop_doorbell(&mut self) -> bool {
        let hit = self.chance(self.cfg.drop_doorbell);
        if hit {
            self.counters.doorbells_dropped += 1;
        }
        hit
    }

    /// Should this CQE post be swallowed?
    pub fn drop_completion(&mut self) -> bool {
        let hit = self.chance(self.cfg.drop_completion);
        if hit {
            self.counters.completions_dropped += 1;
        }
        hit
    }

    /// Should this fetched chunk's header be corrupted? Returns the XOR mask
    /// to apply to the first header byte (never zero).
    pub fn corrupt_chunk_header(&mut self) -> Option<u8> {
        if !self.chance(self.cfg.corrupt_chunk_header) {
            return None;
        }
        self.counters.chunk_headers_corrupted += 1;
        let mask = (self.next_u64() & 0xFF) as u8;
        Some(if mask == 0 { 0xA5 } else { mask })
    }

    /// Should the host-side writer drop chunk `idx` of an `n`-chunk train?
    /// At most one chunk per train is dropped, and never for 1-chunk trains
    /// (dropping the only chunk is indistinguishable from a dropped
    /// doorbell).
    pub fn truncate_train(&mut self, n_chunks: usize) -> Option<usize> {
        if n_chunks < 2 || !self.chance(self.cfg.truncate_train) {
            return None;
        }
        self.counters.trains_truncated += 1;
        Some((self.next_u64() % n_chunks as u64) as usize)
    }

    /// Should this NAND page program fail?
    pub fn nand_program_fail(&mut self) -> bool {
        let hit = self.chance(self.cfg.nand_program_fail);
        if hit {
            self.counters.nand_program_failures += 1;
        }
        hit
    }

    /// Should this NAND page read suffer bit flips? Returns the number of
    /// flipped bits (drawn from `1..=nand_max_flips`).
    pub fn nand_read_flips(&mut self) -> Option<u32> {
        if !self.chance(self.cfg.nand_read_bitflip) {
            return None;
        }
        self.counters.nand_read_bitflips += 1;
        let max = self.cfg.nand_max_flips.max(1);
        Some(1 + (self.next_u64() % u64::from(max)) as u32)
    }

    /// Counts down one controller scheduling event toward the scheduled
    /// power cut; returns `true` exactly once, on the event the cut lands.
    /// `power_cut_after_events: Some(0)` cuts on the very first event. Never
    /// touches the RNG (the cut point is part of the config, not a draw).
    pub fn power_cut_tick(&mut self) -> bool {
        match self.power_cut_remaining.as_mut() {
            None => false,
            Some(0) => {
                self.power_cut_remaining = None;
                self.counters.power_cuts += 1;
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
        }
    }

    /// ECC strength from the active config.
    pub fn ecc_correctable_bits(&self) -> u32 {
        self.cfg.ecc_correctable_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires_and_never_draws() {
        let mut inj = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!inj.drop_doorbell());
            assert!(!inj.drop_completion());
            assert!(inj.corrupt_chunk_header().is_none());
            assert!(inj.truncate_train(8).is_none());
            assert!(!inj.nand_program_fail());
            assert!(inj.nand_read_flips().is_none());
            assert!(!inj.power_cut_tick());
        }
        assert_eq!(inj.rng_state, 0, "disabled injector must not touch RNG");
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn power_cut_fires_exactly_once_at_the_scheduled_event() {
        let cfg = FaultConfig {
            power_cut_after_events: Some(3),
            ..FaultConfig::disabled()
        };
        let mut inj = FaultInjector::new(cfg);
        assert_eq!(
            (0..10).map(|_| inj.power_cut_tick()).collect::<Vec<_>>(),
            [false, false, false, true, false, false, false, false, false, false],
        );
        assert_eq!(inj.counters().power_cuts, 1);
        assert_eq!(inj.counters().distinct_classes(), 1);
        assert_eq!(
            inj.rng_state, 0,
            "the power-cut countdown must never touch the RNG"
        );
    }

    #[test]
    fn power_cut_at_zero_fires_on_first_event() {
        let cfg = FaultConfig {
            power_cut_after_events: Some(0),
            ..FaultConfig::disabled()
        };
        assert!(cfg.any_enabled());
        let mut inj = FaultInjector::new(cfg);
        assert!(inj.power_cut_tick());
        assert!(!inj.power_cut_tick());
    }

    #[test]
    fn power_cut_countdown_does_not_perturb_probabilistic_schedule() {
        let base = FaultConfig {
            seed: 42,
            drop_doorbell: 0.3,
            nand_read_bitflip: 0.5,
            ..FaultConfig::disabled()
        };
        let with_cut = FaultConfig {
            power_cut_after_events: Some(5),
            ..base.clone()
        };
        let mut a = FaultInjector::new(base);
        let mut b = FaultInjector::new(with_cut);
        for _ in 0..200 {
            b.power_cut_tick();
            assert_eq!(a.drop_doorbell(), b.drop_doorbell());
            assert_eq!(a.nand_read_flips(), b.nand_read_flips());
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            seed: 42,
            drop_doorbell: 0.3,
            drop_completion: 0.3,
            nand_read_bitflip: 0.5,
            ..FaultConfig::disabled()
        };
        let mut a = FaultInjector::new(cfg.clone());
        let mut b = FaultInjector::new(cfg);
        for _ in 0..500 {
            assert_eq!(a.drop_doorbell(), b.drop_doorbell());
            assert_eq!(a.drop_completion(), b.drop_completion());
            assert_eq!(a.nand_read_flips(), b.nand_read_flips());
        }
        assert_eq!(a.counters(), b.counters());
        assert!(a.counters().distinct_classes() >= 3);
    }

    #[test]
    fn truncate_never_hits_single_chunk_trains() {
        let cfg = FaultConfig {
            seed: 7,
            truncate_train: 1.0,
            ..FaultConfig::disabled()
        };
        let mut inj = FaultInjector::new(cfg);
        assert!(inj.truncate_train(1).is_none());
        let dropped = inj.truncate_train(5).expect("p=1 must fire");
        assert!(dropped < 5);
    }
}
