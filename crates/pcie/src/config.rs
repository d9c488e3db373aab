//! Link configuration: generation, width, payload limits and timing constants.

use bx_hostsim::Nanos;
use std::fmt;

/// A structurally invalid [`LinkConfig`].
///
/// The config struct's fields are public (ablation studies build them by
/// hand), so validity is enforced at the consumption boundary:
/// [`LinkConfig::validate`] is called by the device builder before a link is
/// wired up, turning a misconfigured link into a hard error instead of
/// silently clamped traffic numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkConfigError {
    /// `max_payload_size` is not a power of two in 128..=4096.
    BadMaxPayloadSize(usize),
    /// `max_read_request_size` is not a power of two in 128..=4096.
    BadMaxReadRequestSize(usize),
    /// `lanes` is not one of the spec link widths (1, 2, 4, 8, 16, 32).
    BadLaneCount(u32),
}

impl fmt::Display for LinkConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkConfigError::BadMaxPayloadSize(mps) => {
                write!(f, "MPS must be a power of two in 128..=4096, got {mps}")
            }
            LinkConfigError::BadMaxReadRequestSize(mrrs) => {
                write!(f, "MRRS must be a power of two in 128..=4096, got {mrrs}")
            }
            LinkConfigError::BadLaneCount(lanes) => {
                write!(f, "lane count must be 1, 2, 4, 8, 16 or 32, got {lanes}")
            }
        }
    }
}

impl std::error::Error for LinkConfigError {}

/// PCIe generation, determining per-lane raw signalling rate and line-code
/// efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Generation {
    /// 2.5 GT/s, 8b/10b encoding.
    Gen1,
    /// 5.0 GT/s, 8b/10b encoding — the paper's OpenSSD platform.
    Gen2,
    /// 8.0 GT/s, 128b/130b encoding.
    Gen3,
    /// 16.0 GT/s, 128b/130b encoding.
    Gen4,
    /// 32.0 GT/s, 128b/130b encoding.
    Gen5,
}

impl Generation {
    /// Time one lane takes to move a byte after line coding, as
    /// `(ns, shift)`: `ns` nanoseconds per `2^shift` bytes. 8b/10b at 2.5
    /// and 5 GT/s moves a byte in 4 and 2 ns; 128b/130b at 8, 16 and 32 GT/s
    /// in 65/64, 65/128 and 65/256 ns.
    fn lane_ns_per_byte(self) -> (u64, u32) {
        match self {
            Generation::Gen1 => (4, 0),
            Generation::Gen2 => (2, 0),
            Generation::Gen3 => (65, 6),
            Generation::Gen4 => (65, 7),
            Generation::Gen5 => (65, 8),
        }
    }
}

/// A link's serialization rate: `ns` nanoseconds per `2^shift` bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireRate {
    ns: u64,
    shift: u32,
}

impl WireRate {
    /// Time to serialize `bytes`, rounded up to the nanosecond.
    pub(crate) fn time(self, bytes: usize) -> Nanos {
        let round_up = (1u64 << self.shift) - 1;
        Nanos::from_ns(
            (bytes as u64)
                .saturating_mul(self.ns)
                .saturating_add(round_up)
                >> self.shift,
        )
    }
}

/// Full link configuration.
///
/// Defaults mirror the paper's evaluation platform (Cosmos+ OpenSSD attached
/// over PCIe **Gen2 ×8**, 4 KB pages, MPS 256 B, MRRS 512 B); constructors for
/// other generations support the paper's §5 discussion of how newer links
/// shift the trade-off.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// PCIe generation.
    pub generation: Generation,
    /// Number of lanes (1, 2, 4, 8, 16).
    pub lanes: u32,
    /// Max Payload Size: the largest TLP data payload, bytes.
    pub max_payload_size: usize,
    /// Max Read Request Size: the largest single read request, bytes.
    pub max_read_request_size: usize,
    /// One-way propagation/pipeline latency through the fabric.
    pub propagation: Nanos,
    /// Host memory access latency seen by a device-issued DMA read
    /// (root-complex + DRAM access).
    pub host_memory_read: Nanos,
    /// Per-TLP processing overhead at each end (DLLP handling, credit update).
    pub per_tlp_overhead: Nanos,
}

impl LinkConfig {
    /// The paper's platform: Gen2 ×8, MPS 256 B, MRRS 512 B.
    pub fn gen2_x8() -> Self {
        LinkConfig {
            generation: Generation::Gen2,
            lanes: 8,
            max_payload_size: 256,
            max_read_request_size: 512,
            propagation: Nanos::from_ns(100),
            host_memory_read: Nanos::from_ns(250),
            per_tlp_overhead: Nanos::from_ns(5),
        }
    }

    /// A modern Gen4 ×4 consumer-SSD link (for the §5 sensitivity discussion).
    pub fn gen4_x4() -> Self {
        LinkConfig {
            generation: Generation::Gen4,
            lanes: 4,
            max_payload_size: 512,
            max_read_request_size: 512,
            propagation: Nanos::from_ns(80),
            host_memory_read: Nanos::from_ns(220),
            per_tlp_overhead: Nanos::from_ns(3),
        }
    }

    /// A Gen5 ×4 link.
    pub fn gen5_x4() -> Self {
        LinkConfig {
            generation: Generation::Gen5,
            lanes: 4,
            max_payload_size: 512,
            max_read_request_size: 1024,
            propagation: Nanos::from_ns(70),
            host_memory_read: Nanos::from_ns(200),
            per_tlp_overhead: Nanos::from_ns(2),
        }
    }

    /// The serialization rate after line coding: a lane's time per byte
    /// divided by the width. Exact for every width [`LinkConfig::validate`]
    /// accepts, all powers of two; a width it rejects counts as the power of
    /// two below it, 0 as 1.
    ///
    /// Gen2 ×8: 5 GT/s × 8 lanes × 0.8 / 8 bits = 4 B/ns (≈4 GB/s), matching
    /// the platform the paper's latency staircase was measured on.
    pub(crate) fn wire_rate(&self) -> WireRate {
        let (ns, shift) = self.generation.lane_ns_per_byte();
        WireRate {
            ns,
            shift: shift + self.lanes.checked_ilog2().unwrap_or(0),
        }
    }

    /// Time to serialize `bytes` onto the wire, rounded up to the
    /// nanosecond.
    pub fn wire_time(&self, bytes: usize) -> Nanos {
        self.wire_rate().time(bytes)
    }

    /// Returns a copy with a different Max Payload Size (ablation support).
    pub fn with_max_payload_size(mut self, mps: usize) -> Self {
        assert!(
            mps.is_power_of_two() && (128..=4096).contains(&mps),
            "MPS must be a power of two in 128..=4096, got {mps}"
        );
        self.max_payload_size = mps;
        self
    }

    /// Checks structural validity: spec lane widths, and MPS/MRRS each a
    /// power of two in 128..=4096 (so a zero or otherwise nonsensical limit
    /// can never reach the TLP segmenters, which reject 0 outright).
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`LinkConfigError`].
    pub fn validate(&self) -> Result<(), LinkConfigError> {
        if !matches!(self.lanes, 1 | 2 | 4 | 8 | 16 | 32) {
            return Err(LinkConfigError::BadLaneCount(self.lanes));
        }
        let in_range = |v: usize| v.is_power_of_two() && (128..=4096).contains(&v);
        if !in_range(self.max_payload_size) {
            return Err(LinkConfigError::BadMaxPayloadSize(self.max_payload_size));
        }
        if !in_range(self.max_read_request_size) {
            return Err(LinkConfigError::BadMaxReadRequestSize(
                self.max_read_request_size,
            ));
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::gen2_x8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERATIONS: [Generation; 5] = [
        Generation::Gen1,
        Generation::Gen2,
        Generation::Gen3,
        Generation::Gen4,
        Generation::Gen5,
    ];

    /// Raw per-lane rate in giga-transfers per second.
    fn gt_per_sec(generation: Generation) -> f64 {
        match generation {
            Generation::Gen1 => 2.5,
            Generation::Gen2 => 5.0,
            Generation::Gen3 => 8.0,
            Generation::Gen4 => 16.0,
            Generation::Gen5 => 32.0,
        }
    }

    /// Effective data rate in bytes per nanosecond: raw rate × lanes ×
    /// line-code efficiency (payload bits per raw bit) / 8 bits. The
    /// reference the integer [`WireRate`] is checked against.
    fn bytes_per_ns(cfg: &LinkConfig) -> f64 {
        let efficiency = match cfg.generation {
            Generation::Gen1 | Generation::Gen2 => 0.8,
            _ => 128.0 / 130.0,
        };
        gt_per_sec(cfg.generation) * cfg.lanes as f64 * efficiency / 8.0
    }

    #[test]
    fn gen2_x8_effective_rate_is_4_bytes_per_ns() {
        let cfg = LinkConfig::gen2_x8();
        assert!((bytes_per_ns(&cfg) - 4.0).abs() < 1e-9);
        assert_eq!(cfg.wire_time(4), Nanos::from_ns(1));
    }

    /// Integer wire time equals `ceil(bytes / bytes_per_ns)` for every
    /// generation and width `validate` accepts: every byte count up to
    /// 64 KiB, then a stride up to 16 MiB.
    #[test]
    fn integer_wire_time_equals_the_f64_formula() {
        let strided = (65_537..=1 << 24).step_by(4_099);
        for generation in GENERATIONS {
            for lanes in [1, 2, 4, 8, 16, 32] {
                let cfg = LinkConfig {
                    generation,
                    lanes,
                    ..LinkConfig::gen2_x8()
                };
                let (rate, reference) = (cfg.wire_rate(), bytes_per_ns(&cfg));
                for bytes in (0..=65_536).chain(strided.clone()) {
                    let want = (bytes as f64 / reference).ceil() as u64;
                    assert_eq!(
                        rate.time(bytes).as_ns(),
                        want,
                        "{generation:?} x{lanes}, {bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    fn wire_time_rounds_up() {
        let cfg = LinkConfig::gen2_x8();
        assert_eq!(cfg.wire_time(4096), Nanos::from_ns(1024));
        assert_eq!(cfg.wire_time(1), Nanos::from_ns(1));
        assert_eq!(cfg.wire_time(0), Nanos::ZERO);
    }

    #[test]
    fn generation_rates_ordered() {
        for w in GENERATIONS.windows(2) {
            assert!(gt_per_sec(w[0]) < gt_per_sec(w[1]));
        }
    }

    #[test]
    fn gen4_is_faster_than_gen2() {
        let bytes = 1 << 20;
        assert!(LinkConfig::gen4_x4().wire_time(bytes) < LinkConfig::gen2_x8().wire_time(bytes));
    }

    #[test]
    fn mps_override() {
        let cfg = LinkConfig::gen2_x8().with_max_payload_size(512);
        assert_eq!(cfg.max_payload_size, 512);
    }

    #[test]
    #[should_panic(expected = "MPS must be a power of two")]
    fn bad_mps_panics() {
        let _ = LinkConfig::gen2_x8().with_max_payload_size(300);
    }

    #[test]
    fn stock_configs_validate() {
        for cfg in [
            LinkConfig::gen2_x8(),
            LinkConfig::gen4_x4(),
            LinkConfig::gen5_x4(),
            LinkConfig::default(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_boundary_values() {
        // 0: the misconfiguration the segmenters used to clamp silently.
        let mut cfg = LinkConfig::gen2_x8();
        cfg.max_payload_size = 0;
        assert_eq!(cfg.validate(), Err(LinkConfigError::BadMaxPayloadSize(0)));

        // 1: a power of two, but below the spec minimum of 128.
        let mut cfg = LinkConfig::gen2_x8();
        cfg.max_payload_size = 1;
        assert_eq!(cfg.validate(), Err(LinkConfigError::BadMaxPayloadSize(1)));

        // Non-power-of-two, in range.
        let mut cfg = LinkConfig::gen2_x8();
        cfg.max_read_request_size = 300;
        assert_eq!(
            cfg.validate(),
            Err(LinkConfigError::BadMaxReadRequestSize(300))
        );

        // Boundaries of the legal range are legal.
        let mut cfg = LinkConfig::gen2_x8();
        cfg.max_payload_size = 128;
        cfg.max_read_request_size = 4096;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_lane_counts() {
        let mut cfg = LinkConfig::gen2_x8();
        cfg.lanes = 0;
        assert_eq!(cfg.validate(), Err(LinkConfigError::BadLaneCount(0)));
        cfg.lanes = 3;
        assert_eq!(cfg.validate(), Err(LinkConfigError::BadLaneCount(3)));
    }
}
