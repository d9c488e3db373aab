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
    /// Raw per-lane rate in giga-transfers per second.
    pub(crate) fn gt_per_sec(self) -> f64 {
        match self {
            Generation::Gen1 => 2.5,
            Generation::Gen2 => 5.0,
            Generation::Gen3 => 8.0,
            Generation::Gen4 => 16.0,
            Generation::Gen5 => 32.0,
        }
    }

    /// Line-code efficiency (payload bits per raw bit).
    pub(crate) fn encoding_efficiency(self) -> f64 {
        match self {
            Generation::Gen1 | Generation::Gen2 => 0.8,
            _ => 128.0 / 130.0,
        }
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

    /// Effective data rate in bytes per nanosecond after line coding.
    ///
    /// Gen2 ×8: 5 GT/s × 8 lanes × 0.8 / 8 bits = 4 B/ns (≈4 GB/s), matching
    /// the platform the paper's latency staircase was measured on.
    pub(crate) fn bytes_per_ns(&self) -> f64 {
        self.generation.gt_per_sec() * self.lanes as f64 * self.generation.encoding_efficiency()
            / 8.0
    }

    /// Time to serialize `bytes` onto the wire.
    pub fn wire_time(&self, bytes: usize) -> Nanos {
        Nanos::from_ns((bytes as f64 / self.bytes_per_ns()).ceil() as u64)
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

    #[test]
    fn gen2_x8_effective_rate_is_4_bytes_per_ns() {
        let cfg = LinkConfig::gen2_x8();
        assert!((cfg.bytes_per_ns() - 4.0).abs() < 1e-9);
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
        let gens = [
            Generation::Gen1,
            Generation::Gen2,
            Generation::Gen3,
            Generation::Gen4,
            Generation::Gen5,
        ];
        for w in gens.windows(2) {
            assert!(w[0].gt_per_sec() < w[1].gt_per_sec());
        }
    }

    #[test]
    fn gen4_is_faster_than_gen2() {
        assert!(LinkConfig::gen4_x4().bytes_per_ns() > LinkConfig::gen2_x8().bytes_per_ns());
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
