//! Link energy accounting.
//!
//! The paper's motivation includes "unnecessary power consumption" from
//! page-granular transfers of tiny payloads (§1, citing POLARDB's
//! computational-storage experience). This module prices the traffic the
//! counters already measure: PCIe PHY/link energy scales with bytes moved
//! plus a fixed packet-processing cost per TLP, so the 130× traffic
//! amplification of a 32-byte PRP write is also ≈130× wasted link energy.
//!
//! Defaults are order-of-magnitude figures for a PCIe Gen2-era PHY
//! (~5 pJ/bit ≈ 40 pJ/byte on the wire, ~15 nJ per TLP for DLLP handling,
//! sequence/CRC check and credit updates). They are deliberately exposed
//! for recalibration — the *relative* numbers between transfer methods are
//! what the model is for.

use crate::counters::TrafficCounters;
use std::fmt;

/// Energy cost model for the link.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy per wire byte (payload + headers + framing), picojoules.
    pub pj_per_byte: f64,
    /// Fixed per-TLP processing energy, picojoules.
    pub pj_per_tlp: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            pj_per_byte: 40.0,
            pj_per_tlp: 15_000.0,
        }
    }
}

/// An energy figure, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picojoules(pub f64);

impl Picojoules {
    /// Value in microjoules.
    pub(crate) fn as_microjoules(self) -> f64 {
        self.0 / 1e6
    }

    /// Value in millijoules.
    pub(crate) fn as_millijoules(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for Picojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3}mJ", self.as_millijoules())
        } else if self.0 >= 1e6 {
            write!(f, "{:.3}uJ", self.as_microjoules())
        } else if self.0 >= 1e3 {
            write!(f, "{:.3}nJ", self.0 / 1e3)
        } else {
            write!(f, "{:.1}pJ", self.0)
        }
    }
}

impl EnergyModel {
    /// Total link energy for the traffic in `counters`.
    pub fn total(&self, counters: &TrafficCounters) -> Picojoules {
        Picojoules(
            counters.total_bytes() as f64 * self.pj_per_byte
                + counters.total_tlps() as f64 * self.pj_per_tlp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{Direction, TrafficClass};
    use crate::tlp::segment_read_completions;

    #[test]
    fn energy_scales_with_bytes_and_tlps() {
        let m = EnergyModel::default();
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::PrpData,
            Direction::HostToDevice,
            &segment_read_completions(4096, 256),
        );
        let e = m.total(&c);
        // 16 TLPs x 15 nJ + (4096 + 320) B x 40 pJ.
        let expected = 16.0 * 15_000.0 + 4416.0 * 40.0;
        assert!((e.0 - expected).abs() < 1e-6, "{e:?}");
    }

    #[test]
    fn empty_counters_cost_nothing() {
        let m = EnergyModel::default();
        let c = TrafficCounters::new();
        assert_eq!(m.total(&c).0, 0.0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Picojoules(500.0).to_string(), "500.0pJ");
        assert_eq!(Picojoules(5e3).to_string(), "5.000nJ");
        assert_eq!(Picojoules(5e6).to_string(), "5.000uJ");
        assert_eq!(Picojoules(5e9).to_string(), "5.000mJ");
    }
}
