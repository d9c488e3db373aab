//! The one injectable fault: a whole-system power cut.
//!
//! A cut is a deterministic countdown over controller scheduling events, so
//! crash sweeps enumerate every cut point exhaustively and a given
//! `(FaultConfig, workload)` pair replays the same cut on every run. The
//! countdown itself lives on the platform the controller borrows
//! (`bx_ssd::Platform`); this module holds its configuration and counter.

/// When to cut power.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultConfig {
    /// Whole-system power cut: the device freezes after this many
    /// controller scheduling events. `Some(0)` cuts on the very first
    /// event; `None` (the default) never cuts.
    pub power_cut_after_events: Option<u64>,
}

impl FaultConfig {
    /// A configuration injecting nothing (the default).
    pub fn disabled() -> Self {
        FaultConfig::default()
    }
}

/// How many power cuts have fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FaultCounters {
    /// Whole-system power cuts fired.
    pub power_cuts: u64,
}

impl FaultCounters {
    /// The difference against an earlier snapshot (windowed reporting),
    /// saturating at zero rather than wrapping.
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            power_cuts: self.power_cuts.saturating_sub(earlier.power_cuts),
        }
    }
}
