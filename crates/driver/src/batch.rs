//! Doorbell-coalesced batch submission.
//!
//! ByteExpress already amortizes one doorbell over a whole chunk train
//! (§3.2); this module extends the same idea across *commands*: SQEs and
//! their trains are packed back-to-back in the ring and the SQ tail
//! doorbell is rung once per batch. [`FlushPolicy`] bounds how long
//! entries may sit staged-but-unrung; [`BatchSubmission`] reports what a
//! batch actually placed when it stops early.

use crate::driver::{DriverError, SubmittedCmd};
use bx_hostsim::Nanos;

/// When the driver rings a deferred SQ tail doorbell.
///
/// With a policy installed every submission stages its tail instead of
/// ringing immediately; the doorbell MMIO happens when either bound is
/// hit, when [`crate::NvmeDriver::flush_sq`] is called, or at the end of
/// a [`crate::NvmeDriver::submit_batch`]. The synchronous `execute`
/// paths flush after each submit, so single-command callers see exactly
/// one doorbell per command regardless of policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Ring once this many commands have accumulated un-doorbelled
    /// (clamped to at least 1).
    pub max_batch: u16,
    /// Ring once the oldest staged command has waited this long in
    /// virtual time.
    pub max_delay: Nanos,
}

impl FlushPolicy {
    /// A policy that never auto-flushes — the batch boundary alone rings
    /// the doorbell. Used internally by `submit_batch` when no policy is
    /// installed.
    pub(crate) fn unbounded() -> Self {
        FlushPolicy {
            max_batch: u16::MAX,
            max_delay: Nanos::from_ns(u64::MAX),
        }
    }
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            max_batch: 16,
            max_delay: Nanos::from_us(5),
        }
    }
}

/// What one [`crate::NvmeDriver::submit_batch`] call placed.
///
/// A batch stops at the first command that fails to submit: everything
/// before it is in the ring and doorbelled (exactly once), everything
/// after it was not attempted. The caller decides whether to resubmit
/// the remainder — the timeout reaper treats each accepted command
/// independently, so a partially-acked batch needs no special casing.
#[derive(Debug)]
pub struct BatchSubmission {
    /// Commands accepted into the ring, in submission order.
    pub submitted: Vec<SubmittedCmd>,
    /// The error that stopped the batch early, if any.
    pub error: Option<DriverError>,
}

impl BatchSubmission {
    /// Whether every command in the batch was accepted.
    pub fn all_accepted(&self) -> bool {
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_bounds() {
        let p = FlushPolicy::default();
        assert_eq!(p.max_batch, 16);
        assert_eq!(p.max_delay, Nanos::from_us(5));
    }

    #[test]
    fn unbounded_never_triggers_on_count() {
        let p = FlushPolicy::unbounded();
        assert_eq!(p.max_batch, u16::MAX);
    }
}
