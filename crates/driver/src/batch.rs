//! Doorbell coalescing.
//!
//! ByteExpress already amortizes one doorbell over a whole chunk train
//! (§3.2); a [`FlushPolicy`] extends the same idea across *commands*: SQEs
//! and their trains are packed back-to-back in the ring and the SQ tail
//! doorbell rings once per group. A batch is a run of
//! [`crate::NvmeDriver::submit`] calls ended by one
//! [`crate::NvmeDriver::flush_sq`].

use bx_hostsim::Nanos;

/// When the driver rings a deferred SQ tail doorbell.
///
/// With a policy installed every submission stages its tail instead of
/// ringing immediately; the doorbell MMIO happens when either bound is
/// hit, or when [`crate::NvmeDriver::flush_sq`] is called. Synchronous
/// callers flush after each submit, so they see exactly one doorbell per
/// command regardless of policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Ring once this many commands have accumulated un-doorbelled
    /// (clamped to at least 1).
    pub max_batch: u16,
    /// Ring once the oldest staged command has waited this long in
    /// virtual time.
    pub max_delay: Nanos,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            max_batch: 16,
            max_delay: Nanos::from_us(5),
        }
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
}
