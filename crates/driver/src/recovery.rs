//! Driver-side recovery from a power cut: a per-command deadline.
//!
//! After a cut the host's only events are its own deadlines (Durable
//! Queues, arXiv 2105.08706): a dark controller writes nothing to host
//! memory, so a command in flight on it completes only when the driver
//! gives up on it. A dark device stays dark until a power cycle, so no
//! resubmission could succeed either; `Device`'s submit-and-wait makes one
//! attempt, and the deadline is what ends it (DESIGN.md §7).

use bx_hostsim::Nanos;
use bx_nvme::QueueId;
use std::fmt;

/// Timeout policy for [`crate::NvmeDriver`].
///
/// Installing a policy (see `NvmeDriver::set_retry_policy`) gives every
/// command a completion deadline. On a dark device a command past it is
/// reaped as a `CommandAborted` completion, which `Device` reports as
/// `DriverError::Timeout`. Without a policy the wait gives up as soon as a
/// poll can no longer make progress, with the same error. Either way the
/// wire traffic of a live run is byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-command completion deadline.
    pub timeout: Nanos,
    /// Virtual time advanced per completion-poll iteration while waiting.
    pub poll_interval: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Nanos::from_ms(5),
            poll_interval: Nanos::from_us(20),
        }
    }
}

impl RetryPolicy {
    /// The poll step, clamped to at least 1 ns so the wait loop always
    /// reaches the deadline.
    pub(crate) fn poll_step(&self) -> Nanos {
        self.poll_interval.max(Nanos::from_ns(1))
    }
}

/// Identifies the command an error refers to: which queue, which command
/// identifier, which opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdContext {
    /// The I/O queue the command was submitted on.
    pub qid: QueueId,
    /// The command identifier.
    pub cid: u16,
    /// The raw NVMe opcode.
    pub opcode: u8,
}

impl fmt::Display for CmdContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cid {} opcode {:#04x}",
            self.qid, self.cid, self.opcode
        )
    }
}

/// Counters for the recovery machinery (all zero when no power cut caught
/// a command in flight).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct RecoveryStats {
    /// Commands reaped after missing their completion deadline.
    pub timeouts: u64,
    /// Always 0: the driver no longer resubmits. The field stays while the
    /// standalone `benchmark/` package still reports it.
    pub retries: u64,
}

impl RecoveryStats {
    /// The per-field difference against an earlier snapshot (for windowed
    /// reporting, e.g. one measurement run).
    pub fn since(&self, earlier: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_poll_interval_is_clamped() {
        let p = RetryPolicy {
            poll_interval: Nanos::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(p.poll_step(), Nanos::from_ns(1));
    }
}
