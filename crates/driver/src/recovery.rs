//! Driver-side fault recovery: timeouts, retries, graceful degradation.
//!
//! The policy mirrors what a production NVMe driver layers on top of the
//! happy path: every command gets a (virtual-time) completion deadline;
//! expired commands are reaped and resubmitted with capped exponential
//! backoff, but only when the operation is idempotent and the failure
//! status is classified retriable. Repeated ByteExpress failures on a
//! queue degrade that queue to plain PRP — correctness over performance —
//! with periodic ByteExpress probes so the queue re-promotes itself once
//! the fault clears (§"Fault model and recovery" in DESIGN.md).

use bx_hostsim::Nanos;
use bx_nvme::{IoOpcode, QueueId};
use std::fmt;

/// Timeout/retry/degradation policy for [`crate::NvmeDriver`].
///
/// Installing a policy (see `NvmeDriver::set_retry_policy`) wraps the
/// recovery ladder around `execute`'s wait; without one `execute` makes a
/// single attempt and reports a lost completion as `DriverError::Timeout`,
/// byte-identical on the wire to a driver with no recovery support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt completion deadline. Must exceed the controller's
    /// `inline_stall_deadline` so a truncated chunk train resolves to a
    /// `DataTransferError` CQE *before* the driver resubmits — resubmitting
    /// while the train is still parked would feed the new command into the
    /// reassembler as a chunk.
    pub timeout: Nanos,
    /// Virtual time advanced per completion-poll iteration while waiting.
    pub poll_interval: Nanos,
    /// Resubmissions allowed after the first attempt.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Nanos,
    /// Backoff ceiling.
    pub backoff_cap: Nanos,
    /// Consecutive ByteExpress failures on one queue before it degrades
    /// to PRP.
    pub fallback_after: u32,
    /// Operations a degraded queue routes over PRP between ByteExpress
    /// re-promotion probes.
    pub probe_after: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Nanos::from_ms(5),
            poll_interval: Nanos::from_us(20),
            max_retries: 4,
            backoff_base: Nanos::from_us(50),
            backoff_cap: Nanos::from_us(800),
            fallback_after: 3,
            probe_after: 16,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry number `attempt` (0-based):
    /// `min(backoff_base << attempt, backoff_cap)`.
    pub(crate) fn backoff(&self, attempt: u32) -> Nanos {
        let shift = attempt.min(16);
        Nanos::from_ns(
            self.backoff_base
                .as_ns()
                .saturating_mul(1u64 << shift)
                .min(self.backoff_cap.as_ns()),
        )
        .max(Nanos::from_ns(1))
    }

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
    /// The command identifier of the last attempt.
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

/// Counters for the recovery machinery (all zero when no fault ever fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct RecoveryStats {
    /// Commands reaped after missing their completion deadline.
    pub timeouts: u64,
    /// Resubmissions performed.
    pub retries: u64,
    /// Commands abandoned after the retry cap.
    pub retries_exhausted: u64,
    /// Failed ByteExpress attempts observed by the degradation tracker.
    pub bx_failures: u64,
    /// Queue degradations from ByteExpress to PRP.
    pub fallbacks: u64,
    /// ByteExpress re-promotion probes issued while degraded.
    pub probes: u64,
    /// Successful probes that re-promoted a queue to ByteExpress.
    pub repromotions: u64,
    /// Completions consumed for commands no longer in flight (late or
    /// duplicate CQEs after a timeout reap).
    pub spurious_completions: u64,
}

impl RecoveryStats {
    /// The per-field difference against an earlier snapshot (for windowed
    /// reporting, e.g. one measurement run).
    pub fn since(&self, earlier: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            retries: self.retries.saturating_sub(earlier.retries),
            retries_exhausted: self
                .retries_exhausted
                .saturating_sub(earlier.retries_exhausted),
            bx_failures: self.bx_failures.saturating_sub(earlier.bx_failures),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            probes: self.probes.saturating_sub(earlier.probes),
            repromotions: self.repromotions.saturating_sub(earlier.repromotions),
            spurious_completions: self
                .spurious_completions
                .saturating_sub(earlier.spurious_completions),
        }
    }

    /// True when no recovery action of any kind was taken.
    pub fn is_quiet(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// How an attempt used (or avoided) ByteExpress, for the degradation
/// state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BxRole {
    /// The attempt did not involve ByteExpress at all.
    NotBx,
    /// A normal ByteExpress attempt on a healthy queue.
    Normal,
    /// A ByteExpress re-promotion probe on a degraded queue.
    Probe,
    /// ByteExpress was requested but the degraded queue substituted PRP.
    Substituted,
}

/// Per-queue ByteExpress health tracking.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DegradeState {
    /// Consecutive failed ByteExpress attempts.
    pub consecutive_bx_failures: u32,
    /// Whether the queue currently routes ByteExpress requests over PRP.
    pub degraded: bool,
    /// Operations since the last re-promotion probe.
    pub ops_since_probe: u64,
}

/// Whether retrying `opcode` after an ambiguous failure (e.g. a timeout,
/// where the first attempt may or may not have executed) cannot corrupt
/// state. Writes/puts of the same bytes, reads, gets and flushes are safe
/// to repeat; anything with cumulative or non-repeatable effects (a DELETE,
/// whose repeat finds the key gone, or CSD task execution) is not.
pub(crate) fn is_idempotent(opcode: u8) -> bool {
    opcode == IoOpcode::Flush as u8
        || opcode == IoOpcode::Write as u8
        || opcode == IoOpcode::Read as u8
        || opcode == IoOpcode::KvPut as u8
        || opcode == IoOpcode::KvGet as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            backoff_base: Nanos::from_us(50),
            backoff_cap: Nanos::from_us(800),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(0), Nanos::from_us(50));
        assert_eq!(p.backoff(1), Nanos::from_us(100));
        assert_eq!(p.backoff(2), Nanos::from_us(200));
        assert_eq!(p.backoff(4), Nanos::from_us(800));
        assert_eq!(p.backoff(10), Nanos::from_us(800));
        // A pathological 64+ shift must not overflow.
        assert_eq!(p.backoff(u32::MAX), Nanos::from_us(800));
    }

    #[test]
    fn zero_poll_interval_is_clamped() {
        let p = RetryPolicy {
            poll_interval: Nanos::ZERO,
            ..RetryPolicy::default()
        };
        assert_eq!(p.poll_step(), Nanos::from_ns(1));
    }

    #[test]
    fn idempotence_classification() {
        assert!(is_idempotent(IoOpcode::Write as u8));
        assert!(is_idempotent(IoOpcode::Read as u8));
        assert!(is_idempotent(IoOpcode::Flush as u8));
        assert!(is_idempotent(IoOpcode::KvPut as u8));
        assert!(is_idempotent(IoOpcode::KvGet as u8));
        assert!(!is_idempotent(IoOpcode::KvDelete as u8));
        assert!(!is_idempotent(IoOpcode::CsdExec as u8));
    }

    #[test]
    fn default_timeout_exceeds_controller_stall_deadline() {
        // The recovery-ordering invariant: the controller evicts a truncated
        // train (DataTransferError CQE) before the driver's per-command
        // deadline triggers a resubmission.
        let stall_deadline = bx_ssd::ControllerConfig::default().inline_stall_deadline;
        assert!(RetryPolicy::default().timeout > stall_deadline);
    }
}
