//! # bx-driver — the host NVMe driver model
//!
//! The host-side half of the reproduction: queue-pair management, the
//! `nvme_queue_rq`-equivalent submit path, and one engine per transfer
//! method the paper evaluates:
//!
//! * [`TransferMethod::Prp`] — the conventional page-granular path (§2.3).
//! * [`TransferMethod::Sgl`] — scatter-gather: a byte-granular data-block
//!   descriptor per page, at every size.
//! * [`TransferMethod::BandSlim`] — the CMD-based state of the art (§3.2):
//!   payload embedded in the head command plus serialized fragment commands.
//! * [`TransferMethod::ByteExpress`] — the paper's contribution (§3.3): the
//!   payload follows the command *inside the submission queue* as 64-byte
//!   chunks, written under the SQ lock, with a single doorbell for the train.
//! * [`TransferMethod::Hybrid`] — threshold switching (§4.2): ByteExpress
//!   below the threshold, PRP above.
//!
//! Each method is one `place` in `transfer`, behind one dispatch. The
//! ByteExpress one is shaped like the paper's change (<30 LoC inside
//! `nvme_queue_rq`): mark the reserved field with the payload length, append
//! the chunks, ring the doorbell once.
//!
//! On top of the per-command engines sits doorbell coalescing
//! ([`NvmeDriver::set_staged`]): staged, SQEs and chunk trains for many
//! commands are packed back-to-back and the tail doorbell rings once per
//! [`NvmeDriver::flush_sq`], with CQ-side completion coalescing to match.
//!
//! The driver has four I/O entry points: [`NvmeDriver::submit`],
//! [`NvmeDriver::flush_sq`], [`NvmeDriver::poll_completions_into`] and
//! [`NvmeDriver::wait_for`], the one blocking wait, which loops over
//! `Controller::process_available` and the poll. Every way of driving a
//! command is those calls: `Device::{write, passthru, write_batch}` submit,
//! flush and wait; the async [`Reactor`] submits, flushes and polls from
//! [`Reactor::turn`] without blocking.

#![forbid(unsafe_code)]
// No input may panic the library, and nothing may depend on hash order: a
// site that stays carries an `#[expect]` with its reason (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]
#![warn(missing_docs)]

mod admin;
mod driver;
mod inflight;
mod method;
pub mod reactor;
mod recovery;
mod timing;
mod transfer;

pub use driver::{Completion, DriverError, DriverStats, NvmeDriver, SubmittedCmd};
pub use method::TransferMethod;
pub use reactor::{CommandFuture, Reactor, ReactorConfig, ReactorStats, ShardHandle};
pub use recovery::{CmdContext, RecoveryStats, RetryPolicy};
pub use timing::DriverTiming;
