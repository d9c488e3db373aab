//! The transfer methods, host side: one `place` per method behind the one
//! dispatch, [`place`]. A method places the command with its data phase, or
//! refuses it through [`reserve`] having mapped, charged and traced nothing.

mod bandslim;
mod byteexpress;
mod dptr;
mod mmio;

use crate::driver::{DriverError, Inflight, NvmeDriver};
use crate::method::TransferMethod;
use bx_nvme::passthru::DataDirection;
use bx_nvme::sqe::DataPointerKind;
use bx_nvme::{inline, PassthruCmd, QueueId, SubmissionEntry};
use bx_ssd::Platform;
use bx_trace::{CmdKey, EventKind};

/// Places `cmd`, whose base entry is `sqe`, on `qid`, `method` moving its
/// payload. Pages it maps are recorded in `inflight` as they are allocated,
/// so the caller can free them on error.
pub(crate) fn place(
    d: &mut NvmeDriver,
    p: &mut Platform,
    qid: QueueId,
    sqe: SubmissionEntry,
    cmd: &PassthruCmd,
    method: TransferMethod,
    inflight: &mut Inflight,
) -> Result<(), DriverError> {
    let data = &cmd.data[..];
    match cmd.direction {
        // Reads return over a PRP-described host buffer whatever the method:
        // ByteExpress targets host→device payloads.
        DataDirection::FromDevice => {
            return dptr::place_read(d, p, qid, sqe, cmd.response_len, inflight)
        }
        DataDirection::None => {
            reserve(d, qid, &sqe, Claim::one("none", 0))?;
            return d.insert_and_ring(p, qid, sqe);
        }
        DataDirection::ToDevice if data.is_empty() => return Err(DriverError::EmptyPayload),
        DataDirection::ToDevice => {}
    }
    match method {
        TransferMethod::Prp => dptr::place(d, p, qid, sqe, data, DataPointerKind::Prp, inflight),
        TransferMethod::Sgl => dptr::place(d, p, qid, sqe, data, DataPointerKind::Sgl, inflight),
        TransferMethod::ByteExpress => byteexpress::place(d, p, qid, sqe, data),
        TransferMethod::BandSlim { embed_first } => {
            bandslim::place(d, p, qid, sqe, data, embed_first)
        }
        TransferMethod::MmioByte => mmio::place(d, p, qid, sqe, data),
        TransferMethod::Hybrid { .. } => {
            place(d, p, qid, sqe, cmd, method.resolve(data.len()), inflight)
        }
    }
}

/// One command's claim on its submission ring: `slots` entries, the first
/// carrying up to `head` payload bytes and each after it up to `per_slot`.
/// `label` and `len` open the command's span.
struct Claim {
    label: &'static str,
    len: usize,
    slots: usize,
    head: usize,
    per_slot: usize,
}

impl Claim {
    /// One ring entry, whatever the payload.
    fn one(label: &'static str, len: usize) -> Self {
        Claim {
            label,
            len,
            slots: 1,
            head: 0,
            per_slot: 0,
        }
    }
}

/// The one check a method makes before it maps a page, charges the clock
/// or emits an event: `claim` fits `qid`'s ring now. Then it opens the
/// command's span with its `SqeInsert`. Refuses a length the SQE's 24-bit
/// field cannot carry or a claim no ring of this depth can hold
/// ([`DriverError::PayloadTooLarge`], with the largest length either can),
/// and a claim this ring cannot hold yet ([`DriverError::QueueFull`]).
fn reserve(
    d: &NvmeDriver,
    qid: QueueId,
    sqe: &SubmissionEntry,
    claim: Claim,
) -> Result<(), DriverError> {
    let sq = &d.queue(qid).ok_or(DriverError::UnknownQueue(qid))?.sq;
    let too_large = |max| DriverError::PayloadTooLarge {
        len: claim.len,
        max,
    };
    if claim.len > inline::MAX_INLINE_LEN {
        return Err(too_large(inline::MAX_INLINE_LEN));
    }
    // Sized in `usize`: a train of 65 536 entries or more must be refused
    // here, not wrap to a small slot count.
    let depth_limit = usize::from(sq.depth() - 1);
    if claim.slots > depth_limit {
        return Err(too_large((depth_limit - 1) * claim.per_slot + claim.head));
    }
    let needed = claim.slots as u16;
    if !sq.can_push(needed) {
        return Err(DriverError::QueueFull {
            needed,
            free: sq.free_slots(),
        });
    }
    d.bus
        .trace
        .emit_cmd(CmdKey::new(qid.0, sqe.cid()), || EventKind::SqeInsert {
            method: claim.label,
            opcode: sqe.opcode_raw(),
            len: claim.len,
        });
    Ok(())
}
