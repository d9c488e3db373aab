//! BandSlim, host side (§3.2): the payload embedded in the head command and
//! a serialized train of fragment commands, each with its own doorbell.

use super::{reserve, Claim};
use crate::driver::{DriverError, NvmeDriver};
use crate::method::TransferMethod;
use bx_nvme::{bandslim, QueueId, SubmissionEntry};
use bx_ssd::Platform;

/// Places the head command (with up to [`bandslim::HEAD_CAPACITY`] payload
/// bytes when `embed_first`) and then each fragment.
pub(super) fn place(
    d: &mut NvmeDriver,
    p: &mut Platform,
    qid: QueueId,
    mut sqe: SubmissionEntry,
    data: &[u8],
    embed_first: bool,
) -> Result<(), DriverError> {
    let head = if embed_first {
        bandslim::HEAD_CAPACITY
    } else {
        0
    };
    let claim = Claim {
        label: TransferMethod::BandSlim { embed_first }.label(),
        len: data.len(),
        slots: bandslim::commands_for_len(data.len(), head),
        head,
        per_slot: bandslim::FRAG_CAPACITY,
    };
    reserve(d, qid, &sqe, claim)?;
    let embedded = bandslim::encode_head(&mut sqe, data, head);
    let (cid, nsid) = (sqe.cid(), sqe.nsid());
    d.insert_and_ring(p, qid, sqe)?;
    for (frag_no, frag) in data[embedded..].chunks(bandslim::FRAG_CAPACITY).enumerate() {
        let frag = bandslim::encode_frag(cid, nsid, frag_no as u32, frag);
        d.bus.clock.advance(d.timing.bandslim_frag_build);
        d.insert_and_ring(p, qid, frag)?;
        d.stats.frags_issued += 1;
    }
    Ok(())
}
