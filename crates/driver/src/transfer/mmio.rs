//! The PCIe-MMIO byte interface, host side (§3.1, 2B-SSD/ByteFS style): the
//! CPU writes the 64-byte command image and the payload straight into a
//! BAR-mapped device buffer as cacheline stores, then flushes the
//! write-combining buffer. No SQ slot, no doorbell, no SQE fetch, and no
//! NVMe completion either: the host polls a status word.

use super::{reserve, Claim};
use crate::driver::{DriverError, NvmeDriver};
use crate::method::TransferMethod;
use bx_nvme::{QueueId, SubmissionEntry, SQE_BYTES};
use bx_pcie::TrafficClass;
use bx_ssd::Platform;

/// Streams the command and payload into the BAR window. The command is
/// still owned by `qid`: its span carries the real qid, and the window entry
/// is stamped with it so the device echoes it on the status word.
pub(super) fn place(
    d: &mut NvmeDriver,
    p: &mut Platform,
    qid: QueueId,
    mut sqe: SubmissionEntry,
    data: &[u8],
) -> Result<(), DriverError> {
    let claim = Claim {
        slots: 0,
        ..Claim::one(TransferMethod::MmioByte.label(), data.len())
    };
    reserve(d, qid, &sqe, claim)?;
    sqe.set_data_len(data.len() as u32);
    let total = SQE_BYTES + data.len();
    // Traffic: one posted MMIO write per 64-byte cacheline.
    let lines = total.div_ceil(64);
    for i in 0..lines {
        let len = (total - i * 64).min(64);
        p.link.host_posted_write(TrafficClass::Mmio, len);
    }
    // Latency: the cachelines stream through the WC buffer — pay the
    // serialization once plus one propagation and the flush, not a round
    // trip per line.
    let link = p.link.config();
    let wire = link.wire_time(total + lines * 24);
    d.bus
        .clock
        .advance(wire + link.propagation + d.timing.wc_flush);
    p.mmio_window.submissions.push_back(bx_ssd::MmioSubmission {
        qid: qid.0,
        sqe,
        payload: data.to_vec(),
    });
    Ok(())
}
