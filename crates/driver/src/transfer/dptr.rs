//! PRP and SGL, host side: the payload, or a read's response buffer, in
//! freshly mapped host pages that the command's data pointer describes. The
//! two share the page mapping and differ only in the descriptor built and
//! the setup charged.

use super::{reserve, Claim};
use crate::driver::{DriverError, Inflight, NvmeDriver};
use crate::method::TransferMethod;
use bx_hostsim::{HostMemory, PAGE_SIZE};
use bx_nvme::sqe::DataPointerKind;
use bx_nvme::{prp, sgl, QueueId, SubmissionEntry};
use bx_ssd::Platform;

/// A write whose payload the device fetches through a PRP or SGL (`kind`)
/// data pointer: `copy_from_user` + DMA map, then the descriptor.
pub(super) fn place(
    d: &mut NvmeDriver,
    p: &mut Platform,
    qid: QueueId,
    mut sqe: SubmissionEntry,
    data: &[u8],
    kind: DataPointerKind,
    inflight: &mut Inflight,
) -> Result<(), DriverError> {
    let (method, setup) = match kind {
        DataPointerKind::Prp => (TransferMethod::Prp, d.timing.prp_setup),
        DataPointerKind::Sgl => (TransferMethod::Sgl, d.timing.sgl_setup),
    };
    reserve(d, qid, &sqe, Claim::one(method.label(), data.len()))?;
    sqe.set_data_len(data.len() as u32);
    map(d, &mut p.mem, &mut sqe, kind, data, data.len(), inflight)?;
    let pages = d.page_addrs.len() as u64;
    d.stats.pages_mapped += pages;
    d.bus.clock.advance(setup + d.timing.prp_per_page * pages);
    d.insert_and_ring(p, qid, sqe)
}

/// A read: a PRP-described response buffer of `len` bytes.
pub(super) fn place_read(
    d: &mut NvmeDriver,
    p: &mut Platform,
    qid: QueueId,
    mut sqe: SubmissionEntry,
    len: usize,
    inflight: &mut Inflight,
) -> Result<(), DriverError> {
    if len == 0 {
        return Err(DriverError::EmptyPayload);
    }
    reserve(d, qid, &sqe, Claim::one(TransferMethod::Prp.label(), len))?;
    inflight.response_len = len;
    let prp = DataPointerKind::Prp;
    map(d, &mut p.mem, &mut sqe, prp, &[], len, inflight)?;
    sqe.set_data_len(len as u32);
    d.insert_and_ring(p, qid, sqe)
}

/// Maps the pages of a `len`-byte buffer, `data` (empty for a read)
/// copied in, each recorded in `inflight` (and its address in `page_addrs`) as it is
/// allocated, and points the SQE's `kind` data pointer at them: PRP1/PRP2
/// (+ list), or a data-block descriptor per page, chained through a
/// last-segment array when more than one.
fn map(
    d: &mut NvmeDriver,
    mem: &mut HostMemory,
    sqe: &mut SubmissionEntry,
    kind: DataPointerKind,
    data: &[u8],
    len: usize,
    inflight: &mut Inflight,
) -> Result<(), DriverError> {
    d.page_addrs.clear();
    for start in (0..len).step_by(PAGE_SIZE) {
        let page = mem.alloc_page()?;
        inflight.pages.push(page);
        d.page_addrs.push(page.addr());
        if start < data.len() {
            mem.write(page.addr(), &data[start..len.min(start + PAGE_SIZE)])?;
        }
    }
    let pages = &d.page_addrs;
    if kind == DataPointerKind::Prp {
        let (prp1, prp2) = prp::describe(mem, pages, 0, len, &mut inflight.pages)?;
        sqe.set_prp1(prp1);
        sqe.set_prp2(prp2);
        return Ok(());
    }
    sqe.set_data_pointer_kind(DataPointerKind::Sgl);
    let first = if let [page] = pages[..] {
        sgl::SglDescriptor::data_block(page, len as u32)
    } else {
        // The descriptor array goes in its own page; the command carries a
        // last-segment pointer to it.
        let seg_page = mem.alloc_page()?;
        inflight.pages.push(seg_page);
        for (i, page) in pages.iter().enumerate() {
            let chunk = (len - i * PAGE_SIZE).min(PAGE_SIZE);
            let desc = sgl::SglDescriptor::data_block(*page, chunk as u32);
            mem.write(seg_page.addr().offset((i * 16) as u64), &desc.to_bytes())?;
        }
        sgl::SglDescriptor::last_segment(seg_page.addr(), (pages.len() * 16) as u32)
    };
    sqe.set_sgl_bytes(&first.to_bytes());
    Ok(())
}
