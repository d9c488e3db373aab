//! PRP and SGL, device side: the data pointer walked into extents of the
//! host buffer, the payload copied in from them. The two kinds differ only
//! in their walk and in what [`Kind`] fixes. A read's response goes back
//! over the same walk.

use crate::bus::Platform;
use crate::controller::{Controller, ControllerStats};
use bx_hostsim::PAGE_SIZE;
use bx_nvme::sgl::{self, SglExtent as Extent};
use bx_nvme::sqe::DataPointerKind;
use bx_nvme::{prp, SubmissionEntry};
use bx_pcie::TrafficClass;
use bx_trace::EventKind;

/// What a data-pointer kind fixes for its data: its trace label, the link
/// class of its reads, whether the wire moves whole pages, and the counter
/// of the payload bytes it delivered.
struct Kind {
    label: &'static str,
    data: TrafficClass,
    page_granular: bool,
    delivered: fn(&mut ControllerStats) -> &mut u64,
}

/// PRP: page-granular on the wire, the device fetching whole pages even
/// for sub-page payloads (§2.3, Fig 1).
static PRP: Kind = Kind {
    label: "prp",
    data: TrafficClass::PrpData,
    page_granular: true,
    delivered: |stats| &mut stats.prp_payload_bytes,
};

/// SGL: byte-granular.
static SGL: Kind = Kind {
    label: "sgl",
    data: TrafficClass::SglData,
    page_granular: false,
    delivered: |stats| &mut stats.sgl_payload_bytes,
};

/// Gathers the payload the command's data pointer describes into the
/// staging buffer and dispatches the command. One whose pointer cannot be
/// walked, or that moves no bytes, dispatches without a payload.
pub(crate) fn gather(
    c: &mut Controller,
    p: &mut Platform,
    qi: usize,
    sqe: SubmissionEntry,
) -> usize {
    let len = sqe.data_len() as usize;
    if len == 0 {
        return c.dispatch_and_complete(p, qi, &sqe, None);
    }
    c.bus.clock.advance(c.timing.prp_setup);
    let mut payload = c.take_scratch_payload(len);
    let mut extents = std::mem::take(&mut c.scratch_extents);
    let copied = copy_in(p, &sqe, len, &mut extents, &mut payload);
    c.scratch_extents = extents;
    let Some(kind) = copied else {
        c.recycle_payload(payload);
        return c.dispatch_and_complete(p, qi, &sqe, None);
    };
    *(kind.delivered)(&mut c.stats) += payload.len() as u64;
    c.dispatch_gathered(p, qi, &sqe, payload, |bytes| EventKind::DataFetch {
        kind: kind.label,
        bytes,
    })
}

/// Walks the command's data pointer into `extents`, then copies what they
/// describe into `payload`, charging the link for every read.
fn copy_in(
    p: &mut Platform,
    sqe: &SubmissionEntry,
    len: usize,
    extents: &mut Vec<Extent>,
    payload: &mut Vec<u8>,
) -> Option<&'static Kind> {
    let kind = walk(p, sqe, len, extents)?;
    for extent in extents.iter() {
        // A page-granular wire moves whole pages however few bytes the host
        // cares about (the paper's Fig 1 amplification): the pages are
        // charged, the segment's bytes copied.
        let wire_len = if kind.page_granular {
            extent.len.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE
        } else {
            extent.len
        };
        p.clock.advance(p.link.device_read(kind.data, wire_len));
        match extent.addr {
            Some(addr) => payload.extend_from_slice(p.mem.slice(addr, extent.len).ok()?),
            None => payload.resize(payload.len() + extent.len, 0),
        }
    }
    Some(kind)
}

/// Walks `sqe`'s data pointer over a `len`-byte host buffer into
/// `extents`, charging each descriptor fetch to the link. The one lookup of
/// the pointer's kind: returns what it fixes for the data.
fn walk(
    p: &mut Platform,
    sqe: &SubmissionEntry,
    len: usize,
    extents: &mut Vec<Extent>,
) -> Option<&'static Kind> {
    // The walk reads host memory while its descriptor fetches charge the
    // link, so it borrows the two apart.
    let Platform {
        mem, link, clock, ..
    } = p;
    extents.clear();
    Some(match sqe.data_pointer_kind() {
        DataPointerKind::Prp => {
            let segment = |seg: prp::PrpSegment| {
                extents.push(Extent {
                    addr: Some(seg.addr),
                    len: seg.len,
                })
            };
            let fetched = |_, n| {
                clock.advance(link.device_read(TrafficClass::PrpList, n));
            };
            prp::walk(mem, sqe.prp1(), sqe.prp2(), len, fetched, segment).ok()?;
            &PRP
        }
        DataPointerKind::Sgl => {
            let first = sgl::SglDescriptor::from_bytes(&sqe.sgl_bytes()).ok()?;
            let fetched = |_, n| {
                clock.advance(link.device_read(TrafficClass::SglDescriptor, n));
            };
            sgl::walk(mem, first, len, fetched, |e| extents.push(e)).ok()?;
            &SGL
        }
    })
}

/// DMAs a read's `response` into the host buffer the command's data
/// pointer describes.
pub(crate) fn dma_response(
    c: &mut Controller,
    p: &mut Platform,
    sqe: &SubmissionEntry,
    response: &[u8],
) {
    // The data pointer describes the *host buffer* the command allotted
    // (`data_len`); interpreting PRP2 depends on that length, not on how
    // many bytes the firmware actually returned. Walk the full buffer, then
    // write only the response bytes into its leading segments.
    let buffer_len = (sqe.data_len() as usize).max(response.len());
    let mut segments = std::mem::take(&mut c.scratch_extents);
    if walk(p, sqe, buffer_len, &mut segments).is_some() {
        let mut rest = response;
        for seg in &segments {
            // An SGL bit bucket takes nothing.
            let Some(addr) = seg.addr else { continue };
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(seg.len.min(rest.len()));
            #[expect(
                clippy::expect_used,
                reason = "segment extents were validated by the walk that produced them"
            )]
            p.mem.write(addr, chunk).expect("response buffer in bounds");
            let t = p
                .link
                .device_posted_write(TrafficClass::DeviceToHostData, chunk.len());
            p.clock.advance(t);
            rest = tail;
        }
    }
    c.scratch_extents = segments;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{setup, MiniDriver};
    use bx_nvme::IoOpcode;

    #[test]
    fn prp_write_moves_whole_page_traffic() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        bus.platform()
            .borrow_mut()
            .mem
            .write(page, &[9u8; 32])
            .unwrap();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        sqe.set_data_len(32);
        sqe.set_prp1(page);
        drv.push_raw(&sqe.to_bytes());
        drv.ring();

        let before = bus.traffic();
        ctrl.process_available();
        let delta = bus.traffic().since(&before);
        // 32 payload bytes cost a whole page of PRP traffic: >130x (Fig 1c).
        let amp = delta.total_bytes() as f64 / 32.0;
        assert!(amp > 130.0, "amplification {amp}");
        assert_eq!(delta.class(TrafficClass::PrpData).payload_bytes, 4096);
    }
}
