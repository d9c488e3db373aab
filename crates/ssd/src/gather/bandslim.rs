//! BandSlim, device side (§3.2): a head command with up to
//! [`bs::HEAD_CAPACITY`] payload bytes embedded, then serialized fragment
//! commands absorbed in place until the payload is whole. Broken framing
//! (an orphan or out-of-order fragment, a head that strands the one before
//! it) fails the command it breaks.

use crate::bus::Platform;
use crate::controller::Controller;
use bx_nvme::{bandslim as bs, Status, SubmissionEntry};
use bx_trace::EventKind;

/// A head command waiting for its fragments.
pub(crate) struct Pending {
    head: SubmissionEntry,
    total: usize,
    buf: Vec<u8>,
    next_frag: u32,
}

/// Takes a head command of a `total`-byte payload: dispatches it if its
/// embedded bytes are the whole payload, otherwise holds it for its
/// fragments. A head still pending on the queue is failed first.
pub(crate) fn head(
    c: &mut Controller,
    p: &mut Platform,
    qi: usize,
    sqe: SubmissionEntry,
    total: usize,
) -> usize {
    let mut completed = 0;
    if let Some(stale) = c.queues[qi].bandslim_pending.take() {
        completed += c.fail(p, qi, stale.head.cid(), Status::InvalidField);
        c.recycle_payload(stale.buf);
    }
    // CDW3 is wire-supplied (up to 255); no head carries more than
    // `HEAD_CAPACITY` bytes.
    let embedded = bs::head_embedded(&sqe).min(total);
    if embedded > bs::HEAD_CAPACITY {
        return completed + c.fail(p, qi, sqe.cid(), Status::InvalidField);
    }
    let mut buf = c.take_scratch_payload(total);
    bs::decode_head(&sqe, embedded, &mut buf);
    c.stats.bandslim_payload_bytes += embedded as u64;
    if embedded < total {
        c.queues[qi].bandslim_pending = Some(Pending {
            head: sqe,
            total,
            buf,
            next_frag: 0,
        });
        return completed;
    }
    completed + c.dispatch_gathered(p, qi, &sqe, buf, fetched)
}

/// Consumes one fragment into the pending head's payload, in place;
/// dispatches the head when the payload is whole.
pub(crate) fn absorb(
    c: &mut Controller,
    p: &mut Platform,
    qi: usize,
    sqe: &SubmissionEntry,
) -> usize {
    c.bus.clock.advance(c.timing.bandslim_frag_decode);
    c.stats.frags_consumed += 1;
    let Some(pending) = c.queues[qi].bandslim_pending.as_mut() else {
        // Orphan fragment: fail it visibly.
        return c.fail(p, qi, sqe.cid(), Status::InvalidField);
    };
    let take = (pending.total - pending.buf.len()).min(bs::FRAG_CAPACITY);
    let frag_no = bs::decode_frag(sqe, take, &mut pending.buf);
    // Out-of-order or cross-command fragments violate the serialization
    // BandSlim requires.
    let in_order = frag_no == pending.next_frag && sqe.cid() == pending.head.cid();
    if in_order {
        pending.next_frag += 1;
        c.stats.bandslim_payload_bytes += take as u64;
    }
    // The assembly ends with its last fragment, dispatched whole, or with a
    // broken one, failed.
    let ends = |pending: &mut Pending| !in_order || pending.buf.len() == pending.total;
    let Some(pending) = c.queues[qi].bandslim_pending.take_if(ends) else {
        return 0;
    };
    if in_order {
        return c.dispatch_gathered(p, qi, &pending.head, pending.buf, fetched);
    }
    c.recycle_payload(pending.buf);
    c.fail(p, qi, pending.head.cid(), Status::InvalidField)
}

/// The trace record of a whole BandSlim payload.
fn fetched(bytes: usize) -> EventKind {
    EventKind::DataFetch {
        kind: "bandslim",
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{setup, MiniDriver};
    use bx_nvme::{bandslim, IoOpcode};
    use proptest::prelude::*;

    #[test]
    fn bandslim_head_embedding_single_cmd() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload = [3u8; 20];
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 5, 1);
        sqe.set_data_len(20);
        bandslim::encode_head(&mut sqe, &payload, bandslim::HEAD_CAPACITY);
        drv.push_raw(&sqe.to_bytes());
        drv.ring();

        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(ctrl.stats().frags_consumed, 0);
        assert_eq!(ctrl.stats().bandslim_payload_bytes, 20);
    }

    #[test]
    fn bandslim_fragmented_transfer() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
        let mut head = SubmissionEntry::io(IoOpcode::Write, 6, 1);
        head.set_data_len(128);
        let embedded = bandslim::encode_head(&mut head, &payload, bandslim::HEAD_CAPACITY);
        drv.push_raw(&head.to_bytes());
        let mut off = embedded;
        let mut frag_no = 0u32;
        while off < payload.len() {
            let take = (payload.len() - off).min(bandslim::FRAG_CAPACITY);
            let frag = bandslim::encode_frag(6, 1, frag_no, &payload[off..off + take]);
            drv.push_raw(&frag.to_bytes());
            off += take;
            frag_no += 1;
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 1, "one logical command");
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(ctrl.stats().frags_consumed, 2); // 32 + 48 + 48
        assert_eq!(ctrl.stats().bandslim_payload_bytes, 128);
    }

    #[test]
    fn orphan_fragment_fails_visibly() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);
        let frag = bandslim::encode_frag(9, 1, 0, &[1; 16]);
        drv.push_raw(&frag.to_bytes());
        drv.ring();
        ctrl.process_available();
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!(cqe.status(), Status::InvalidField);
    }

    /// A BandSlim head for `len` payload bytes whose CDW3 claims `count` of
    /// them embedded — any `count`, not only what `encode_head` would record.
    fn bandslim_head(cid: u16, len: usize, count: u32) -> SubmissionEntry {
        let mut head = SubmissionEntry::io(IoOpcode::Write, cid, 1);
        let embedded = [0x5A; bandslim::HEAD_CAPACITY];
        let embedded = &embedded[..len.min(embedded.len())];
        bandslim::encode_head(&mut head, embedded, bandslim::HEAD_CAPACITY);
        head.set_cdw2(head.cdw2() & 0xFF00_0000 | len as u32);
        head.set_cdw3(count);
        head
    }

    #[test]
    fn bandslim_head_with_oversized_embed_count_fails_visibly() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        drv.push_raw(&bandslim_head(5, 300, 200).to_bytes());
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!((cqe.cid(), cqe.status()), (5, Status::InvalidField));
        assert!(drv.pop_cqe().is_none());

        // The controller still serves the next command.
        drv.push_raw(&bandslim_head(6, 20, 20).to_bytes());
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!((cqe.cid(), cqe.status()), (6, Status::Success));
    }

    /// One raw BandSlim SQ entry with wire-supplied framing fields.
    #[derive(Debug, Clone)]
    enum BandSlimEntry {
        Head { cid: u16, len: usize, count: u32 },
        Frag { cid: u16, frag_no: u32 },
    }

    fn bandslim_entry() -> impl Strategy<Value = BandSlimEntry> {
        // Few cids and small fragment numbers, so fragments do hit the
        // pending head in order; the wide arms are the hostile field values.
        let len = prop_oneof![8 => 0..400usize, 1 => Just(0x00FF_FFFF)];
        let count = prop_oneof![4 => 0..=40u32, 1 => any::<u32>()];
        let frag_no = prop_oneof![6 => 0..4u32, 1 => any::<u32>()];
        prop_oneof![
            2 => (0..4u16, len, count)
                .prop_map(|(cid, len, count)| BandSlimEntry::Head { cid, len, count }),
            3 => (0..4u16, frag_no).prop_map(|(cid, frag_no)| BandSlimEntry::Frag { cid, frag_no }),
        ]
    }

    /// What the controller owes the host for a stream of BandSlim entries:
    /// the `(cid, status)` of every CQE, in order. `pending` is the head
    /// still waiting for fragments: `(cid, total, received, next fragment)`.
    #[derive(Default)]
    struct BandSlimModel {
        pending: Option<(u16, usize, usize, u32)>,
        cqes: Vec<(u16, Status)>,
    }

    impl BandSlimModel {
        fn dispatch(&mut self, cid: u16, total: usize) {
            // BlockFirmware, NAND off: a write lands unless it is empty.
            let status = if total == 0 {
                Status::InvalidField
            } else {
                Status::Success
            };
            self.cqes.push((cid, status));
        }

        fn feed(&mut self, entry: &BandSlimEntry) {
            match *entry {
                BandSlimEntry::Head { cid, len, count } => {
                    if let Some((stale, ..)) = self.pending.take() {
                        self.cqes.push((stale, Status::InvalidField));
                    }
                    let embedded = ((count & 0xFF) as usize).min(len);
                    if embedded > bandslim::HEAD_CAPACITY {
                        self.cqes.push((cid, Status::InvalidField));
                    } else if embedded == len {
                        self.dispatch(cid, len);
                    } else {
                        self.pending = Some((cid, len, embedded, 0));
                    }
                }
                BandSlimEntry::Frag { cid, frag_no } => match self.pending.take() {
                    None => self.cqes.push((cid, Status::InvalidField)),
                    Some((head, _, _, next)) if (cid, frag_no) != (head, next) => {
                        self.cqes.push((head, Status::InvalidField));
                    }
                    Some((head, total, received, next)) => {
                        let received = received + (total - received).min(bandslim::FRAG_CAPACITY);
                        if received == total {
                            self.dispatch(head, total);
                        } else {
                            self.pending = Some((head, total, received, next + 1));
                        }
                    }
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Wire-supplied BandSlim framing — any CDW2 length, CDW3 count or
        /// fragment number, any cid, with and without a head pending, in and
        /// out of order — never panics the controller: every head is
        /// answered exactly once, nothing else is except an orphan fragment,
        /// and a well-formed command after the garbage still succeeds.
        #[test]
        fn hostile_bandslim_framing_never_panics(
            garbage in proptest::collection::vec(bandslim_entry(), 1..60),
        ) {
            let (bus, mut ctrl) = setup(false);
            let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);
            let mut model = BandSlimModel::default();
            // A 128-byte write: 32 bytes in the head, 48 in each fragment.
            let well_formed = [
                BandSlimEntry::Head { cid: 9, len: 128, count: 32 },
                BandSlimEntry::Frag { cid: 9, frag_no: 0 },
                BandSlimEntry::Frag { cid: 9, frag_no: 1 },
            ];
            let mut cqes = Vec::new();
            for entry in garbage.iter().chain(&well_formed) {
                let sqe = match *entry {
                    BandSlimEntry::Head { cid, len, count } => bandslim_head(cid, len, count),
                    BandSlimEntry::Frag { cid, frag_no } => {
                        bandslim::encode_frag(cid, 1, frag_no, &[0xA5; bandslim::FRAG_CAPACITY])
                    }
                };
                drv.push_raw(&sqe.to_bytes());
                drv.ring();
                let posted = ctrl.process_available();
                let before = cqes.len();
                while let Some(cqe) = drv.pop_cqe() {
                    cqes.push((cqe.cid(), cqe.status()));
                }
                prop_assert_eq!(posted, cqes.len() - before);
                model.feed(entry);
            }
            prop_assert_eq!(cqes.last(), Some(&(9, Status::Success)));
            prop_assert_eq!(cqes, model.cqes);
        }
    }
}
