//! Property-based tests over the NVMe protocol codecs.

use bx_hostsim::{HostMemory, PhysAddr, PAGE_SIZE};
use bx_nvme::prp::{pages_spanned, walk, PrpSegments};
use bx_nvme::{inline, CompletionEntry, Status, SubmissionEntry, STATUS_DNR_BIT};
use proptest::prelude::*;

proptest! {
    /// Any 64-byte image decodes and re-encodes to itself: the SQE codec is a
    /// bijection on wire images.
    #[test]
    fn sqe_wire_bijection(bytes in proptest::array::uniform32(any::<u8>())) {
        // Build a full 64-byte image from two 32-byte halves.
        let mut full = [0u8; 64];
        full[..32].copy_from_slice(&bytes);
        full[32..].copy_from_slice(&bytes);
        let sqe = SubmissionEntry::from_bytes(&full);
        prop_assert_eq!(sqe.to_bytes(), full);
    }

    /// Field setters never disturb other fields.
    #[test]
    fn sqe_field_independence(cid in any::<u16>(), nsid in any::<u32>(), len in 1usize..inline::MAX_INLINE_LEN) {
        let mut sqe = SubmissionEntry::zeroed();
        sqe.set_opcode_raw(0xC1);
        sqe.set_cid(cid);
        sqe.set_nsid(nsid);
        inline::set_inline_len(&mut sqe, len);
        sqe.set_prp1(PhysAddr(0xAAAA_0000));
        prop_assert_eq!(sqe.cid(), cid);
        prop_assert_eq!(sqe.nsid(), nsid);
        prop_assert_eq!(inline::inline_len(&sqe), Some(len));
        prop_assert_eq!(sqe.opcode_raw(), 0xC1);
    }

    /// CQE round-trips all fields through the 16-byte image.
    #[test]
    fn cqe_round_trip(cid in any::<u16>(), sqid in any::<u16>(), head in any::<u16>(), phase in any::<bool>(), result in any::<u32>()) {
        let mut cqe = CompletionEntry::new(cid, sqid, head, Status::Success, phase);
        cqe.set_result(result);
        let back = CompletionEntry::from_bytes(&cqe.to_bytes());
        prop_assert_eq!(back.cid(), cid);
        prop_assert_eq!(back.sq_id(), sqid);
        prop_assert_eq!(back.sq_head(), head);
        prop_assert_eq!(back.phase(), phase);
        prop_assert_eq!(back.result(), result);
    }

    /// Inline chunk encode/decode is the identity for any payload.
    #[test]
    fn chunk_codec_identity(payload in proptest::collection::vec(any::<u8>(), 1..5000)) {
        let chunks = inline::encode_chunks(&payload);
        prop_assert_eq!(chunks.len(), inline::chunks_for_len(payload.len()));
        prop_assert_eq!(inline::decode_chunks(&chunks, payload.len()), payload);
    }

    /// Reassembly-mode chunks reconstruct the payload from any arrival order.
    #[test]
    fn reassembly_any_order(payload in proptest::collection::vec(any::<u8>(), 1..2000), seed in any::<u64>()) {
        let chunks = inline::encode_reassembly_chunks(7, &payload);
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        // Deterministic shuffle from the seed.
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut out = vec![0u8; payload.len()];
        for &i in &order {
            let (hdr, data) = inline::split_reassembly_chunk(&chunks[i]);
            let off = hdr.chunk_no as usize * inline::REASSEMBLY_CHUNK_PAYLOAD;
            let take = (payload.len() - off).min(inline::REASSEMBLY_CHUNK_PAYLOAD);
            out[off..off + take].copy_from_slice(&data[..take]);
        }
        prop_assert_eq!(out, payload);
    }

    /// PRP build→walk covers exactly the payload bytes for arbitrary
    /// offset/length combinations.
    #[test]
    fn prp_build_walk_exact_cover(offset in 0usize..PAGE_SIZE, len in 1usize..(20 * PAGE_SIZE)) {
        let mut mem = HostMemory::with_capacity(64 * PAGE_SIZE);
        let need = pages_spanned(offset, len);
        prop_assume!(need <= 24);
        let pages: Vec<PhysAddr> = (0..need).map(|_| mem.alloc_page().unwrap().addr()).collect();
        let prp = PrpSegments::build(&mut mem, &pages, offset, len).unwrap();
        let mut segs = Vec::new();
        walk(&mem, prp.prp1, prp.prp2, len, |_, _| {}, |seg| segs.push(seg)).unwrap();
        // Exact coverage, in order, no overlaps.
        let total: usize = segs.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, len);
        prop_assert_eq!(segs[0].addr.page_offset(), offset);
        for (i, seg) in segs.iter().enumerate() {
            prop_assert_eq!(seg.addr.page_base(), pages[i]);
            if i > 0 {
                prop_assert!(seg.addr.is_page_aligned());
            }
        }
    }

    /// Status wire codec: decoding an encoding is the identity.
    #[test]
    fn status_wire_stable(code in 0u16..0x7FFF) {
        let s = Status::from_wire(code);
        prop_assert_eq!(Status::from_wire(s.to_wire()), s);
    }

    /// Encode→decode is the identity on every 15-bit wire code — unknown
    /// and vendor codes survive verbatim through `Status::Unknown` instead
    /// of collapsing to a catch-all.
    #[test]
    fn status_roundtrip_preserves_every_wire_code(code in 0u16..0x8000) {
        prop_assert_eq!(Status::from_wire(code).to_wire(), code);
    }

    /// A wire code that decodes to `Unknown` with the DNR (do-not-retry)
    /// bit set must never be classified retriable.
    #[test]
    fn unknown_with_dnr_is_never_retriable(code in 0u16..0x8000) {
        let s = Status::from_wire(code | STATUS_DNR_BIT);
        if matches!(s, Status::Unknown(_)) {
            prop_assert!(!s.is_retriable());
        }
    }
}
