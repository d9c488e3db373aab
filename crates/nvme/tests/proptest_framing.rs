//! Property tests over the transfer-framing codecs: BandSlim head/fragment
//! packing and SGL descriptor chains.

use bx_hostsim::{HostMemory, PhysAddr, PAGE_SIZE};
use bx_nvme::sgl::{walk as sgl_walk, SglDescriptor};
use bx_nvme::{bandslim, IoOpcode, SubmissionEntry};
use proptest::prelude::*;

proptest! {
    /// The BandSlim head + fragment train reconstructs any payload, at any
    /// head-embedding capacity.
    #[test]
    fn bandslim_framing_round_trip(
        payload in proptest::collection::vec(any::<u8>(), 1..2000),
        embed_cap in 0usize..=bandslim::HEAD_CAPACITY,
    ) {
        let mut head = SubmissionEntry::io(IoOpcode::KvPut, 7, 1);
        let embedded = bandslim::encode_head(&mut head, &payload, embed_cap);
        prop_assert_eq!(embedded, payload.len().min(embed_cap));
        prop_assert_eq!(bandslim::head_len(&head), Some(payload.len()));
        prop_assert_eq!(bandslim::head_embedded(&head), embedded);

        // Controller-side reconstruction: head prefix + fragments.
        let mut out = Vec::new();
        bandslim::decode_head(&head, embedded, &mut out);
        let mut off = embedded;
        let mut frag_no = 0u32;
        while off < payload.len() {
            let take = (payload.len() - off).min(bandslim::FRAG_CAPACITY);
            let frag = bandslim::encode_frag(7, 1, frag_no, &payload[off..off + take]);
            prop_assert!(bandslim::is_frag(&frag));
            // Survive the wire.
            let frag = SubmissionEntry::from_bytes(&frag.to_bytes());
            prop_assert_eq!(bandslim::decode_frag(&frag, take, &mut out), frag_no);
            off += take;
            frag_no += 1;
        }
        prop_assert_eq!(
            1 + frag_no as usize,
            bandslim::commands_for_len(payload.len(), embed_cap)
        );
        prop_assert_eq!(out, payload);
    }

    /// Head embedding never corrupts the command's key/opcode fields.
    #[test]
    fn bandslim_head_preserves_command_fields(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        key in proptest::array::uniform4(any::<u32>()),
        cid in any::<u16>(),
    ) {
        let mut sqe = SubmissionEntry::io(IoOpcode::KvPut, cid, 1);
        for (i, k) in key.iter().enumerate() {
            sqe.set_cdw(10 + i, *k);
        }
        bandslim::encode_head(&mut sqe, &payload, bandslim::HEAD_CAPACITY);
        prop_assert_eq!(sqe.opcode_raw(), IoOpcode::KvPut as u8);
        prop_assert_eq!(sqe.cid(), cid);
        for (i, k) in key.iter().enumerate() {
            prop_assert_eq!(sqe.cdw(10 + i), *k);
        }
    }

    /// A multi-extent SGL chain walks back exactly the extents written.
    #[test]
    fn sgl_chain_walk_exact(
        lens in proptest::collection::vec(1u32..5000, 1..20),
    ) {
        let mut mem = HostMemory::with_capacity(64 * PAGE_SIZE);
        // Descriptor array at a fixed page; data addresses synthetic.
        let seg_page = mem.alloc_page().unwrap().addr();
        let mut expected = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let addr = PhysAddr(0x10_0000 + (i as u64) * 0x1_0000);
            let d = SglDescriptor::data_block(addr, len);
            mem.write(seg_page.offset((i * 16) as u64), &d.to_bytes()).unwrap();
            expected.push((Some(addr), len as usize));
        }
        let total: usize = lens.iter().map(|&l| l as usize).sum();
        let first = SglDescriptor::last_segment(seg_page, (lens.len() * 16) as u32);
        let mut got = Vec::new();
        sgl_walk(&mem, first, total, |_, _| {}, |e| got.push((e.addr, e.len))).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// SGL length accounting: a wrong expected length is always rejected.
    #[test]
    fn sgl_length_mismatch_always_detected(len in 1u32..10000, delta in 1usize..100) {
        let mem = HostMemory::with_capacity(PAGE_SIZE);
        let d = SglDescriptor::data_block(PhysAddr(64), len);
        let over = sgl_walk(&mem, d, len as usize + delta, |_, _| {}, |_| {}).is_err();
        prop_assert!(over);
        let short_len = (len as usize).saturating_sub(delta);
        let under = sgl_walk(&mem, d, short_len, |_, _| {}, |_| {}).is_err();
        prop_assert!(under, "walk accepted a short length");
    }
}
