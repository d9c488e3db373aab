//! Property tests pinning the wire layout of every ring type:
//! encode→decode is the identity on arbitrary bit patterns, and the encoded
//! images have exactly the sizes the const asserts claim. A layout drift
//! that somehow slips past the const pins fails here on the first shrunk
//! counterexample.

use bx_hostsim::PhysAddr;
use bx_nvme::inline::{ChunkHeader, REASSEMBLY_HEADER_BYTES};
use bx_nvme::sgl::SglDescriptor;
use bx_nvme::sqe::DataPointerKind;
use bx_nvme::{CompletionEntry, SubmissionEntry};
use proptest::prelude::*;

proptest! {
    /// Any 64-byte image survives SQE decode→encode bit-for-bit, so every
    /// field accessor reads exactly the dwords the encoder wrote.
    #[test]
    fn sqe_wire_image_round_trip(img in proptest::array::uniform32(any::<u16>())) {
        let mut bytes = [0u8; SubmissionEntry::BYTES];
        for (i, w) in img.iter().enumerate() {
            bytes[i * 2..i * 2 + 2].copy_from_slice(&w.to_le_bytes());
        }
        let sqe = SubmissionEntry::from_bytes(&bytes);
        prop_assert_eq!(sqe.to_bytes(), bytes);
    }

    /// Each setter writes exactly its field's little-endian bytes and leaves
    /// every other byte of an arbitrary image as it was; the getter reads the
    /// value back, and the image survives `to_bytes`/`from_bytes`.
    #[test]
    fn sqe_setters_touch_only_their_bytes(
        img in proptest::array::uniform32(any::<u16>()),
        v in any::<u64>(),
        sgl_dws in proptest::array::uniform4(any::<u32>()),
    ) {
        let mut sgl = [0u8; 16];
        for (i, dw) in sgl_dws.iter().enumerate() {
            sgl[i * 4..i * 4 + 4].copy_from_slice(&dw.to_le_bytes());
        }
        let mut base = [0u8; SubmissionEntry::BYTES];
        for (i, w) in img.iter().enumerate() {
            base[i * 2..i * 2 + 2].copy_from_slice(&w.to_le_bytes());
        }
        let (v8, v16, v32) = (v as u8, v as u16, v as u32);
        type Setter = Box<dyn Fn(&mut SubmissionEntry)>;
        let mut cases: Vec<(usize, Vec<u8>, Setter)> = vec![
            (0, vec![v8], Box::new(move |e| e.set_opcode_raw(v8))),
            (2, v16.to_le_bytes().to_vec(), Box::new(move |e| e.set_cid(v16))),
            (4, v32.to_le_bytes().to_vec(), Box::new(move |e| e.set_nsid(v32))),
            (8, v32.to_le_bytes().to_vec(), Box::new(move |e| e.set_cdw2(v32))),
            (12, v32.to_le_bytes().to_vec(), Box::new(move |e| e.set_cdw3(v32))),
            (24, v.to_le_bytes().to_vec(), Box::new(move |e| e.set_prp1(PhysAddr(v)))),
            (32, v.to_le_bytes().to_vec(), Box::new(move |e| e.set_prp2(PhysAddr(v)))),
            (24, sgl.to_vec(), Box::new(move |e| e.set_sgl_bytes(&sgl))),
            (
                8,
                (v32 & 0x00FF_FFFF).to_le_bytes().to_vec(),
                Box::new(move |e| e.set_data_len(v32 & 0x00FF_FFFF)),
            ),
        ];
        for n in 10..=15usize {
            cases.push((n * 4, v32.to_le_bytes().to_vec(), Box::new(move |e| e.set_cdw(n, v32))));
        }
        for (at, field, set) in &cases {
            let mut e = SubmissionEntry::from_bytes(&base);
            set(&mut e);
            let mut want = base;
            want[*at..*at + field.len()].copy_from_slice(field);
            prop_assert_eq!(e.to_bytes(), want);
            prop_assert_eq!(e.as_bytes(), &want);
            prop_assert_eq!(SubmissionEntry::from_bytes(&e.to_bytes()), e);
        }
        // The getters read what the setters wrote.
        let mut e = SubmissionEntry::from_bytes(&base);
        e.set_cid(v16);
        e.set_nsid(v32);
        e.set_prp2(PhysAddr(v));
        e.set_cdw(10, v32);
        e.set_cdw(11, (v >> 32) as u32);
        prop_assert_eq!((e.cid(), e.nsid(), e.prp2(), e.slba()), (v16, v32, PhysAddr(v), v));
        // PSDT is bits 7:6 of byte 1; nothing else moves.
        for kind in [DataPointerKind::Sgl, DataPointerKind::Prp] {
            let mut e = SubmissionEntry::from_bytes(&base);
            e.set_data_pointer_kind(kind);
            let mut want = base;
            want[1] = (base[1] & 0x3F) | if kind == DataPointerKind::Sgl { 0x40 } else { 0 };
            prop_assert_eq!(e.to_bytes(), want);
            prop_assert_eq!(e.data_pointer_kind(), kind);
        }
    }

    /// Any 16-byte image survives CQE decode→encode bit-for-bit.
    #[test]
    fn cqe_wire_image_round_trip(img in proptest::array::uniform4(any::<u32>())) {
        let mut bytes = [0u8; CompletionEntry::BYTES];
        for (i, dw) in img.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&dw.to_le_bytes());
        }
        let cqe = CompletionEntry::from_bytes(&bytes);
        prop_assert_eq!(cqe.to_bytes(), bytes);
    }

    /// CQE field packing: every constructor input reads back unchanged after
    /// a trip through the wire image.
    #[test]
    fn cqe_fields_survive_wire(
        cid in any::<u16>(),
        sq_id in any::<u16>(),
        sq_head in any::<u16>(),
        phase in any::<bool>(),
        result in any::<u32>(),
    ) {
        let mut cqe = CompletionEntry::new(cid, sq_id, sq_head, bx_nvme::Status::Success, phase);
        cqe.set_result(result);
        let back = CompletionEntry::from_bytes(&cqe.to_bytes());
        prop_assert_eq!(back.cid(), cid);
        prop_assert_eq!(back.sq_id(), sq_id);
        prop_assert_eq!(back.sq_head(), sq_head);
        prop_assert_eq!(back.phase(), phase);
        prop_assert_eq!(back.result(), result);
        prop_assert_eq!(back.status(), bx_nvme::Status::Success);
    }

    /// Reassembly chunk headers round-trip through their 8 wire bytes.
    #[test]
    fn chunk_header_round_trip(
        payload_id in any::<u32>(),
        chunk_no in any::<u16>(),
        total in any::<u16>(),
    ) {
        let hdr = ChunkHeader { payload_id, chunk_no, total };
        let bytes = hdr.to_bytes();
        prop_assert_eq!(bytes.len(), REASSEMBLY_HEADER_BYTES);
        prop_assert_eq!(ChunkHeader::from_bytes(&bytes), hdr);
        // Little-endian field placement is part of the wire contract.
        prop_assert_eq!(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]), payload_id);
    }

    /// SGL descriptors round-trip through their 16 wire bytes for every
    /// descriptor kind the walker understands.
    #[test]
    fn sgl_descriptor_round_trip(
        addr in any::<u64>(),
        len in any::<u32>(),
        kind in 0usize..4,
    ) {
        let addr = bx_hostsim::PhysAddr(addr);
        let d = match kind {
            0 => SglDescriptor::data_block(addr, len),
            1 => SglDescriptor::bit_bucket(len),
            2 => SglDescriptor::segment(addr, len),
            _ => SglDescriptor::last_segment(addr, len),
        };
        let bytes = d.to_bytes();
        prop_assert_eq!(bytes.len(), SglDescriptor::BYTES);
        prop_assert_eq!(SglDescriptor::from_bytes(&bytes).unwrap(), d);
    }
}
