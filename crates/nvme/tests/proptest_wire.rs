//! Property tests pinning the wire layout of every ring type:
//! encode→decode is the identity on arbitrary bit patterns, and the encoded
//! images have exactly the sizes the const asserts claim. A layout drift
//! that somehow slips past the const pins fails here on the first shrunk
//! counterexample.

use bx_nvme::inline::{ChunkHeader, REASSEMBLY_HEADER_BYTES};
use bx_nvme::sgl::SglDescriptor;
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
