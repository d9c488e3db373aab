//! ByteExpress framing: the reserved-field length encoding and 64-byte chunk
//! codec.
//!
//! This module is the protocol heart of the paper (§3.3). Two framing modes
//! are provided:
//!
//! * **Queue-local mode** (the paper's implemented design): chunks are raw
//!   64-byte slices of the payload placed in consecutive SQ slots after the
//!   command. The SQE's reserved CDW2 carries the payload length (tagged with
//!   a magic byte so ordinary commands, whose CDW2 is zero, are unaffected);
//!   ordering is guaranteed by the SQ lock on the host and queue-local
//!   fetching on the device.
//! * **Reassembly mode** (the paper's §3.3.2 future-work extension): each
//!   chunk carries an 8-byte [`ChunkHeader`] (payload id, chunk number, total
//!   count) + 56 payload bytes, allowing the controller to accept chunks
//!   out of order and across queues, placing each directly at its DRAM offset.

use crate::sqe::SubmissionEntry;

/// Size of one inline chunk — one SQ entry.
pub const BYTEEXPRESS_CHUNK_SIZE: usize = 64;

/// Header bytes per chunk in reassembly mode.
pub const REASSEMBLY_HEADER_BYTES: usize = 8;

/// Payload bytes per chunk in reassembly mode.
pub const REASSEMBLY_CHUNK_PAYLOAD: usize = BYTEEXPRESS_CHUNK_SIZE - REASSEMBLY_HEADER_BYTES;

// Wire-layout pins: a chunk fills exactly one 64-byte SQ slot, and the
// reassembly header + payload partition it with no slack.
const _: () = assert!(BYTEEXPRESS_CHUNK_SIZE == 64);
const _: () = assert!(REASSEMBLY_HEADER_BYTES + REASSEMBLY_CHUNK_PAYLOAD == BYTEEXPRESS_CHUNK_SIZE);
const _: () = assert!(core::mem::size_of::<ChunkHeader>() == 8 && REASSEMBLY_HEADER_BYTES == 8);

/// Magic tag in the top byte of CDW2 marking a ByteExpress command. Ordinary
/// NVM commands leave the reserved dword zero, so the tag cannot collide.
const INLINE_MAGIC: u32 = 0xBE;

/// Maximum payload length expressible in the 24-bit length field.
pub const MAX_INLINE_LEN: usize = (1 << 24) - 1;

/// Marks `sqe` as a ByteExpress command carrying `len` inline payload bytes.
///
/// This is the driver-side half of the paper's "repurpose a reserved field"
/// step: the length is written into CDW2 (reserved in NVM I/O commands).
///
/// # Panics
///
/// Panics if `len` is zero or exceeds [`MAX_INLINE_LEN`].
pub fn set_inline_len(sqe: &mut SubmissionEntry, len: usize) {
    assert!(len > 0, "inline payload cannot be empty");
    assert!(len <= MAX_INLINE_LEN, "inline payload too large: {len}");
    sqe.set_cdw2((INLINE_MAGIC << 24) | len as u32);
}

/// Reads the inline payload length, if `sqe` uses ByteExpress semantics.
///
/// Returns `None` for ordinary commands (CDW2 untagged), which is how the
/// controller decides between the PRP path and the inline-chunk path.
pub fn inline_len(sqe: &SubmissionEntry) -> Option<usize> {
    let v = sqe.cdw2();
    if v >> 24 == INLINE_MAGIC {
        let len = (v & 0x00FF_FFFF) as usize;
        (len > 0).then_some(len)
    } else {
        None
    }
}

/// Number of 64-byte SQ slots needed for `len` payload bytes in queue-local
/// mode.
pub fn chunks_for_len(len: usize) -> usize {
    len.div_ceil(BYTEEXPRESS_CHUNK_SIZE)
}

/// Number of SQ slots needed in reassembly mode (56 payload bytes per chunk).
pub fn chunks_for_len_reassembly(len: usize) -> usize {
    len.div_ceil(REASSEMBLY_CHUNK_PAYLOAD)
}

/// Writes reassembly-mode chunk `chunk_no` of `payload` (header + up to 56
/// payload bytes, zero-padded) into `out`. Returns the number of payload
/// bytes placed. The allocation-free counterpart of
/// [`encode_reassembly_chunks`].
///
/// # Panics
///
/// Panics if the payload needs more than `u16::MAX` chunks or `chunk_no` is
/// out of range.
pub fn encode_reassembly_chunk_into(
    payload_id: u32,
    payload: &[u8],
    chunk_no: usize,
    out: &mut [u8; BYTEEXPRESS_CHUNK_SIZE],
) -> usize {
    let total = chunks_for_len_reassembly(payload.len());
    assert!(total <= u16::MAX as usize, "payload needs too many chunks");
    let off = chunk_no * REASSEMBLY_CHUNK_PAYLOAD;
    assert!(
        off < payload.len() || (payload.is_empty() && chunk_no == 0),
        "chunk {chunk_no} out of range for {} payload bytes",
        payload.len()
    );
    let hdr = ChunkHeader {
        payload_id,
        chunk_no: chunk_no as u16,
        total: total as u16,
    };
    out[..REASSEMBLY_HEADER_BYTES].copy_from_slice(&hdr.to_bytes());
    let take = (payload.len() - off).min(REASSEMBLY_CHUNK_PAYLOAD);
    out[REASSEMBLY_HEADER_BYTES..REASSEMBLY_HEADER_BYTES + take]
        .copy_from_slice(&payload[off..off + take]);
    out[REASSEMBLY_HEADER_BYTES + take..].fill(0);
    take
}

/// Splits `payload` into 64-byte queue-local chunks, zero-padding the last.
pub fn encode_chunks(payload: &[u8]) -> Vec<[u8; BYTEEXPRESS_CHUNK_SIZE]> {
    payload
        .chunks(BYTEEXPRESS_CHUNK_SIZE)
        .map(|c| {
            let mut out = [0u8; BYTEEXPRESS_CHUNK_SIZE];
            out[..c.len()].copy_from_slice(c);
            out
        })
        .collect()
}

/// Reconstructs a payload of `len` bytes from queue-local chunks.
///
/// # Panics
///
/// Panics if the chunk train is shorter than `len` requires.
pub fn decode_chunks(chunks: &[[u8; BYTEEXPRESS_CHUNK_SIZE]], len: usize) -> Vec<u8> {
    assert!(
        chunks.len() >= chunks_for_len(len),
        "chunk train too short: {} chunks for {len} bytes",
        chunks.len()
    );
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        let take = (len - out.len()).min(BYTEEXPRESS_CHUNK_SIZE);
        out.extend_from_slice(&c[..take]);
        if out.len() == len {
            break;
        }
    }
    out
}

/// Per-chunk metadata for the out-of-order reassembly extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkHeader {
    /// Identifies which in-flight payload this chunk belongs to.
    pub payload_id: u32,
    /// Zero-based chunk index.
    pub chunk_no: u16,
    /// Total number of chunks in the payload.
    pub total: u16,
}

impl ChunkHeader {
    /// Encodes into the 8 header bytes.
    pub fn to_bytes(self) -> [u8; REASSEMBLY_HEADER_BYTES] {
        let mut out = [0u8; REASSEMBLY_HEADER_BYTES];
        out[0..4].copy_from_slice(&self.payload_id.to_le_bytes());
        out[4..6].copy_from_slice(&self.chunk_no.to_le_bytes());
        out[6..8].copy_from_slice(&self.total.to_le_bytes());
        out
    }

    /// Decodes from the 8 header bytes.
    pub fn from_bytes(b: &[u8; REASSEMBLY_HEADER_BYTES]) -> Self {
        ChunkHeader {
            payload_id: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            chunk_no: u16::from_le_bytes([b[4], b[5]]),
            total: u16::from_le_bytes([b[6], b[7]]),
        }
    }
}

/// Splits `payload` into self-describing reassembly-mode chunks.
///
/// # Panics
///
/// Panics if the payload needs more than `u16::MAX` chunks.
pub fn encode_reassembly_chunks(
    payload_id: u32,
    payload: &[u8],
) -> Vec<[u8; BYTEEXPRESS_CHUNK_SIZE]> {
    let total = chunks_for_len_reassembly(payload.len());
    assert!(total <= u16::MAX as usize, "payload needs too many chunks");
    payload
        .chunks(REASSEMBLY_CHUNK_PAYLOAD)
        .enumerate()
        .map(|(i, c)| {
            let mut out = [0u8; BYTEEXPRESS_CHUNK_SIZE];
            let hdr = ChunkHeader {
                payload_id,
                chunk_no: i as u16,
                total: total as u16,
            };
            out[..REASSEMBLY_HEADER_BYTES].copy_from_slice(&hdr.to_bytes());
            out[REASSEMBLY_HEADER_BYTES..REASSEMBLY_HEADER_BYTES + c.len()].copy_from_slice(c);
            out
        })
        .collect()
}

/// Splits a reassembly-mode chunk into its header and payload slice.
pub fn split_reassembly_chunk(chunk: &[u8; BYTEEXPRESS_CHUNK_SIZE]) -> (ChunkHeader, &[u8]) {
    let mut hdr = [0u8; REASSEMBLY_HEADER_BYTES];
    hdr.copy_from_slice(&chunk[..REASSEMBLY_HEADER_BYTES]);
    (
        ChunkHeader::from_bytes(&hdr),
        &chunk[REASSEMBLY_HEADER_BYTES..],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::IoOpcode;

    #[test]
    fn inline_len_round_trip() {
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        assert_eq!(inline_len(&sqe), None);
        set_inline_len(&mut sqe, 100);
        assert_eq!(inline_len(&sqe), Some(100));
    }

    #[test]
    fn ordinary_command_is_not_inline() {
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        sqe.set_cdw2(4096); // a stray value without the magic tag
        assert_eq!(inline_len(&sqe), None);
    }

    #[test]
    fn max_len_accepted() {
        let mut sqe = SubmissionEntry::zeroed();
        set_inline_len(&mut sqe, MAX_INLINE_LEN);
        assert_eq!(inline_len(&sqe), Some(MAX_INLINE_LEN));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn zero_len_panics() {
        set_inline_len(&mut SubmissionEntry::zeroed(), 0);
    }

    #[test]
    fn chunk_counts() {
        assert_eq!(chunks_for_len(1), 1);
        assert_eq!(chunks_for_len(64), 1);
        assert_eq!(chunks_for_len(65), 2);
        assert_eq!(chunks_for_len(128), 2);
        assert_eq!(chunks_for_len(4096), 64);
        assert_eq!(chunks_for_len_reassembly(56), 1);
        assert_eq!(chunks_for_len_reassembly(57), 2);
        assert_eq!(chunks_for_len_reassembly(112), 2);
    }

    #[test]
    fn chunk_encode_decode_round_trip() {
        for len in [1usize, 63, 64, 65, 100, 128, 300, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let chunks = encode_chunks(&payload);
            assert_eq!(chunks.len(), chunks_for_len(len));
            assert_eq!(decode_chunks(&chunks, len), payload);
        }
    }

    #[test]
    fn last_chunk_zero_padded() {
        let chunks = encode_chunks(&[0xFF; 65]);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1][0], 0xFF);
        assert!(chunks[1][1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn chunk_header_round_trip() {
        let h = ChunkHeader {
            payload_id: 0xCAFE_BABE,
            chunk_no: 17,
            total: 42,
        };
        assert_eq!(ChunkHeader::from_bytes(&h.to_bytes()), h);
    }

    #[test]
    fn reassembly_round_trip() {
        for len in [1usize, 55, 56, 57, 200, 1000] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let chunks = encode_reassembly_chunks(9, &payload);
            assert_eq!(chunks.len(), chunks_for_len_reassembly(len));
            // Reassemble manually, in reverse order to prove order-independence.
            let mut out = vec![0u8; len];
            for c in chunks.iter().rev() {
                let (hdr, data) = split_reassembly_chunk(c);
                assert_eq!(hdr.payload_id, 9);
                assert_eq!(hdr.total as usize, chunks.len());
                let off = hdr.chunk_no as usize * REASSEMBLY_CHUNK_PAYLOAD;
                let take = (len - off).min(REASSEMBLY_CHUNK_PAYLOAD);
                out[off..off + take].copy_from_slice(&data[..take]);
            }
            assert_eq!(out, payload);
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn decode_short_train_panics() {
        decode_chunks(&encode_chunks(&[0u8; 64]), 65);
    }

    #[test]
    fn incremental_encoder_matches_bulk_encoder() {
        // The allocation-free per-chunk encoder must produce byte-identical
        // SQ slot images to the Vec-returning bulk encoder — this is what
        // keeps the driver's reassembly train wire-transparent.
        for len in [1usize, 55, 56, 57, 63, 64, 65, 128, 300, 1000, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let bulk = encode_reassembly_chunks(0xBEEF, &payload);
            let mut slot = [0x5Au8; BYTEEXPRESS_CHUNK_SIZE]; // dirty buffer
            for (i, expect) in bulk.iter().enumerate() {
                let placed = encode_reassembly_chunk_into(0xBEEF, &payload, i, &mut slot);
                assert_eq!(&slot, expect, "reassembly chunk {i} at len {len}");
                assert!(placed > 0 && placed <= REASSEMBLY_CHUNK_PAYLOAD);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn incremental_encoder_rejects_out_of_range_chunk() {
        let mut slot = [0u8; BYTEEXPRESS_CHUNK_SIZE];
        let _ = encode_reassembly_chunk_into(1, &[0u8; REASSEMBLY_CHUNK_PAYLOAD], 1, &mut slot);
    }
}
