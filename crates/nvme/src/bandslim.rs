//! BandSlim framing: the state-of-the-art NVMe *CMD-based* transfer the paper
//! compares against (§3.2, Park et al., ICPP '24).
//!
//! BandSlim embeds payload fragments directly into NVMe command fields and
//! issues a serialized train of commands per payload:
//!
//! * The **head command** (the real operation, e.g. KV PUT) can embed up to
//!   [`HEAD_CAPACITY`] = 32 payload bytes in its unused fields (MPTR + DPTR +
//!   CDW14/15 — CDW10..13 stay reserved for the key). This is why the paper
//!   notes BandSlim "transmits sub-32-byte payloads within a single CMD".
//! * **Fragment commands** (opcode `FRAG_OPCODE`) carry up to
//!   [`FRAG_CAPACITY`] = 48 bytes each (MPTR + DPTR + CDW10..15), with the
//!   fragment index in CDW3. Fragments are consumed silently by the
//!   controller; only the head command receives a completion.
//!
//! The per-fragment costs this framing cannot avoid — command generation,
//!   doorbell rings, and full command fetch/decode on the device — are
//! exactly the overheads ByteExpress's inline SQ chunks eliminate (§3.3).

use crate::sqe::SubmissionEntry;

/// Payload bytes embeddable in the head command.
pub const HEAD_CAPACITY: usize = 32;
/// Payload bytes per fragment command.
pub const FRAG_CAPACITY: usize = 48;
/// Vendor opcode for BandSlim fragment-carrier commands.
pub(crate) const FRAG_OPCODE: u8 = 0xCF;

/// Magic tag in the top byte of CDW2 marking a BandSlim head command.
const BANDSLIM_MAGIC: u32 = 0xB5;

/// Byte ranges of the 64-byte SQE image used to carry payload.
/// Head: MPTR (16..24) + DPTR (24..40) + CDW14/15 (56..64) = 32 B.
const HEAD_REGIONS: [(usize, usize); 2] = [(16, 40), (56, 64)];
/// Fragment: MPTR + DPTR + CDW10..15 (16..64) = 48 B.
const FRAG_REGION: (usize, usize) = (16, 64);

// Wire-layout pins: the advertised capacities must equal the byte regions the
// codecs actually read/write, or encode/decode silently truncate payload.
const _: () = assert!(
    HEAD_CAPACITY == 32
        && (HEAD_REGIONS[0].1 - HEAD_REGIONS[0].0) + (HEAD_REGIONS[1].1 - HEAD_REGIONS[1].0)
            == HEAD_CAPACITY
);
const _: () = assert!(FRAG_CAPACITY == 48 && FRAG_REGION.1 - FRAG_REGION.0 == FRAG_CAPACITY);

/// Marks `sqe` as a BandSlim head command with total payload `len`, and
/// embeds the first [`HEAD_CAPACITY`] bytes (or `embed_cap` if smaller) of
/// `payload` into its spare fields. Returns the number of bytes embedded.
///
/// `embed_cap` lets callers model workloads where the head command cannot
/// spare fields for payload (e.g. CSD task commands): pass 0 to embed
/// nothing.
///
/// # Panics
///
/// Panics if `len` exceeds 24 bits or `embed_cap > HEAD_CAPACITY`.
pub fn encode_head(sqe: &mut SubmissionEntry, payload: &[u8], embed_cap: usize) -> usize {
    assert!(payload.len() < (1 << 24), "bandslim payload too large");
    assert!(
        embed_cap <= HEAD_CAPACITY,
        "embed_cap exceeds head capacity"
    );
    let taken = payload.len().min(embed_cap);
    // The regions exclude CDW2/CDW3, so the tag and count written below
    // never overlap the embedded bytes.
    let [(a0, a1), (b0, _)] = HEAD_REGIONS;
    let (first, second) = payload[..taken].split_at(taken.min(a1 - a0));
    let img = sqe.as_bytes_mut();
    img[a0..a0 + first.len()].copy_from_slice(first);
    img[b0..b0 + second.len()].copy_from_slice(second);
    sqe.set_cdw2((BANDSLIM_MAGIC << 24) | payload.len() as u32);
    // Record how many bytes are embedded so the controller can split
    // head-embedded payload from fragment-carried payload.
    sqe.set_cdw3(taken as u32);
    taken
}

/// Number of payload bytes embedded in a BandSlim head command (recorded by
/// [`encode_head`] in CDW3).
pub fn head_embedded(sqe: &SubmissionEntry) -> usize {
    (sqe.cdw3() & 0xFF) as usize
}

/// Reads the total payload length from a BandSlim head command, or `None`
/// if the command is not BandSlim-framed.
pub fn head_len(sqe: &SubmissionEntry) -> Option<usize> {
    let v = sqe.cdw2();
    (v >> 24 == BANDSLIM_MAGIC).then_some((v & 0x00FF_FFFF) as usize)
}

/// Appends the embedded payload prefix (`embedded` bytes) of a head command
/// to `out`.
///
/// # Panics
///
/// Panics if `embedded` exceeds [`HEAD_CAPACITY`].
pub fn decode_head(sqe: &SubmissionEntry, embedded: usize, out: &mut Vec<u8>) {
    assert!(embedded <= HEAD_CAPACITY);
    let img = sqe.as_bytes();
    let [(a0, a1), (b0, _)] = HEAD_REGIONS;
    let first = embedded.min(a1 - a0);
    out.extend_from_slice(&img[a0..a0 + first]);
    out.extend_from_slice(&img[b0..b0 + (embedded - first)]);
}

/// Builds a fragment command carrying `data` (≤ 48 bytes) as fragment
/// `frag_no`, associated with head command `cid`.
///
/// # Panics
///
/// Panics if `data` exceeds [`FRAG_CAPACITY`].
pub fn encode_frag(cid: u16, nsid: u32, frag_no: u32, data: &[u8]) -> SubmissionEntry {
    assert!(data.len() <= FRAG_CAPACITY, "fragment too large");
    let mut sqe = SubmissionEntry::zeroed();
    sqe.set_opcode_raw(FRAG_OPCODE);
    sqe.set_cid(cid);
    sqe.set_nsid(nsid);
    sqe.set_cdw3(frag_no);
    sqe.as_bytes_mut()[FRAG_REGION.0..FRAG_REGION.0 + data.len()].copy_from_slice(data);
    sqe
}

/// Whether `sqe` is a BandSlim fragment command.
pub fn is_frag(sqe: &SubmissionEntry) -> bool {
    sqe.opcode_raw() == FRAG_OPCODE
}

/// Appends a fragment command's data to `out` and returns its fragment
/// number. `take` is the number of meaningful bytes (the last fragment may
/// be partial).
///
/// # Panics
///
/// Panics if `take` exceeds [`FRAG_CAPACITY`].
pub fn decode_frag(sqe: &SubmissionEntry, take: usize, out: &mut Vec<u8>) -> u32 {
    assert!(take <= FRAG_CAPACITY);
    out.extend_from_slice(&sqe.as_bytes()[FRAG_REGION.0..FRAG_REGION.0 + take]);
    sqe.cdw3()
}

/// Number of commands (head + fragments) BandSlim issues for `len` payload
/// bytes, embedding up to `embed_cap` in the head.
pub fn commands_for_len(len: usize, embed_cap: usize) -> usize {
    if len <= embed_cap {
        1
    } else {
        1 + (len - embed_cap).div_ceil(FRAG_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::IoOpcode;

    fn head_bytes(sqe: &SubmissionEntry, embedded: usize) -> Vec<u8> {
        let mut out = Vec::new();
        decode_head(sqe, embedded, &mut out);
        out
    }

    #[test]
    fn head_embeds_small_payload() {
        let mut sqe = SubmissionEntry::io(IoOpcode::KvPut, 1, 1);
        sqe.set_cdw(10, 0xAABB); // key field must survive embedding
        let payload = [7u8; 20];
        let taken = encode_head(&mut sqe, &payload, HEAD_CAPACITY);
        assert_eq!(taken, 20);
        assert_eq!(head_len(&sqe), Some(20));
        assert_eq!(head_bytes(&sqe, 20), payload);
        assert_eq!(sqe.cdw(10), 0xAABB);
        assert_eq!(sqe.opcode_raw(), 0xC1);
    }

    #[test]
    fn head_caps_at_capacity() {
        let mut sqe = SubmissionEntry::io(IoOpcode::KvPut, 1, 1);
        let payload = [3u8; 100];
        let taken = encode_head(&mut sqe, &payload, HEAD_CAPACITY);
        assert_eq!(taken, HEAD_CAPACITY);
        assert_eq!(head_len(&sqe), Some(100));
        assert_eq!(head_bytes(&sqe, taken), vec![3u8; 32]);
    }

    #[test]
    fn zero_embed_cap_for_csd_style_heads() {
        let mut sqe = SubmissionEntry::io(IoOpcode::CsdExec, 1, 1);
        let taken = encode_head(&mut sqe, &[1, 2, 3], 0);
        assert_eq!(taken, 0);
        assert_eq!(head_len(&sqe), Some(3));
    }

    #[test]
    fn non_bandslim_head_is_none() {
        let sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        assert_eq!(head_len(&sqe), None);
    }

    #[test]
    fn frag_round_trip() {
        let data: Vec<u8> = (0..48).collect();
        let sqe = encode_frag(9, 1, 3, &data);
        assert!(is_frag(&sqe));
        assert_eq!(sqe.cid(), 9);
        let mut back = vec![0xEE];
        assert_eq!(decode_frag(&sqe, 48, &mut back), 3);
        assert_eq!(back[0], 0xEE, "appends");
        assert_eq!(back[1..], data);
    }

    #[test]
    fn partial_frag() {
        let sqe = encode_frag(1, 1, 0, &[5; 10]);
        let mut back = Vec::new();
        decode_frag(&sqe, 10, &mut back);
        assert_eq!(back, vec![5; 10]);
    }

    #[test]
    fn command_counts() {
        // Embedding head: the paper's single-CMD case for sub-32 B payloads.
        assert_eq!(commands_for_len(20, HEAD_CAPACITY), 1);
        assert_eq!(commands_for_len(32, HEAD_CAPACITY), 1);
        assert_eq!(commands_for_len(33, HEAD_CAPACITY), 2);
        assert_eq!(commands_for_len(128, HEAD_CAPACITY), 3); // 32 + 48 + 48
        assert_eq!(commands_for_len(4096, HEAD_CAPACITY), 1 + 85); // (4096-32)/48 = 84.6
                                                                   // CSD-style: no head embedding.
        assert_eq!(commands_for_len(20, 0), 2);
        assert_eq!(commands_for_len(96, 0), 3);
    }

    #[test]
    fn embedded_payload_survives_wire_round_trip() {
        let mut sqe = SubmissionEntry::io(IoOpcode::KvPut, 4, 2);
        let payload: Vec<u8> = (0..32).collect();
        encode_head(&mut sqe, &payload, HEAD_CAPACITY);
        let back = SubmissionEntry::from_bytes(&sqe.to_bytes());
        assert_eq!(head_bytes(&back, 32), payload);
    }

    /// A command image with every byte set, so a codec that writes outside
    /// its regions (or fails to write inside them) shows.
    fn patterned(seed: u8) -> SubmissionEntry {
        let mut img = [0u8; 64];
        for (i, b) in img.iter_mut().enumerate() {
            *b = seed.wrapping_mul(31).wrapping_add(i as u8) | 0x80;
        }
        SubmissionEntry::from_bytes(&img)
    }

    /// [`encode_head`] as it was: a byte at a time through the image,
    /// decoded back into the entry. Kept as the reference the in-place
    /// codec must match.
    fn encode_head_bytewise(sqe: &mut SubmissionEntry, payload: &[u8], embed_cap: usize) -> usize {
        sqe.set_cdw2((BANDSLIM_MAGIC << 24) | payload.len() as u32);
        let mut img = sqe.to_bytes();
        let first_len = HEAD_REGIONS[0].1 - HEAD_REGIONS[0].0;
        let mut taken = 0usize;
        for (start, end) in HEAD_REGIONS {
            while taken < payload.len() && taken < embed_cap {
                let in_region = if (start, end) == HEAD_REGIONS[0] {
                    taken
                } else {
                    taken - first_len
                };
                let off = start + in_region;
                if off >= end {
                    break;
                }
                img[off] = payload[taken];
                taken += 1;
            }
            if taken >= payload.len() || taken >= embed_cap {
                break;
            }
        }
        *sqe = SubmissionEntry::from_bytes(&img);
        sqe.set_cdw2((BANDSLIM_MAGIC << 24) | payload.len() as u32);
        sqe.set_cdw3(taken as u32);
        taken
    }

    #[test]
    fn head_codec_matches_bytewise_reference() {
        for len in 0..=HEAD_CAPACITY + FRAG_CAPACITY {
            let payload: Vec<u8> = (0..len as u8).map(|b| b ^ 0x5A).collect();
            for embed_cap in 0..=HEAD_CAPACITY {
                let (mut fast, mut slow) = (patterned(len as u8), patterned(len as u8));
                let taken = encode_head(&mut fast, &payload, embed_cap);
                assert_eq!(taken, encode_head_bytewise(&mut slow, &payload, embed_cap));
                assert_eq!(
                    fast.to_bytes(),
                    slow.to_bytes(),
                    "len {len} cap {embed_cap}"
                );
                assert_eq!(
                    head_bytes(&fast, taken),
                    payload[..taken],
                    "len {len} cap {embed_cap}"
                );
            }
        }
    }

    #[test]
    fn frag_codec_matches_bytewise_reference() {
        for len in 0..=FRAG_CAPACITY {
            let data: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(7)).collect();
            let frag = encode_frag(0xA1B2, 9, len as u32, &data);
            // The reference: a zeroed command's header fields, then the
            // payload copied into the image and decoded back.
            let mut want = SubmissionEntry::zeroed();
            want.set_opcode_raw(FRAG_OPCODE);
            want.set_cid(0xA1B2);
            want.set_nsid(9);
            want.set_cdw3(len as u32);
            let mut img = want.to_bytes();
            img[FRAG_REGION.0..FRAG_REGION.0 + len].copy_from_slice(&data);
            assert_eq!(frag, SubmissionEntry::from_bytes(&img), "len {len}");
            let mut back = Vec::new();
            assert_eq!(decode_frag(&frag, len, &mut back), len as u32);
            assert_eq!(back, data);
        }
    }
}
