//! Scatter-Gather List descriptors.
//!
//! SGL is the NVMe alternative to PRP that the paper's §5 compares against:
//! a single data-block descriptor can reference a small contiguous region, so
//! SGL avoids page-granular amplification — but the Linux driver only enables
//! it above a 32 KB threshold by default, and PRP remains mandatory over
//! PCIe. We implement the subset needed for that comparison: data-block
//! descriptors, bit-bucket descriptors, and (last-)segment chaining.

use bx_hostsim::{HostMemory, MemError, PhysAddr};
use std::fmt;

/// SGL descriptor types (high nibble of byte 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SglDescriptorType {
    /// A contiguous data block.
    DataBlock,
    /// A bit bucket: discards read data (paper §5: placeholders for unused
    /// read segments).
    BitBucket,
    /// A segment: pointer to the next array of descriptors.
    Segment,
    /// The last segment pointer.
    LastSegment,
}

impl SglDescriptorType {
    fn code(self) -> u8 {
        match self {
            SglDescriptorType::DataBlock => 0x0,
            SglDescriptorType::BitBucket => 0x1,
            SglDescriptorType::Segment => 0x2,
            SglDescriptorType::LastSegment => 0x3,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0x0 => SglDescriptorType::DataBlock,
            0x1 => SglDescriptorType::BitBucket,
            0x2 => SglDescriptorType::Segment,
            0x3 => SglDescriptorType::LastSegment,
            _ => return None,
        })
    }
}

/// Errors from SGL construction or traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SglError {
    /// An unknown descriptor type code was encountered.
    UnknownType(u8),
    /// Host memory error while walking segments.
    Mem(MemError),
    /// Descriptor chain did not describe `len` bytes.
    LengthMismatch {
        /// Bytes described by the chain.
        described: usize,
        /// Bytes the command claimed.
        expected: usize,
    },
    /// Segment nesting exceeded the sane limit (loop protection).
    TooDeep,
}

impl fmt::Display for SglError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SglError::UnknownType(t) => write!(f, "unknown sgl descriptor type {t:#x}"),
            SglError::Mem(e) => write!(f, "sgl memory error: {e}"),
            SglError::LengthMismatch {
                described,
                expected,
            } => {
                write!(
                    f,
                    "sgl length mismatch: described {described}, expected {expected}"
                )
            }
            SglError::TooDeep => write!(f, "sgl segment chain too deep"),
        }
    }
}

impl std::error::Error for SglError {}

impl From<MemError> for SglError {
    fn from(e: MemError) -> Self {
        SglError::Mem(e)
    }
}

/// One 16-byte SGL descriptor.
///
/// Layout: address (bytes 0–7, LE), length (bytes 8–11, LE), reserved
/// (bytes 12–14), type in the high nibble of byte 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SglDescriptor {
    /// Descriptor type.
    pub kind: SglDescriptorType,
    /// Target address (data block or next segment).
    pub addr: PhysAddr,
    /// Byte length (data length, bucket size, or segment byte length).
    pub len: u32,
}

// Wire-layout pin: one SGL descriptor is exactly 16 bytes on the wire (the
// in-memory struct is larger; only the encoded image is layout-bearing).
const _: () = assert!(SglDescriptor::BYTES == 16);

impl SglDescriptor {
    /// Size of the encoded wire image in bytes.
    pub const BYTES: usize = 16;

    /// A data-block descriptor over `len` bytes at `addr` — the fine-grained
    /// reference that lets SGL avoid page-granular transfers.
    pub fn data_block(addr: PhysAddr, len: u32) -> Self {
        SglDescriptor {
            kind: SglDescriptorType::DataBlock,
            addr,
            len,
        }
    }

    /// A bit-bucket descriptor discarding `len` bytes.
    pub fn bit_bucket(len: u32) -> Self {
        SglDescriptor {
            kind: SglDescriptorType::BitBucket,
            addr: PhysAddr(0),
            len,
        }
    }

    /// A (non-last) segment descriptor pointing at `len` bytes of descriptors.
    pub fn segment(addr: PhysAddr, len: u32) -> Self {
        SglDescriptor {
            kind: SglDescriptorType::Segment,
            addr,
            len,
        }
    }

    /// A last-segment descriptor.
    pub fn last_segment(addr: PhysAddr, len: u32) -> Self {
        SglDescriptor {
            kind: SglDescriptorType::LastSegment,
            addr,
            len,
        }
    }

    /// Encodes to the 16-byte wire image.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.addr.0.to_le_bytes());
        out[8..12].copy_from_slice(&self.len.to_le_bytes());
        out[15] = self.kind.code() << 4;
        out
    }

    /// Decodes from a 16-byte wire image.
    ///
    /// # Errors
    ///
    /// [`SglError::UnknownType`] for unrecognized descriptor type codes.
    pub fn from_bytes(b: &[u8; 16]) -> Result<Self, SglError> {
        let kind =
            SglDescriptorType::from_code(b[15] >> 4).ok_or(SglError::UnknownType(b[15] >> 4))?;
        Ok(SglDescriptor {
            kind,
            addr: PhysAddr(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ])),
            len: u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
        })
    }
}

/// A resolved data extent from an SGL walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SglExtent {
    /// Host address; `None` for bit-bucket extents (data is discarded).
    pub addr: Option<PhysAddr>,
    /// Length in bytes.
    pub len: usize,
}

/// Walks an SGL starting from the descriptor embedded in the command,
/// following segment descriptors through host memory, and visits the data
/// extents in transfer order.
///
/// `on_segment_read(addr, bytes)` is invoked for each descriptor-array fetch
/// so callers can account its PCIe traffic; `on_extent` for each extent as
/// the walk finds it. A malformed chain is an error only once the walk
/// reaches the fault — or, for a wrong total, its end: extents before that
/// have been visited by then.
///
/// # Errors
///
/// * [`SglError::LengthMismatch`] if the chain does not describe `expected_len`.
/// * [`SglError::UnknownType`] / [`SglError::Mem`] / [`SglError::TooDeep`] on
///   malformed chains.
pub fn walk(
    mem: &HostMemory,
    first: SglDescriptor,
    expected_len: usize,
    mut on_segment_read: impl FnMut(PhysAddr, usize),
    mut on_extent: impl FnMut(SglExtent),
) -> Result<(), SglError> {
    let mut described = 0usize;
    let mut data = |desc: &SglDescriptor| {
        let len = desc.len as usize;
        described += len;
        on_extent(SglExtent {
            addr: (desc.kind == SglDescriptorType::DataBlock).then_some(desc.addr),
            len,
        });
    };
    let mut depth = 0usize;
    let mut cursor = Some(first);

    while let Some(desc) = cursor.take() {
        match desc.kind {
            SglDescriptorType::DataBlock | SglDescriptorType::BitBucket => data(&desc),
            SglDescriptorType::Segment | SglDescriptorType::LastSegment => {
                depth += 1;
                if depth > 16 {
                    return Err(SglError::TooDeep);
                }
                on_segment_read(desc.addr, desc.len as usize);
                for i in 0..desc.len as usize / 16 {
                    let mut raw = [0u8; 16];
                    mem.read(desc.addr.offset((i * 16) as u64), &mut raw)?;
                    let d = SglDescriptor::from_bytes(&raw)?;
                    match d.kind {
                        SglDescriptorType::DataBlock | SglDescriptorType::BitBucket => data(&d),
                        // Per spec, a segment pointer may only be the last
                        // descriptor in a segment.
                        SglDescriptorType::Segment | SglDescriptorType::LastSegment => {
                            cursor = Some(d);
                        }
                    }
                }
            }
        }
    }

    if described != expected_len {
        return Err(SglError::LengthMismatch {
            described,
            expected: expected_len,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_hostsim::PAGE_SIZE;

    /// [`walk`], collecting what it visits.
    fn walk_extents(
        mem: &HostMemory,
        first: SglDescriptor,
        expected_len: usize,
        on_segment_read: impl FnMut(PhysAddr, usize),
    ) -> Result<Vec<SglExtent>, SglError> {
        let mut extents = Vec::new();
        walk(mem, first, expected_len, on_segment_read, |e| {
            extents.push(e)
        })?;
        Ok(extents)
    }

    #[test]
    fn descriptor_round_trip() {
        for d in [
            SglDescriptor::data_block(PhysAddr(0x1234), 100),
            SglDescriptor::bit_bucket(512),
            SglDescriptor::segment(PhysAddr(0x8000), 64),
            SglDescriptor::last_segment(PhysAddr(0x9000), 32),
        ] {
            assert_eq!(SglDescriptor::from_bytes(&d.to_bytes()).unwrap(), d);
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let mut b = [0u8; 16];
        b[15] = 0xF0;
        assert_eq!(
            SglDescriptor::from_bytes(&b).unwrap_err(),
            SglError::UnknownType(0xF)
        );
    }

    #[test]
    fn single_data_block_walk() {
        let mem = HostMemory::with_capacity(PAGE_SIZE);
        let d = SglDescriptor::data_block(PhysAddr(64), 100);
        let extents = walk_extents(&mem, d, 100, |_, _| {}).unwrap();
        assert_eq!(extents.len(), 1);
        assert_eq!(extents[0].addr, Some(PhysAddr(64)));
        assert_eq!(extents[0].len, 100);
    }

    #[test]
    fn length_mismatch_detected() {
        let mem = HostMemory::with_capacity(PAGE_SIZE);
        let d = SglDescriptor::data_block(PhysAddr(64), 100);
        assert_eq!(
            walk_extents(&mem, d, 101, |_, _| {}).unwrap_err(),
            SglError::LengthMismatch {
                described: 100,
                expected: 101
            }
        );
    }

    #[test]
    fn segment_chain_walk() {
        let mut mem = HostMemory::with_capacity(8 * PAGE_SIZE);
        // Two data blocks described in a segment array at 0x1000.
        let seg_addr = PhysAddr(0x1000);
        let d1 = SglDescriptor::data_block(PhysAddr(0x2000), 30);
        let d2 = SglDescriptor::data_block(PhysAddr(0x3000), 70);
        mem.write(seg_addr, &d1.to_bytes()).unwrap();
        mem.write(seg_addr.offset(16), &d2.to_bytes()).unwrap();

        let first = SglDescriptor::last_segment(seg_addr, 32);
        let mut fetches = Vec::new();
        let extents = walk_extents(&mem, first, 100, |a, l| fetches.push((a, l))).unwrap();
        assert_eq!(extents.len(), 2);
        assert_eq!(fetches, vec![(seg_addr, 32)]);
        assert_eq!(extents[1].len, 70);
    }

    #[test]
    fn bit_bucket_counts_toward_length() {
        let mem = HostMemory::with_capacity(PAGE_SIZE);
        let d = SglDescriptor::bit_bucket(4096);
        let extents = walk_extents(&mem, d, 4096, |_, _| {}).unwrap();
        assert_eq!(extents[0].addr, None);
    }

    #[test]
    fn two_level_chain() {
        let mut mem = HostMemory::with_capacity(8 * PAGE_SIZE);
        // Segment A: one data block + pointer to last segment B.
        let seg_a = PhysAddr(0x1000);
        let seg_b = PhysAddr(0x4000);
        let d1 = SglDescriptor::data_block(PhysAddr(0x2000), 10);
        let to_b = SglDescriptor::last_segment(seg_b, 16);
        mem.write(seg_a, &d1.to_bytes()).unwrap();
        mem.write(seg_a.offset(16), &to_b.to_bytes()).unwrap();
        let d2 = SglDescriptor::data_block(PhysAddr(0x5000), 20);
        mem.write(seg_b, &d2.to_bytes()).unwrap();

        let first = SglDescriptor::segment(seg_a, 32);
        let mut seg_reads = 0;
        let extents = walk_extents(&mem, first, 30, |_, _| seg_reads += 1).unwrap();
        assert_eq!(extents.len(), 2);
        assert_eq!(seg_reads, 2);
    }
}
