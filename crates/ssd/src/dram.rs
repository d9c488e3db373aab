//! Device-internal DRAM.
//!
//! The landing zone for inline payloads: "a key-value log of KV-SSDs, a
//! workspace for filter processing in CSDs, or even a NAND page buffer entry
//! of normal block SSDs" (§3.3.1). A simple bump-allocated byte store with
//! named regions, sized like the OpenSSD's 1 GB DRAM by default (scaled down
//! for tests).

use bx_hostsim::PAGE_SIZE;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from device DRAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// Allocation exceeds remaining capacity.
    OutOfMemory {
        /// Requested bytes.
        requested: usize,
        /// Remaining bytes.
        remaining: usize,
    },
    /// Access outside an allocated region.
    OutOfBounds {
        /// Offset of the access.
        offset: usize,
        /// Length of the access.
        len: usize,
        /// Capacity of the store.
        capacity: usize,
    },
    /// Duplicate region name.
    RegionExists(String),
}

impl fmt::Display for DramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramError::OutOfMemory {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "device dram exhausted: requested {requested}, remaining {remaining}"
                )
            }
            DramError::OutOfBounds {
                offset,
                len,
                capacity,
            } => {
                write!(f, "device dram access out of bounds: {len} bytes at {offset} (capacity {capacity})")
            }
            DramError::RegionExists(n) => write!(f, "region already exists: {n}"),
        }
    }
}

impl std::error::Error for DramError {}

/// A named, fixed-size region of device DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRegion {
    /// Byte offset of the region within the DRAM.
    pub offset: usize,
    /// Region length in bytes.
    pub len: usize,
}

/// Byte-addressable device DRAM with named region allocation.
///
/// Only a prefix of the capacity is backed: every byte past the highest one
/// written or borrowed reads as zero without being stored, so a device costs
/// the bytes its firmware touched — its regions start at offset 0 — and a
/// power cut drops them instead of mapping a fresh capacity (DESIGN.md §12).
#[derive(Debug)]
pub struct DeviceDram {
    /// The backed prefix.
    bytes: Vec<u8>,
    capacity: usize,
    next_free: usize,
    /// Ordered by name so any future traversal (debug dumps, telemetry) is
    /// deterministic; lookups here are cold-path firmware configuration.
    regions: BTreeMap<String, DramRegion>,
}

impl DeviceDram {
    /// Creates a DRAM of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        DeviceDram {
            bytes: Vec::new(),
            capacity,
            next_free: 0,
            regions: BTreeMap::new(),
        }
    }

    /// Bytes not yet claimed by a region.
    pub fn remaining(&self) -> usize {
        self.capacity - self.next_free
    }

    /// Allocates a named region of `len` bytes.
    ///
    /// # Errors
    ///
    /// * [`DramError::RegionExists`] on duplicate names.
    /// * [`DramError::OutOfMemory`] when capacity is exhausted.
    pub fn alloc_region(&mut self, name: &str, len: usize) -> Result<DramRegion, DramError> {
        if self.regions.contains_key(name) {
            return Err(DramError::RegionExists(name.to_string()));
        }
        if len > self.remaining() {
            return Err(DramError::OutOfMemory {
                requested: len,
                remaining: self.remaining(),
            });
        }
        let region = DramRegion {
            offset: self.next_free,
            len,
        };
        self.next_free += len;
        self.regions.insert(name.to_string(), region);
        Ok(region)
    }

    /// The end of `len` bytes at `offset`, once they are backed.
    #[inline]
    fn backed(&mut self, offset: usize, len: usize) -> Result<usize, DramError> {
        match offset.checked_add(len) {
            Some(end) if end <= self.bytes.len() => Ok(end),
            _ => self.back(offset, len),
        }
    }

    /// Extends the backing over `len` bytes at `offset`, inside the
    /// capacity: to at least twice its length in whole pages, taken zeroed
    /// from the allocator with the old bytes copied in, never zeroed one by
    /// one.
    #[cold]
    fn back(&mut self, offset: usize, len: usize) -> Result<usize, DramError> {
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= self.capacity)
            .ok_or(DramError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            })?;
        let grown = end.max(2 * self.bytes.len()).next_multiple_of(PAGE_SIZE);
        let mut bytes = vec![0; grown.min(self.capacity)];
        bytes[..self.bytes.len()].copy_from_slice(&self.bytes);
        self.bytes = bytes;
        Ok(end)
    }

    /// Writes bytes at an absolute DRAM offset.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfBounds`] beyond capacity.
    #[inline]
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), DramError> {
        let end = self.backed(offset, data.len())?;
        self.bytes[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Borrows bytes at an absolute DRAM offset, backing them first if they
    /// were not.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfBounds`] beyond capacity.
    #[inline]
    pub fn read(&mut self, offset: usize, len: usize) -> Result<&[u8], DramError> {
        let end = self.backed(offset, len)?;
        Ok(&self.bytes[offset..end])
    }

    /// Copies `len` bytes from offset `src` to offset `dst` (the ranges may
    /// overlap).
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfBounds`] if either range runs beyond capacity.
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) -> Result<(), DramError> {
        let src_end = self.backed(src, len)?;
        self.backed(dst, len)?;
        self.bytes.copy_within(src..src_end, dst);
        Ok(())
    }

    /// A power cut: DRAM contents are gone. The region *layout* survives —
    /// it is firmware configuration re-derived identically at startup, and
    /// keeping it lets recovery code reuse region handles — but every byte
    /// reads back as zero: the backing is dropped.
    pub fn wipe(&mut self) {
        self.bytes = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_allocation_and_rw() {
        let mut d = DeviceDram::new(1024);
        let r = d.alloc_region("kv-log", 256).unwrap();
        d.write(r.offset, b"value").unwrap();
        assert_eq!(d.read(r.offset, 5).unwrap(), b"value");
    }

    #[test]
    fn copy_within_moves_bytes_and_checks_both_ranges() {
        let mut d = DeviceDram::new(64);
        d.write(4, b"staged").unwrap();
        d.copy_within(4, 40, 6).unwrap();
        assert_eq!(d.read(40, 6).unwrap(), b"staged");
        assert!(matches!(
            d.copy_within(60, 0, 8),
            Err(DramError::OutOfBounds { offset: 60, .. })
        ));
        assert!(matches!(
            d.copy_within(0, 60, 8),
            Err(DramError::OutOfBounds { offset: 60, .. })
        ));
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut d = DeviceDram::new(1024);
        let a = d.alloc_region("a", 100).unwrap();
        let b = d.alloc_region("b", 100).unwrap();
        assert!(a.offset + a.len <= b.offset);
    }

    #[test]
    fn duplicate_region_rejected() {
        let mut d = DeviceDram::new(1024);
        d.alloc_region("x", 10).unwrap();
        assert_eq!(
            d.alloc_region("x", 10).unwrap_err(),
            DramError::RegionExists("x".into())
        );
    }

    #[test]
    fn oom_detected() {
        let mut d = DeviceDram::new(100);
        assert!(matches!(
            d.alloc_region("big", 101),
            Err(DramError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn oob_detected() {
        let mut d = DeviceDram::new(100);
        assert!(matches!(
            d.write(99, &[1, 2]),
            Err(DramError::OutOfBounds { .. })
        ));
        assert!(matches!(
            d.read(usize::MAX, 1),
            Err(DramError::OutOfBounds { .. })
        ));
    }

    /// Bytes of the DRAM compared with the flat one: a few pages and a
    /// ragged end.
    const CAPACITY: usize = 3 * 4096 + 100;

    /// The DRAM as it was before it backed only what was touched: one
    /// buffer of the whole capacity, zeroed by a wipe. The reference for
    /// every byte and error.
    struct Flat {
        bytes: Vec<u8>,
    }

    impl Flat {
        fn range(&mut self, offset: usize, len: usize) -> Result<&mut [u8], DramError> {
            let capacity = self.bytes.len();
            match offset.checked_add(len) {
                Some(end) if end <= capacity => Ok(&mut self.bytes[offset..end]),
                _ => Err(DramError::OutOfBounds {
                    offset,
                    len,
                    capacity,
                }),
            }
        }
    }

    proptest::proptest! {
        /// Through any interleaving of region claims, writes, reads, copies
        /// and wipes — inside the backing, past it, across its end and past
        /// the capacity — the DRAM reads and fails exactly as the flat one
        /// does.
        #[test]
        fn accesses_equal_a_flat_dram(
            ops in proptest::collection::vec(
                (0..6u8, 0..CAPACITY + 64, 0..CAPACITY / 2, 0..CAPACITY, proptest::prelude::any::<u8>()),
                1..60,
            ),
        ) {
            let mut new = DeviceDram::new(CAPACITY);
            let mut old = Flat { bytes: vec![0; CAPACITY] };
            let mut regions = 0;
            for (kind, offset, len, other, byte) in ops {
                match kind {
                    0 => {
                        let got = new.alloc_region(&format!("r{}", regions % 3), len);
                        if got.is_ok() {
                            regions += 1;
                        }
                        proptest::prop_assert_eq!(new.remaining() + new.next_free, CAPACITY);
                    }
                    1 => {
                        let data: Vec<u8> = (0..len).map(|i| byte ^ i as u8).collect();
                        let want = old.range(offset, len).map(|r| r.copy_from_slice(&data));
                        proptest::prop_assert_eq!(new.write(offset, &data), want);
                    }
                    2 => {
                        let want = old.range(offset, len).map(|r| r.to_vec());
                        proptest::prop_assert_eq!(new.read(offset, len).map(<[u8]>::to_vec), want);
                    }
                    3 => {
                        let want = old.range(other, len).map(|_| ()).and(old.range(offset, len).map(|_| ()));
                        if want.is_ok() {
                            old.bytes.copy_within(other..other + len, offset);
                        }
                        proptest::prop_assert_eq!(new.copy_within(other, offset, len), want);
                    }
                    4 => {
                        new.wipe();
                        old.bytes.fill(0);
                    }
                    _ => {
                        let want = old.range(offset, 1).map(|r| r.to_vec());
                        proptest::prop_assert_eq!(new.read(offset, 1).map(<[u8]>::to_vec), want);
                    }
                }
                proptest::prop_assert!(new.bytes.len() <= CAPACITY);
            }
            proptest::prop_assert_eq!(new.read(0, CAPACITY).unwrap(), &old.bytes[..]);
            proptest::prop_assert!(new.read(0, CAPACITY + 1).is_err());
        }
    }

    #[test]
    fn backs_only_the_prefix_touched_and_a_wipe_drops_it() {
        let mut d = DeviceDram::new(1 << 20);
        d.alloc_region("log", 1 << 19).unwrap();
        assert!(d.bytes.is_empty(), "a region claims no bytes");
        d.write(100, b"x").unwrap();
        assert_eq!(d.bytes.len(), PAGE_SIZE, "whole pages");
        d.write(PAGE_SIZE + 1, b"y").unwrap();
        assert_eq!(d.bytes.len(), 2 * PAGE_SIZE);
        d.write(3 * PAGE_SIZE, b"z").unwrap();
        assert_eq!(d.bytes.len(), 4 * PAGE_SIZE, "at least doubling");
        d.wipe();
        assert!(d.bytes.is_empty());
        assert_eq!(d.read(100, 1).unwrap(), &[0]);
    }

    #[test]
    fn wipe_zeroes_bytes_but_keeps_layout() {
        const CAPACITY: usize = 1 << 20;
        let mut d = DeviceDram::new(CAPACITY);
        let staging = d.alloc_region("staging", 64).unwrap();
        let log = d.alloc_region("log", CAPACITY / 2).unwrap();
        let mid = log.offset + log.len / 2;
        d.write(0, &[0xFF]).unwrap();
        d.write(mid, b"volatile").unwrap();
        d.write(CAPACITY - 1, &[0xFF]).unwrap();
        // Wiping twice is as good as once.
        for _ in 0..2 {
            d.wipe();
            assert_eq!(d.read(0, 1).unwrap(), &[0]);
            assert_eq!(d.read(mid, 8).unwrap(), &[0u8; 8]);
            assert_eq!(d.read(CAPACITY - 1, 1).unwrap(), &[0]);
            assert_eq!(d.regions["staging"], staging, "layout survives");
            assert_eq!(d.regions["log"], log, "layout survives");
            assert_eq!(d.remaining(), CAPACITY - 64 - CAPACITY / 2);
            assert_eq!(d.read(0, CAPACITY).unwrap().len(), CAPACITY);
            assert!(d.read(CAPACITY, 1).is_err(), "capacity unchanged");
        }
        // The DRAM is as usable as before.
        d.write(mid, b"again").unwrap();
        assert_eq!(d.read(mid, 5).unwrap(), b"again");
    }

    #[test]
    fn wiping_an_untouched_dram_is_fine() {
        let mut d = DeviceDram::new(4096);
        d.wipe();
        assert_eq!(d.remaining(), 4096);
        assert!(d.read(0, 4096).unwrap().iter().all(|&b| b == 0));
        assert!(d.alloc_region("late", 4096).is_ok());
    }
}
