//! Device-internal DRAM.
//!
//! The landing zone for inline payloads: "a key-value log of KV-SSDs, a
//! workspace for filter processing in CSDs, or even a NAND page buffer entry
//! of normal block SSDs" (§3.3.1). A simple bump-allocated byte store with
//! named regions, sized like the OpenSSD's 1 GB DRAM by default (scaled down
//! for tests).

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
#[derive(Debug)]
pub struct DeviceDram {
    bytes: Vec<u8>,
    next_free: usize,
    /// Ordered by name so any future traversal (debug dumps, telemetry) is
    /// deterministic; lookups here are cold-path firmware configuration.
    regions: BTreeMap<String, DramRegion>,
}

impl DeviceDram {
    /// Creates a DRAM of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        DeviceDram {
            bytes: vec![0; capacity],
            next_free: 0,
            regions: BTreeMap::new(),
        }
    }

    /// Bytes not yet claimed by a region.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.next_free
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

    fn check(&self, offset: usize, len: usize) -> Result<(), DramError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.bytes.len())
        {
            return Err(DramError::OutOfBounds {
                offset,
                len,
                capacity: self.bytes.len(),
            });
        }
        Ok(())
    }

    /// Writes bytes at an absolute DRAM offset.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfBounds`] beyond capacity.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), DramError> {
        self.check(offset, data.len())?;
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads bytes from an absolute DRAM offset.
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfBounds`] beyond capacity.
    pub fn read(&self, offset: usize, len: usize) -> Result<&[u8], DramError> {
        self.check(offset, len)?;
        Ok(&self.bytes[offset..offset + len])
    }

    /// Copies `len` bytes from offset `src` to offset `dst` (the ranges may
    /// overlap).
    ///
    /// # Errors
    ///
    /// [`DramError::OutOfBounds`] if either range runs beyond capacity.
    pub fn copy_within(&mut self, src: usize, dst: usize, len: usize) -> Result<(), DramError> {
        self.check(src, len)?;
        self.check(dst, len)?;
        self.bytes.copy_within(src..src + len, dst);
        Ok(())
    }

    /// A power cut: DRAM contents are gone. The region *layout* survives —
    /// it is firmware configuration re-derived identically at startup, and
    /// keeping it lets recovery code reuse region handles — but every byte
    /// reads back as zero.
    ///
    /// The buffer is swapped for a fresh zero-initialised one rather than
    /// filled: the allocator hands back untouched zero pages, so a cut costs
    /// what the run dirtied, not the capacity. The old buffer is freed first
    /// so two capacity-sized mappings never coexist.
    pub fn wipe(&mut self) {
        let capacity = self.bytes.len();
        self.bytes = Vec::new();
        self.bytes = vec![0; capacity];
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
