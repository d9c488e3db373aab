//! Simulated host DRAM with a page-frame allocator.
//!
//! The NVMe driver places submission/completion queues and PRP data pages in
//! this memory; the simulated controller DMA-reads and DMA-writes it through
//! the PCIe link model. Addresses are "physical" in the sense the NVMe spec
//! uses them: the values the driver would put into PRP entries and queue base
//! registers.

use std::fmt;

/// The host memory page size, matching the paper's platform (4 KB pages;
/// §5 of the paper notes 4 KB granularity is a platform constraint).
pub const PAGE_SIZE: usize = 4096;

/// A physical address in simulated host memory.
///
/// Newtype over `u64` so addresses cannot be confused with lengths or
/// durations in cost-model code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The byte offset of this address within its page.
    pub fn page_offset(self) -> usize {
        (self.0 as usize) % PAGE_SIZE
    }

    /// The base address of the page containing this address.
    pub fn page_base(self) -> PhysAddr {
        PhysAddr(self.0 - (self.0 % PAGE_SIZE as u64))
    }

    /// Address advanced by `bytes`.
    pub fn offset(self, bytes: u64) -> PhysAddr {
        PhysAddr(self.0 + bytes)
    }

    /// Whether this address is page-aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE as u64)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Errors from host-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// An access touched bytes beyond the configured capacity.
    OutOfBounds {
        /// First byte of the offending access.
        addr: PhysAddr,
        /// Length of the offending access.
        len: usize,
        /// Total capacity of the memory.
        capacity: usize,
    },
    /// The page allocator has no free frames left.
    OutOfPages,
    /// A page was freed twice or was never allocated.
    BadFree(PhysAddr),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "access of {len} bytes at {addr} exceeds capacity {capacity}"
            ),
            MemError::OutOfPages => write!(f, "no free host pages"),
            MemError::BadFree(addr) => write!(f, "bad page free at {addr}"),
        }
    }
}

impl std::error::Error for MemError {}

/// A reference to an allocated 4 KB page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    addr: PhysAddr,
}

impl PageRef {
    /// The base physical address of the page.
    pub fn addr(self) -> PhysAddr {
        self.addr
    }
}

/// A contiguous multi-page DMA region (e.g. a queue ring or a data buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRegion {
    base: PhysAddr,
    len: usize,
}

impl DmaRegion {
    /// Creates a region descriptor. `base` should be page-aligned for regions
    /// used as NVMe queues or PRP targets.
    pub fn new(base: PhysAddr, len: usize) -> Self {
        DmaRegion { base, len }
    }

    /// Base address of the region.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Length of the region in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the region length.
    pub fn at(&self, offset: usize) -> PhysAddr {
        assert!(
            offset <= self.len,
            "offset {offset} beyond region {}",
            self.len
        );
        self.base.offset(offset as u64)
    }
}

/// Free-list page-frame allocator over a fixed capacity.
///
/// Frames are handed out lowest-address-first from a LIFO free list, which is
/// enough realism for PRP-list construction (pages are *not* guaranteed
/// physically contiguous once frees start happening — exactly the situation
/// PRP lists exist for).
///
/// The list is a stack of the frames given back, on top of the frames never
/// handed out — which are every frame from `fresh` up, in address order, and
/// so need no entry each: a memory costs the frames a run used, not its
/// capacity, to build, to carve a ring out of and to drop.
#[derive(Debug)]
pub struct PageAllocator {
    /// Addresses of the frames given back, the next one to hand out last.
    returned: Vec<u64>,
    /// Frames from this one up were never handed out.
    fresh: usize,
    total_pages: usize,
    allocated: Vec<bool>,
}

impl PageAllocator {
    /// Creates an allocator over `capacity` bytes (rounded down to whole pages).
    pub(crate) fn new(capacity: usize) -> Self {
        let total_pages = capacity / PAGE_SIZE;
        PageAllocator {
            returned: Vec::new(),
            fresh: 0,
            total_pages,
            allocated: vec![false; total_pages],
        }
    }

    /// Allocates one page frame.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPages`] if the memory is exhausted.
    pub(crate) fn alloc(&mut self) -> Result<PageRef, MemError> {
        let addr = match self.returned.pop() {
            Some(addr) => addr,
            None if self.fresh < self.total_pages => {
                let frame = self.fresh;
                self.fresh += 1;
                (frame * PAGE_SIZE) as u64
            }
            None => return Err(MemError::OutOfPages),
        };
        self.allocated[(addr / PAGE_SIZE as u64) as usize] = true;
        Ok(PageRef {
            addr: PhysAddr(addr),
        })
    }

    /// Allocates `n` pages that are physically contiguous.
    ///
    /// Used for queue rings, which NVMe requires to be contiguous unless the
    /// controller advertises otherwise.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPages`] if no contiguous run of `n` free frames exists.
    pub(crate) fn alloc_contiguous(&mut self, n: usize) -> Result<DmaRegion, MemError> {
        if n == 0 {
            return Ok(DmaRegion::new(PhysAddr(0), 0));
        }
        let mut run = 0usize;
        let mut start = 0usize;
        for frame in 0..self.total_pages {
            if self.allocated[frame] {
                run = 0;
            } else {
                if run == 0 {
                    start = frame;
                }
                run += 1;
                if run == n {
                    self.allocated[start..start + n].fill(true);
                    let claimed = (start * PAGE_SIZE) as u64..((start + n) * PAGE_SIZE) as u64;
                    self.returned.retain(|a| !claimed.contains(a));
                    // Every frame from `fresh` up is free, so a run that
                    // reaches them starts at or below `fresh`: what it takes
                    // of them is their low end.
                    self.fresh = self.fresh.max(start + n);
                    return Ok(DmaRegion::new(PhysAddr(claimed.start), n * PAGE_SIZE));
                }
            }
        }
        Err(MemError::OutOfPages)
    }

    /// Returns a frame to the free list.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] on double-free or a non-page-aligned address.
    pub(crate) fn free(&mut self, page: PageRef) -> Result<(), MemError> {
        let addr = page.addr.0;
        if !addr.is_multiple_of(PAGE_SIZE as u64) {
            return Err(MemError::BadFree(page.addr));
        }
        let frame = (addr / PAGE_SIZE as u64) as usize;
        if frame >= self.total_pages || !self.allocated[frame] {
            return Err(MemError::BadFree(page.addr));
        }
        self.allocated[frame] = false;
        self.returned.push(addr);
        Ok(())
    }

    /// Returns every frame of a region handed out by
    /// [`PageAllocator::alloc_contiguous`] to the free list, lowest address
    /// on top so it is the next one allocated.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] — and nothing freed — unless the region is a
    /// page-aligned run of allocated frames.
    pub(crate) fn free_contiguous(&mut self, region: DmaRegion) -> Result<(), MemError> {
        let bad = MemError::BadFree(region.base());
        if !region.base().is_page_aligned() {
            return Err(bad);
        }
        let first = (region.base().0 / PAGE_SIZE as u64) as usize;
        let frames = first..first + region.len().div_ceil(PAGE_SIZE);
        match self.allocated.get_mut(frames.clone()) {
            Some(run) if run.iter().all(|&a| a) => run.fill(false),
            _ => return Err(bad),
        }
        self.returned
            .extend(frames.rev().map(|f| (f * PAGE_SIZE) as u64));
        Ok(())
    }

    /// Number of free frames remaining.
    pub fn free_pages(&self) -> usize {
        self.returned.len() + self.total_pages - self.fresh
    }

    /// Total frames managed.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }
}

/// Byte-addressable simulated host memory plus its page allocator.
///
/// All driver and controller data movement ultimately lands here, so tests can
/// assert on actual byte contents end to end.
#[derive(Debug)]
pub struct HostMemory {
    bytes: Vec<u8>,
    allocator: PageAllocator,
}

impl HostMemory {
    /// Creates a memory of `capacity` bytes (rounded down to whole pages),
    /// zero-initialized.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = (capacity / PAGE_SIZE) * PAGE_SIZE;
        HostMemory {
            bytes: vec![0; cap],
            allocator: PageAllocator::new(cap),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    fn check(&self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        let start = addr.0 as usize;
        let end = start.checked_add(len).ok_or(MemError::OutOfBounds {
            addr,
            len,
            capacity: self.bytes.len(),
        })?;
        if end > self.bytes.len() {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                capacity: self.bytes.len(),
            });
        }
        Ok(start)
    }

    /// Copies `data` into memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the write exceeds capacity.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let start = self.check(addr, data.len())?;
        self.bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Sets `len` bytes at `addr` to `value`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the range exceeds capacity.
    pub fn fill(&mut self, addr: PhysAddr, len: usize, value: u8) -> Result<(), MemError> {
        let start = self.check(addr, len)?;
        self.bytes[start..start + len].fill(value);
        Ok(())
    }

    /// Fills `buf` from memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the read exceeds capacity.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len())?;
        buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
        Ok(())
    }

    /// Returns an owned copy of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the read exceeds capacity.
    pub fn read_vec(&self, addr: PhysAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let start = self.check(addr, len)?;
        Ok(self.bytes[start..start + len].to_vec())
    }

    /// Borrows `len` bytes at `addr` without copying.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the range exceeds capacity.
    pub fn slice(&self, addr: PhysAddr, len: usize) -> Result<&[u8], MemError> {
        let start = self.check(addr, len)?;
        Ok(&self.bytes[start..start + len])
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the write exceeds capacity.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<(), MemError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the read exceeds capacity.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Allocates one page frame.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPages`] if memory is exhausted.
    pub fn alloc_page(&mut self) -> Result<PageRef, MemError> {
        self.allocator.alloc()
    }

    /// Allocates `n` physically-contiguous pages.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPages`] if no such run exists.
    pub fn alloc_contiguous(&mut self, n: usize) -> Result<DmaRegion, MemError> {
        self.allocator.alloc_contiguous(n)
    }

    /// Frees a page frame.
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] on invalid frees.
    pub fn free_page(&mut self, page: PageRef) -> Result<(), MemError> {
        self.allocator.free(page)
    }

    /// Frees a region allocated by [`HostMemory::alloc_contiguous`].
    ///
    /// # Errors
    ///
    /// [`MemError::BadFree`] on invalid frees.
    pub fn free_contiguous(&mut self, region: DmaRegion) -> Result<(), MemError> {
        self.allocator.free_contiguous(region)
    }

    /// The underlying allocator, for capacity introspection.
    pub fn allocator(&self) -> &PageAllocator {
        &self.allocator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut m = HostMemory::with_capacity(4 * PAGE_SIZE);
        m.write(PhysAddr(100), b"byteexpress").unwrap();
        assert_eq!(m.read_vec(PhysAddr(100), 11).unwrap(), b"byteexpress");
    }

    #[test]
    fn fill_sets_exactly_the_range() {
        let mut m = HostMemory::with_capacity(PAGE_SIZE);
        m.write(PhysAddr(8), &[9; 8]).unwrap();
        m.fill(PhysAddr(10), 4, 0).unwrap();
        assert_eq!(
            m.read_vec(PhysAddr(8), 8).unwrap(),
            [9, 9, 0, 0, 0, 0, 9, 9]
        );
        assert!(m.fill(PhysAddr(PAGE_SIZE as u64 - 1), 2, 0).is_err());
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mut m = HostMemory::with_capacity(PAGE_SIZE);
        let err = m
            .write(PhysAddr(PAGE_SIZE as u64 - 2), &[1, 2, 3])
            .unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
        let err = m.read_vec(PhysAddr(u64::MAX), 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfBounds { .. }));
    }

    #[test]
    fn register_width_accessors() {
        let mut m = HostMemory::with_capacity(PAGE_SIZE);
        m.write_u64(PhysAddr(8), 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u64(PhysAddr(8)).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn page_allocation_is_page_aligned_and_unique() {
        let mut m = HostMemory::with_capacity(8 * PAGE_SIZE);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let p = m.alloc_page().unwrap();
            assert!(p.addr().is_page_aligned());
            assert!(seen.insert(p.addr()));
        }
        assert!(matches!(m.alloc_page(), Err(MemError::OutOfPages)));
    }

    #[test]
    fn free_then_realloc() {
        let mut m = HostMemory::with_capacity(2 * PAGE_SIZE);
        let a = m.alloc_page().unwrap();
        let _b = m.alloc_page().unwrap();
        m.free_page(a).unwrap();
        let c = m.alloc_page().unwrap();
        assert_eq!(c.addr(), a.addr());
    }

    #[test]
    fn double_free_is_error() {
        let mut m = HostMemory::with_capacity(2 * PAGE_SIZE);
        let a = m.alloc_page().unwrap();
        m.free_page(a).unwrap();
        assert!(matches!(m.free_page(a), Err(MemError::BadFree(_))));
    }

    #[test]
    fn contiguous_allocation() {
        let mut m = HostMemory::with_capacity(8 * PAGE_SIZE);
        let r = m.alloc_contiguous(4).unwrap();
        assert_eq!(r.len(), 4 * PAGE_SIZE);
        assert!(r.base().is_page_aligned());
        // Overlap check: single-page allocs now must avoid the region.
        for _ in 0..4 {
            let p = m.alloc_page().unwrap();
            let within = p.addr().0 >= r.base().0 && p.addr().0 < r.base().0 + r.len() as u64;
            assert!(
                !within,
                "allocator handed out a frame inside the contiguous region"
            );
        }
    }

    /// The allocator with every free frame on the list, as it was before the
    /// never-handed-out ones became a bound: the reference for which frame
    /// each call hands out.
    struct FullList {
        /// Reversed at the start, so that `pop` hands out low addresses first.
        free: Vec<u64>,
        allocated: Vec<bool>,
    }

    impl FullList {
        fn new(pages: usize) -> Self {
            FullList {
                free: (0..pages).rev().map(|f| (f * PAGE_SIZE) as u64).collect(),
                allocated: vec![false; pages],
            }
        }

        fn alloc(&mut self) -> Option<u64> {
            let addr = self.free.pop()?;
            self.allocated[addr as usize / PAGE_SIZE] = true;
            Some(addr)
        }

        fn alloc_contiguous(&mut self, n: usize) -> Option<u64> {
            let start = (0..(self.allocated.len() + 1).checked_sub(n)?)
                .find(|&s| self.allocated[s..s + n].iter().all(|&used| !used))?;
            for f in start..start + n {
                self.allocated[f] = true;
                self.free.retain(|&x| x != (f * PAGE_SIZE) as u64);
            }
            Some((start * PAGE_SIZE) as u64)
        }

        fn free(&mut self, addr: u64, n: usize) {
            for f in (addr as usize / PAGE_SIZE..addr as usize / PAGE_SIZE + n).rev() {
                self.allocated[f] = false;
                self.free.push((f * PAGE_SIZE) as u64);
            }
        }
    }

    proptest::proptest! {
        /// Every call hands out the frame the full list would, through any
        /// interleaving of single pages, contiguous runs and frees — down to
        /// exhaustion, which 24 frames reach often.
        #[test]
        fn hands_out_the_frames_the_full_free_list_did(
            ops in proptest::collection::vec((0..4u8, 0..8usize), 1..120),
        ) {
            const PAGES: usize = 24;
            let mut new = PageAllocator::new(PAGES * PAGE_SIZE);
            let mut old = FullList::new(PAGES);
            // `(base, pages)` of what is held.
            let mut held: Vec<(u64, usize)> = Vec::new();
            for (kind, arg) in ops {
                match kind {
                    0 => {
                        let got = new.alloc().ok().map(|p| p.addr().0);
                        proptest::prop_assert_eq!(got, old.alloc());
                        held.extend(got.map(|addr| (addr, 1)));
                    }
                    1 => {
                        let n = arg + 1;
                        let got = new.alloc_contiguous(n).ok().map(|r| r.base().0);
                        proptest::prop_assert_eq!(got, old.alloc_contiguous(n));
                        held.extend(got.map(|addr| (addr, n)));
                    }
                    _ if held.is_empty() => {}
                    _ => {
                        let (addr, n) = held.swap_remove(arg % held.len());
                        new.free_contiguous(DmaRegion::new(PhysAddr(addr), n * PAGE_SIZE)).unwrap();
                        old.free(addr, n);
                    }
                }
                proptest::prop_assert_eq!(new.free_pages(), old.free.len());
                proptest::prop_assert_eq!(&new.allocated, &old.allocated);
            }
            // Drained, both hand out the same frames in the same order.
            while let Some(addr) = old.alloc() {
                proptest::prop_assert_eq!(new.alloc().unwrap().addr().0, addr);
            }
            proptest::prop_assert!(new.alloc().is_err());
        }
    }

    #[test]
    fn free_contiguous_returns_the_region_lowest_frame_first() {
        let mut m = HostMemory::with_capacity(8 * PAGE_SIZE);
        let r = m.alloc_contiguous(3).unwrap();
        let tail = DmaRegion::new(r.at(PAGE_SIZE), 2 * PAGE_SIZE);
        assert_eq!(m.allocator().free_pages(), 5);
        m.free_contiguous(r).unwrap();
        assert_eq!(m.allocator().free_pages(), 8);
        assert_eq!(m.alloc_page().unwrap().addr(), r.base());
        // Not a run of allocated frames any more: nothing is freed.
        assert_eq!(m.free_contiguous(r), Err(MemError::BadFree(r.base())));
        assert_eq!(m.free_contiguous(tail), Err(MemError::BadFree(tail.base())));
        let past_end = DmaRegion::new(PhysAddr(7 * PAGE_SIZE as u64), 2 * PAGE_SIZE);
        assert!(m.free_contiguous(past_end).is_err());
        assert_eq!(m.allocator().free_pages(), 7);
    }

    #[test]
    fn contiguous_exhaustion() {
        let mut m = HostMemory::with_capacity(4 * PAGE_SIZE);
        let _a = m.alloc_page().unwrap(); // fragment the low end
                                          // Frames 1..4 are free: a run of 3 exists, 4 does not.
        assert!(m.alloc_contiguous(4).is_err());
        assert!(m.alloc_contiguous(3).is_ok());
    }

    #[test]
    fn phys_addr_helpers() {
        let a = PhysAddr(4096 * 3 + 17);
        assert_eq!(a.page_offset(), 17);
        assert_eq!(a.page_base(), PhysAddr(4096 * 3));
        assert!(!a.is_page_aligned());
        assert!(a.page_base().is_page_aligned());
        assert_eq!(a.offset(3), PhysAddr(4096 * 3 + 20));
    }

    #[test]
    fn dma_region_at() {
        let r = DmaRegion::new(PhysAddr(8192), 4096);
        assert_eq!(r.at(64), PhysAddr(8256));
        assert_eq!(r.len(), 4096);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond region")]
    fn dma_region_at_out_of_range_panics() {
        DmaRegion::new(PhysAddr(0), 128).at(129);
    }
}
