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
    total_pages: usize,
    /// Whether each frame below `fresh` is handed out; its length is
    /// `fresh`, the bound from which no frame was ever handed out.
    allocated: Frames,
}

/// A flag per frame below the never-handed-out bound: whether it is handed
/// out. Every frame from the bound up is free, so the record grows with the
/// bound and not with the capacity.
#[derive(Debug, Default)]
struct Frames(Vec<bool>);

impl PageAllocator {
    /// Creates an allocator over `capacity` bytes (rounded down to whole pages).
    pub(crate) fn new(capacity: usize) -> Self {
        PageAllocator {
            returned: Vec::new(),
            total_pages: capacity / PAGE_SIZE,
            allocated: Frames::default(),
        }
    }

    /// The first frame never handed out.
    fn fresh(&self) -> usize {
        self.allocated.0.len()
    }

    /// Allocates one page frame.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfPages`] if the memory is exhausted.
    pub(crate) fn alloc(&mut self) -> Result<PageRef, MemError> {
        let addr = match self.returned.pop() {
            Some(addr) => {
                self.allocated.0[(addr / PAGE_SIZE as u64) as usize] = true;
                addr
            }
            None if self.fresh() < self.total_pages => {
                let frame = self.fresh();
                self.allocated.0.push(true);
                (frame * PAGE_SIZE) as u64
            }
            None => return Err(MemError::OutOfPages),
        };
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
        // The lowest run of `n` free frames. Every frame from `fresh` up is
        // free, so a run not found below it is the free run that reaches it,
        // extended upward.
        let mut run = 0usize;
        let mut start = 0usize;
        for (frame, &used) in self.allocated.0.iter().enumerate() {
            if used {
                run = 0;
            } else {
                if run == 0 {
                    start = frame;
                }
                run += 1;
                if run == n {
                    break;
                }
            }
        }
        if run == 0 {
            start = self.fresh();
        }
        if start + n > self.total_pages {
            return Err(MemError::OutOfPages);
        }
        let frames = &mut self.allocated.0;
        frames.resize(frames.len().max(start + n), false);
        frames[start..start + n].fill(true);
        let claimed = (start * PAGE_SIZE) as u64..((start + n) * PAGE_SIZE) as u64;
        self.returned.retain(|a| !claimed.contains(a));
        Ok(DmaRegion::new(PhysAddr(claimed.start), n * PAGE_SIZE))
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
        match self.allocated.0.get_mut((addr / PAGE_SIZE as u64) as usize) {
            Some(used) if *used => *used = false,
            _ => return Err(MemError::BadFree(page.addr)),
        }
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
        match self.allocated.0.get_mut(frames.clone()) {
            Some(run) if run.iter().all(|&a| a) => run.fill(false),
            _ => return Err(bad),
        }
        self.returned
            .extend(frames.rev().map(|f| (f * PAGE_SIZE) as u64));
        Ok(())
    }

    /// Number of free frames remaining.
    pub fn free_pages(&self) -> usize {
        self.returned.len() + self.total_pages - self.fresh()
    }

    /// Total frames managed.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }
}

/// The least a [`HostMemory`] backs once written: the admin and one I/O
/// queue pair's rings at depth 1 024 (22 pages) and the first data pages, so
/// a device life-cycle grows its backing once. Growing it a second time — a
/// fresh allocation, a copy and a free — made a KV store's life-cycle
/// (open, 12 PUTs, power cycle, 12 GETs, drop) 30–45 µs slower, about twice
/// as slow.
const MIN_BACKING: usize = 32 * PAGE_SIZE;

/// Byte-addressable simulated host memory plus its page allocator.
///
/// All driver and controller data movement ultimately lands here, so tests can
/// assert on actual byte contents end to end.
///
/// Only a prefix of the capacity is backed: every byte past the highest one
/// written or borrowed reads as zero without being stored. A memory costs
/// the bytes a run touched to build, to use and to drop, not its capacity —
/// which a device life-cycle would otherwise pay in first-touch faults and
/// an `munmap` of the whole (DESIGN.md §12). An access inside the backing
/// pays one bounds check.
#[derive(Debug)]
pub struct HostMemory {
    /// The backed prefix, a whole number of pages.
    bytes: Vec<u8>,
    allocator: PageAllocator,
}

impl HostMemory {
    /// Creates a memory of `capacity` bytes (rounded down to whole pages),
    /// zero-initialized.
    pub fn with_capacity(capacity: usize) -> Self {
        HostMemory {
            bytes: Vec::new(),
            allocator: PageAllocator::new(capacity),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.allocator.total_pages * PAGE_SIZE
    }

    /// Checks `len` bytes at `addr` against the capacity; returns where they
    /// start.
    fn check(&self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        let start = addr.0 as usize;
        let capacity = self.capacity();
        match start.checked_add(len) {
            Some(end) if end <= capacity => Ok(start),
            _ => Err(MemError::OutOfBounds {
                addr,
                len,
                capacity,
            }),
        }
    }

    /// Where `len` bytes at `addr` start, once they are backed.
    #[inline]
    fn backed(&mut self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        let start = addr.0 as usize;
        match start.checked_add(len) {
            Some(end) if end <= self.bytes.len() => Ok(start),
            _ => self.back(addr, len),
        }
    }

    /// Extends the backing over `len` bytes at `addr`, inside the capacity:
    /// to at least twice its length and [`MIN_BACKING`], in whole pages,
    /// taken zeroed from the allocator with the old bytes copied in. Zeroing
    /// the new bytes one by one instead (`Vec::resize`) made debug builds of
    /// the crash sweep over twice as slow.
    #[cold]
    fn back(&mut self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        let start = self.check(addr, len)?;
        let grown = (start + len)
            .max(2 * self.bytes.len())
            .max(MIN_BACKING)
            .next_multiple_of(PAGE_SIZE)
            .min(self.capacity());
        let mut bytes = vec![0; grown];
        bytes[..self.bytes.len()].copy_from_slice(&self.bytes);
        self.bytes = bytes;
        Ok(start)
    }

    /// Copies `data` into memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the write exceeds capacity.
    #[inline]
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let start = self.backed(addr, data.len())?;
        self.bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Sets `len` bytes at `addr` to `value`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the range exceeds capacity.
    pub fn fill(&mut self, addr: PhysAddr, len: usize, value: u8) -> Result<(), MemError> {
        let start = self.backed(addr, len)?;
        self.bytes[start..start + len].fill(value);
        Ok(())
    }

    /// Fills `buf` from memory at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the read exceeds capacity.
    #[inline]
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let start = addr.0 as usize;
        match start.checked_add(buf.len()) {
            Some(end) if end <= self.bytes.len() => {
                buf.copy_from_slice(&self.bytes[start..end]);
                Ok(())
            }
            _ => self.read_past_backing(addr, buf),
        }
    }

    /// [`HostMemory::read`] of a range that runs past the backing, where
    /// every byte reads as zero.
    #[cold]
    fn read_past_backing(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let start = self.check(addr, buf.len())?;
        let backed = self.bytes.get(start..).unwrap_or_default();
        let (head, tail) = buf.split_at_mut(backed.len().min(buf.len()));
        head.copy_from_slice(&backed[..head.len()]);
        tail.fill(0);
        Ok(())
    }

    /// Returns an owned copy of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the read exceeds capacity.
    pub fn read_vec(&self, addr: PhysAddr, len: usize) -> Result<Vec<u8>, MemError> {
        let start = self.check(addr, len)?;
        match self.bytes.get(start..start + len) {
            Some(bytes) => Ok(bytes.to_vec()),
            None => {
                let mut out = vec![0; len];
                self.read_past_backing(addr, &mut out)?;
                Ok(out)
            }
        }
    }

    /// Borrows `len` bytes at `addr` without copying, backing them first if
    /// they were not.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the range exceeds capacity.
    #[inline]
    pub fn slice(&mut self, addr: PhysAddr, len: usize) -> Result<&[u8], MemError> {
        let start = self.backed(addr, len)?;
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

    /// Frames of the memory compared with the flat one: few enough that
    /// allocations run out.
    const FLAT_PAGES: usize = 24;

    /// The record reads as the flag per frame of the whole capacity it
    /// replaced: its own flags, then `false` up to the top.
    impl PartialEq<Vec<bool>> for Frames {
        fn eq(&self, flat: &Vec<bool>) -> bool {
            let (below, above) = flat.split_at(self.0.len().min(flat.len()));
            below == self.0 && !above.contains(&true)
        }
    }

    /// The memory as it was before it backed only what was touched: one
    /// buffer of the whole capacity, its frames handed out by the full free
    /// list. The reference for every byte and error.
    struct Flat {
        bytes: Vec<u8>,
        frames: FullList,
    }

    impl Flat {
        fn new(pages: usize) -> Self {
            Flat {
                bytes: vec![0; pages * PAGE_SIZE],
                frames: FullList::new(pages),
            }
        }

        fn check(&self, addr: u64, len: usize) -> Result<usize, MemError> {
            let start = addr as usize;
            match start.checked_add(len) {
                Some(end) if end <= self.bytes.len() => Ok(start),
                _ => Err(MemError::OutOfBounds {
                    addr: PhysAddr(addr),
                    len,
                    capacity: self.bytes.len(),
                }),
            }
        }

        fn range(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
            let start = self.check(addr, len)?;
            Ok(&self.bytes[start..start + len])
        }

        fn range_mut(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemError> {
            let start = self.check(addr, len)?;
            Ok(&mut self.bytes[start..start + len])
        }
    }

    proptest::proptest! {
        /// Through any interleaving of allocations, frees and accesses — at
        /// frames handed out, frames never handed out, across the end of
        /// the backing and past the capacity — the memory reads, borrows
        /// and fails exactly as the flat one does, and hands out the same
        /// frames.
        #[test]
        fn accesses_equal_a_flat_memory(
            ops in proptest::collection::vec(
                (0..9u8, 0..(FLAT_PAGES as u64 + 2) * PAGE_SIZE as u64, 0..3 * PAGE_SIZE, proptest::prelude::any::<u8>()),
                1..100,
            ),
        ) {
            let mut new = HostMemory::with_capacity(FLAT_PAGES * PAGE_SIZE);
            let mut old = Flat::new(FLAT_PAGES);
            // `(base, pages)` of what is held.
            let mut held: Vec<(u64, usize)> = Vec::new();
            for (kind, at, len, byte) in ops {
                // Half the accesses land in a held region, the rest anywhere.
                let addr = match held.get(at as usize % (2 * held.len() + 1)) {
                    Some(&(base, _)) => base + at % (2 * PAGE_SIZE as u64),
                    None => at,
                };
                match kind {
                    0 => {
                        let got = new.alloc_page().ok().map(|p| p.addr().0);
                        proptest::prop_assert_eq!(got, old.frames.alloc());
                        held.extend(got.map(|addr| (addr, 1)));
                    }
                    1 => {
                        let n = len % 4 + 1;
                        let got = new.alloc_contiguous(n).ok().map(|r| r.base().0);
                        proptest::prop_assert_eq!(got, old.frames.alloc_contiguous(n));
                        held.extend(got.map(|addr| (addr, n)));
                    }
                    2 if !held.is_empty() => {
                        let (base, n) = held.swap_remove(at as usize % held.len());
                        new.free_contiguous(DmaRegion::new(PhysAddr(base), n * PAGE_SIZE)).unwrap();
                        old.frames.free(base, n);
                    }
                    3 => {
                        let data: Vec<u8> = (0..len).map(|i| byte ^ i as u8).collect();
                        let want = old.range_mut(addr, len).map(|r| r.copy_from_slice(&data));
                        proptest::prop_assert_eq!(new.write(PhysAddr(addr), &data), want);
                    }
                    4 => {
                        let want = old.range_mut(addr, len).map(|r| r.fill(byte));
                        proptest::prop_assert_eq!(new.fill(PhysAddr(addr), len, byte), want);
                    }
                    5 => {
                        let mut buf = vec![byte; len];
                        let got = new.read(PhysAddr(addr), &mut buf).map(|()| buf);
                        proptest::prop_assert_eq!(got, old.range(addr, len).map(<[u8]>::to_vec));
                    }
                    6 => {
                        let want = old.range(addr, len).map(<[u8]>::to_vec);
                        proptest::prop_assert_eq!(new.read_vec(PhysAddr(addr), len), want);
                    }
                    7 => {
                        let want = old.range(addr, len);
                        proptest::prop_assert_eq!(new.slice(PhysAddr(addr), len), want);
                    }
                    _ => {
                        let want = old.range(addr, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()));
                        proptest::prop_assert_eq!(new.read_u64(PhysAddr(addr)), want);
                    }
                }
                proptest::prop_assert!(new.bytes.len() <= new.capacity());
            }
            // Every byte of the capacity, and one past it.
            let cap = FLAT_PAGES * PAGE_SIZE;
            proptest::prop_assert_eq!(new.read_vec(PhysAddr(0), cap).unwrap(), old.bytes);
            proptest::prop_assert_eq!(new.read_vec(PhysAddr(0), cap + 1), old.range(0, cap + 1).map(<[u8]>::to_vec));
            proptest::prop_assert_eq!(&new.allocator.allocated, &old.frames.allocated);
        }
    }

    #[test]
    fn a_fresh_memory_backs_nothing_and_reads_zero() {
        let mut m = HostMemory::with_capacity(80 * PAGE_SIZE);
        assert!(m.bytes.is_empty());
        let mut buf = [0xFF; 16];
        m.read(PhysAddr(79 * PAGE_SIZE as u64), &mut buf).unwrap();
        assert_eq!(buf, [0; 16]);
        assert!(m.bytes.is_empty(), "a read backs nothing");
        m.write(PhysAddr(PAGE_SIZE as u64 + 1), &[7]).unwrap();
        assert_eq!(m.bytes.len(), MIN_BACKING, "a write backs a floor");
        m.write(PhysAddr(MIN_BACKING as u64), &[7]).unwrap();
        assert_eq!(m.bytes.len(), 2 * MIN_BACKING, "then at least doubles");
        m.write(PhysAddr(2 * MIN_BACKING as u64 + 1), &[7]).unwrap();
        assert_eq!(m.bytes.len(), 80 * PAGE_SIZE, "but never past the capacity");
        let mut small = HostMemory::with_capacity(3 * PAGE_SIZE);
        small.write(PhysAddr(0), &[7]).unwrap();
        assert_eq!(small.bytes.len(), 3 * PAGE_SIZE);
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
