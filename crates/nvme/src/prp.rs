//! Physical Region Page (PRP) construction and traversal.
//!
//! PRP is the page-granular data-pointer scheme the paper targets: every
//! transfer is described as whole 4 KB pages (the first possibly offset), so
//! even a 32-byte payload occupies — and moves — a full page (§2.3).
//!
//! * The **driver** uses [`PrpSegments::build`] to describe a host buffer:
//!   PRP1, PRP2, and, for transfers spanning more than two pages, a PRP list
//!   written into freshly allocated host pages (with list chaining for very
//!   large transfers).
//! * The **controller** uses [`walk`] to visit the page list, reporting each
//!   PRP-list DMA read through a callback so the caller can account its PCIe
//!   traffic.

use bx_hostsim::{HostMemory, MemError, PageRef, PhysAddr, PAGE_SIZE};
use std::fmt;

/// Number of 8-byte PRP entries in one 4 KB list page.
pub(crate) const ENTRIES_PER_LIST_PAGE: usize = PAGE_SIZE / 8;

/// Errors from PRP construction or traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrpError {
    /// Transfer length zero is not describable by PRP.
    EmptyTransfer,
    /// A PRP entry after the first was not page-aligned.
    Misaligned(PhysAddr),
    /// Host memory error while reading/writing a PRP list.
    Mem(MemError),
    /// The provided page set does not cover the transfer length.
    ShortPageSet {
        /// Pages provided.
        have: usize,
        /// Pages required.
        need: usize,
    },
}

impl fmt::Display for PrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrpError::EmptyTransfer => write!(f, "zero-length transfer"),
            PrpError::Misaligned(a) => write!(f, "prp entry not page-aligned: {a}"),
            PrpError::Mem(e) => write!(f, "prp list memory error: {e}"),
            PrpError::ShortPageSet { have, need } => {
                write!(f, "page set too small: have {have}, need {need}")
            }
        }
    }
}

impl std::error::Error for PrpError {}

impl From<MemError> for PrpError {
    fn from(e: MemError) -> Self {
        PrpError::Mem(e)
    }
}

/// A built PRP description of a host buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrpSegments {
    /// PRP1: first data page (may carry an intra-page offset).
    pub prp1: PhysAddr,
    /// PRP2: zero, second data page, or PRP-list pointer.
    pub prp2: PhysAddr,
    /// Pages allocated to hold PRP lists (caller frees after completion).
    pub list_pages: Vec<PageRef>,
    /// Total transfer length described.
    pub len: usize,
}

impl PrpSegments {
    /// Builds PRP entries (and list pages if needed) for a buffer made of
    /// `pages` whole page frames, carrying `len` bytes starting at byte
    /// `offset` within the first page.
    ///
    /// # Errors
    ///
    /// As [`describe`], whose owning wrapper this is.
    pub fn build(
        mem: &mut HostMemory,
        pages: &[PhysAddr],
        offset: usize,
        len: usize,
    ) -> Result<PrpSegments, PrpError> {
        let mut list_pages = Vec::new();
        let (prp1, prp2) = describe(mem, pages, offset, len, &mut list_pages)?;
        Ok(PrpSegments {
            prp1,
            prp2,
            list_pages,
            len,
        })
    }
}

/// Computes `(PRP1, PRP2)` for a buffer made of `pages` whole page frames,
/// carrying `len` bytes starting at byte `offset` within the first page.
/// Transfers spanning more than two pages get a PRP list: the pages
/// allocated for it are appended to `list_pages` — also when a later one
/// cannot be had — for the caller to free after completion.
///
/// # Errors
///
/// * [`PrpError::EmptyTransfer`] for `len == 0`.
/// * [`PrpError::ShortPageSet`] if `pages` cannot hold `offset + len`.
/// * [`PrpError::Mem`] if list pages cannot be allocated/written.
pub fn describe(
    mem: &mut HostMemory,
    pages: &[PhysAddr],
    offset: usize,
    len: usize,
    list_pages: &mut Vec<PageRef>,
) -> Result<(PhysAddr, PhysAddr), PrpError> {
    if len == 0 {
        return Err(PrpError::EmptyTransfer);
    }
    assert!(offset < PAGE_SIZE, "offset must be within the first page");
    let need = pages_spanned(offset, len);
    if pages.len() < need {
        return Err(PrpError::ShortPageSet {
            have: pages.len(),
            need,
        });
    }
    for &p in &pages[..need] {
        if !p.is_page_aligned() {
            return Err(PrpError::Misaligned(p));
        }
    }

    let prp1 = pages[0].offset(offset as u64);
    let prp2 = match need {
        1 => PhysAddr(0),
        2 => pages[1],
        // Entries 1..need go into a chained list.
        _ => write_list(mem, &pages[1..need], list_pages)?,
    };
    Ok((prp1, prp2))
}

/// Number of pages spanned by `len` bytes starting at `offset` into a page.
pub fn pages_spanned(offset: usize, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    (offset + len).div_ceil(PAGE_SIZE)
}

fn write_list(
    mem: &mut HostMemory,
    entries: &[PhysAddr],
    list_pages: &mut Vec<PageRef>,
) -> Result<PhysAddr, PrpError> {
    // Each list page holds ENTRIES_PER_LIST_PAGE entries; when more remain,
    // the final slot chains to the next list page.
    let page = mem.alloc_page()?;
    list_pages.push(page);
    let base = page.addr();

    let fits = entries.len() <= ENTRIES_PER_LIST_PAGE;
    let direct = if fits {
        entries.len()
    } else {
        ENTRIES_PER_LIST_PAGE - 1
    };
    for (i, &e) in entries[..direct].iter().enumerate() {
        mem.write_u64(base.offset((i * 8) as u64), e.0)?;
    }
    if !fits {
        let next = write_list(mem, &entries[direct..], list_pages)?;
        mem.write_u64(
            base.offset(((ENTRIES_PER_LIST_PAGE - 1) * 8) as u64),
            next.0,
        )?;
    }
    Ok(base)
}

/// One contiguous piece of a PRP transfer, as seen by the controller's DMA
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrpSegment {
    /// Host address of the piece.
    pub addr: PhysAddr,
    /// Length in bytes.
    pub len: usize,
}

/// Controller-side PRP traversal: visits, in transfer order, the data
/// segments of a transfer of `len` bytes described by `prp1`/`prp2`.
///
/// `on_list_read(addr, bytes)` is invoked for every PRP-list page the
/// controller must DMA from host memory, so the caller can charge the PCIe
/// link for those reads (the paper's PRP-list overhead); `on_segment` for
/// every segment, the ones of a list page after that page's read. A
/// malformed list is an error only once the walk reaches it: segments
/// before it have been visited by then.
///
/// # Errors
///
/// * [`PrpError::EmptyTransfer`] for `len == 0`.
/// * [`PrpError::Misaligned`] if a list entry or PRP2 is not page-aligned.
/// * [`PrpError::Mem`] on out-of-bounds list reads.
pub fn walk(
    mem: &HostMemory,
    prp1: PhysAddr,
    prp2: PhysAddr,
    len: usize,
    mut on_list_read: impl FnMut(PhysAddr, usize),
    mut on_segment: impl FnMut(PrpSegment),
) -> Result<(), PrpError> {
    if len == 0 {
        return Err(PrpError::EmptyTransfer);
    }
    let mut remaining = len;

    // First segment: from the PRP1 offset to page end.
    let first_len = remaining.min(PAGE_SIZE - prp1.page_offset());
    on_segment(PrpSegment {
        addr: prp1,
        len: first_len,
    });
    remaining -= first_len;
    if remaining == 0 {
        return Ok(());
    }

    let total_pages = pages_spanned(prp1.page_offset(), len);
    if total_pages == 2 {
        if !prp2.is_page_aligned() {
            return Err(PrpError::Misaligned(prp2));
        }
        on_segment(PrpSegment {
            addr: prp2,
            len: remaining,
        });
        return Ok(());
    }

    // PRP list walk.
    let mut list_addr = prp2;
    if !list_addr.is_page_aligned() {
        return Err(PrpError::Misaligned(list_addr));
    }
    let mut entries_left = total_pages - 1;
    while remaining > 0 {
        let in_this_page = entries_left.min(if entries_left <= ENTRIES_PER_LIST_PAGE {
            ENTRIES_PER_LIST_PAGE
        } else {
            ENTRIES_PER_LIST_PAGE - 1
        });
        // The controller fetches the list page (or the used prefix of it).
        let fetch_bytes = if entries_left > ENTRIES_PER_LIST_PAGE {
            PAGE_SIZE
        } else {
            entries_left * 8
        };
        on_list_read(list_addr, fetch_bytes);

        for i in 0..in_this_page {
            let entry = PhysAddr(mem.read_u64(list_addr.offset((i * 8) as u64))?);
            if !entry.is_page_aligned() {
                return Err(PrpError::Misaligned(entry));
            }
            let seg_len = remaining.min(PAGE_SIZE);
            on_segment(PrpSegment {
                addr: entry,
                len: seg_len,
            });
            remaining -= seg_len;
        }
        entries_left -= in_this_page;
        if entries_left > 0 {
            let next =
                PhysAddr(mem.read_u64(list_addr.offset(((ENTRIES_PER_LIST_PAGE - 1) * 8) as u64))?);
            if !next.is_page_aligned() {
                return Err(PrpError::Misaligned(next));
            }
            list_addr = next;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`walk`], collecting what it visits.
    fn walk_segments(
        mem: &HostMemory,
        prp1: PhysAddr,
        prp2: PhysAddr,
        len: usize,
        on_list_read: impl FnMut(PhysAddr, usize),
    ) -> Result<Vec<PrpSegment>, PrpError> {
        let mut segments = Vec::new();
        walk(mem, prp1, prp2, len, on_list_read, |seg| segments.push(seg))?;
        Ok(segments)
    }

    fn mem() -> HostMemory {
        HostMemory::with_capacity(4096 * PAGE_SIZE)
    }

    fn alloc_pages(m: &mut HostMemory, n: usize) -> Vec<PhysAddr> {
        (0..n).map(|_| m.alloc_page().unwrap().addr()).collect()
    }

    #[test]
    fn single_page_uses_prp1_only() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 1);
        let prp = PrpSegments::build(&mut m, &pages, 0, 100).unwrap();
        assert_eq!(prp.prp1, pages[0]);
        assert_eq!(prp.prp2, PhysAddr(0));
        assert!(prp.list_pages.is_empty());
    }

    #[test]
    fn two_pages_use_prp2_directly() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 2);
        let prp = PrpSegments::build(&mut m, &pages, 0, PAGE_SIZE + 1).unwrap();
        assert_eq!(prp.prp2, pages[1]);
        assert!(prp.list_pages.is_empty());
    }

    #[test]
    fn offset_pushes_into_second_page() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 2);
        // 4096 bytes starting at offset 1 touch two pages.
        let prp = PrpSegments::build(&mut m, &pages, 1, PAGE_SIZE).unwrap();
        assert_eq!(prp.prp1, pages[0].offset(1));
        assert_eq!(prp.prp2, pages[1]);
    }

    #[test]
    fn many_pages_build_list() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 5);
        let prp = PrpSegments::build(&mut m, &pages, 0, 5 * PAGE_SIZE).unwrap();
        assert_eq!(prp.list_pages.len(), 1);
        assert_eq!(prp.prp2, prp.list_pages[0].addr());
    }

    #[test]
    fn walk_round_trips_build() {
        let mut m = mem();
        for (offset, len) in [
            (0usize, 1usize),
            (0, PAGE_SIZE),
            (100, 300),
            (0, PAGE_SIZE + 1),
            (4000, 200),
            (0, 7 * PAGE_SIZE),
            (123, 10 * PAGE_SIZE),
        ] {
            let need = pages_spanned(offset, len);
            let pages = alloc_pages(&mut m, need);
            let prp = PrpSegments::build(&mut m, &pages, offset, len).unwrap();
            let segs = walk_segments(&m, prp.prp1, prp.prp2, len, |_, _| {}).unwrap();
            let total: usize = segs.iter().map(|s| s.len).sum();
            assert_eq!(total, len, "offset={offset} len={len}");
            assert_eq!(segs[0].addr, pages[0].offset(offset as u64));
            for (seg, &page) in segs.iter().zip(pages.iter()) {
                assert_eq!(seg.addr.page_base(), page);
            }
        }
    }

    #[test]
    fn walk_reports_list_reads() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 8);
        let prp = PrpSegments::build(&mut m, &pages, 0, 8 * PAGE_SIZE).unwrap();
        let mut list_reads = Vec::new();
        walk_segments(&m, prp.prp1, prp.prp2, 8 * PAGE_SIZE, |a, b| {
            list_reads.push((a, b))
        })
        .unwrap();
        assert_eq!(list_reads.len(), 1);
        assert_eq!(list_reads[0].0, prp.prp2);
        assert_eq!(list_reads[0].1, 7 * 8); // seven remaining entries
    }

    #[test]
    fn chained_list_beyond_one_page() {
        let mut m = HostMemory::with_capacity(3000 * PAGE_SIZE);
        let n = ENTRIES_PER_LIST_PAGE + 5; // forces chaining: n-1 entries > 512
        let pages = alloc_pages(&mut m, n);
        let len = n * PAGE_SIZE;
        let prp = PrpSegments::build(&mut m, &pages, 0, len).unwrap();
        assert_eq!(prp.list_pages.len(), 2);
        let mut list_reads = 0;
        let segs = walk_segments(&m, prp.prp1, prp.prp2, len, |_, _| list_reads += 1).unwrap();
        assert_eq!(segs.len(), n);
        assert_eq!(list_reads, 2);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, len);
    }

    #[test]
    fn short_page_set_rejected() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 1);
        let err = PrpSegments::build(&mut m, &pages, 0, PAGE_SIZE + 1).unwrap_err();
        assert_eq!(err, PrpError::ShortPageSet { have: 1, need: 2 });
    }

    #[test]
    fn zero_len_rejected() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 1);
        assert_eq!(
            PrpSegments::build(&mut m, &pages, 0, 0).unwrap_err(),
            PrpError::EmptyTransfer
        );
        assert_eq!(
            walk_segments(&m, PhysAddr(0), PhysAddr(0), 0, |_, _| {}).unwrap_err(),
            PrpError::EmptyTransfer
        );
    }

    #[test]
    fn misaligned_prp2_rejected() {
        let mut m = mem();
        let pages = alloc_pages(&mut m, 2);
        // Hand-build a bogus transfer: PRP2 not aligned.
        let err =
            walk_segments(&m, pages[0], pages[1].offset(3), PAGE_SIZE * 2, |_, _| {}).unwrap_err();
        assert!(matches!(err, PrpError::Misaligned(_)));
    }

    #[test]
    fn pages_spanned_math() {
        assert_eq!(pages_spanned(0, 0), 0);
        assert_eq!(pages_spanned(0, 1), 1);
        assert_eq!(pages_spanned(0, PAGE_SIZE), 1);
        assert_eq!(pages_spanned(0, PAGE_SIZE + 1), 2);
        assert_eq!(pages_spanned(PAGE_SIZE - 1, 2), 2);
        assert_eq!(pages_spanned(1, PAGE_SIZE), 2);
    }
}
