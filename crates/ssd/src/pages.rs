//! Where a firmware personality keeps its pages.
//!
//! The paper measures in two modes: NAND on (Fig 6) and "with NAND I/O
//! disabled" (§4.2) to isolate transfer latency. A [`PageStore`] is that
//! switch, read once when the personality is built: the FTL over NAND, or a
//! page log in device DRAM. The firmware above it is the same in both.

use crate::dram::DeviceDram;
use crate::firmware::FirmwareCtx;
use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_nvme::Status;

#[derive(Debug)]
enum Backend {
    /// The FTL over the NAND array.
    Nand,
    /// NAND off: `pages` page slots in device DRAM from offset `off`.
    Dram { off: usize, pages: usize },
}

/// A personality's logical pages, addressed by LPN.
#[derive(Debug)]
pub struct PageStore {
    backend: Backend,
    /// What a DRAM-log page write / read costs the personality.
    write_cost: Nanos,
    read_cost: Nanos,
}

impl PageStore {
    /// The FTL when `nand_io`; otherwise a DRAM log named `region` over half
    /// of what is left of `dram`, each access costing `write_cost` /
    /// `read_cost`.
    pub fn new(
        dram: &mut DeviceDram,
        region: &str,
        nand_io: bool,
        write_cost: Nanos,
        read_cost: Nanos,
    ) -> Self {
        let backend = if nand_io {
            Backend::Nand
        } else {
            let pages = (dram.remaining() / 2) / PAGE_SIZE;
            #[expect(
                clippy::expect_used,
                reason = "construction-time naming bug, not a runtime state; half of what remains always fits"
            )]
            let log = dram
                .alloc_region(region, pages * PAGE_SIZE)
                .expect("page-log region claimed twice");
            Backend::Dram {
                off: log.offset,
                pages,
            }
        };
        PageStore {
            backend,
            write_cost,
            read_cost,
        }
    }

    /// The DRAM offset of `lpn`'s slot, `None` when the FTL holds it. A NAND
    /// store over a disabled array fails: the array would drop the bytes.
    fn slot(&self, ctx: &FirmwareCtx<'_>, lpn: u64) -> Result<Option<usize>, Status> {
        match self.backend {
            Backend::Nand if !ctx.nand.config().enabled => Err(Status::InternalError),
            Backend::Nand if lpn < ctx.ftl.capacity_pages() => Ok(None),
            Backend::Dram { off, pages } if lpn < pages as u64 => {
                Ok(Some(off + lpn as usize * PAGE_SIZE))
            }
            _ => Err(Status::CapacityExceeded),
        }
    }

    /// Writes `page` at `lpn`; returns the completion instant. `page` may
    /// be shorter than [`PAGE_SIZE`]: the rest of the page reads as zeros,
    /// and a NAND page program stores only what it was handed.
    ///
    /// # Errors
    ///
    /// [`Status::CapacityExceeded`] past the last page,
    /// [`Status::InternalError`] when the backend fails or `page` is longer
    /// than [`PAGE_SIZE`].
    pub fn write(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        lpn: u64,
        page: &[u8],
        now: Nanos,
    ) -> Result<Nanos, Status> {
        match self.slot(ctx, lpn)? {
            None => ctx.ftl.write(lpn, page, ctx.nand, now).ok(),
            Some(at) if page.len() <= PAGE_SIZE => {
                let written = ctx.dram.write(at, page).ok();
                written.and_then(|()| self.zero_tail(ctx, at, page.len(), now))
            }
            Some(_) => None,
        }
        .ok_or(Status::InternalError)
    }

    /// [`PageStore::write`] of the `len` bytes at DRAM offset `src`, without
    /// copying them out first.
    ///
    /// # Errors
    ///
    /// As [`PageStore::write`].
    pub fn write_from_dram(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        lpn: u64,
        src: usize,
        len: usize,
        now: Nanos,
    ) -> Result<Nanos, Status> {
        match self.slot(ctx, lpn)? {
            None => {
                let page = ctx.dram.read(src, len).ok();
                page.and_then(|page| ctx.ftl.write(lpn, page, ctx.nand, now).ok())
            }
            Some(at) if len <= PAGE_SIZE => {
                let copied = ctx.dram.copy_within(src, at, len).ok();
                copied.and_then(|()| self.zero_tail(ctx, at, len, now))
            }
            Some(_) => None,
        }
        .ok_or(Status::InternalError)
    }

    /// Zeroes DRAM-log slot `at` from byte `len` on, finishing a page write
    /// of `len` bytes; returns its completion instant.
    fn zero_tail(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        at: usize,
        len: usize,
        now: Nanos,
    ) -> Option<Nanos> {
        static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];
        ctx.dram.write(at + len, &ZERO_PAGE[len..]).ok()?;
        Some(now + self.write_cost)
    }

    /// Appends bytes `off..off + len` of page `lpn` to `out`; returns the
    /// completion instant.
    ///
    /// # Errors
    ///
    /// As [`PageStore::write`]; a page never written is an
    /// [`Status::InternalError`] on NAND.
    pub fn read_range(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        lpn: u64,
        off: usize,
        len: usize,
        now: Nanos,
        out: &mut Vec<u8>,
    ) -> Result<Nanos, Status> {
        match self.slot(ctx, lpn)? {
            None => ctx.ftl.read_range(lpn, off, len, ctx.nand, now, out).ok(),
            Some(at) if off.saturating_add(len) <= PAGE_SIZE => {
                let bytes = ctx.dram.read(at + off, len).ok();
                bytes.map(|bytes| {
                    out.extend_from_slice(bytes);
                    now + self.read_cost
                })
            }
            Some(_) => None,
        }
        .ok_or(Status::InternalError)
    }

    /// How many pages from LPN 0 up survived the last power cut: the mapped
    /// prefix of the recovered FTL; nothing of a DRAM log.
    pub fn persisted_prefix(&self, ctx: &FirmwareCtx<'_>) -> u64 {
        match self.backend {
            Backend::Nand => (0..ctx.ftl.capacity_pages())
                .take_while(|&lpn| ctx.ftl.is_mapped(lpn))
                .count() as u64,
            Backend::Dram { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::Ftl;
    use crate::nand::{NandArray, NandConfig};

    const WRITE_COST: Nanos = Nanos::from_ns(100);
    const READ_COST: Nanos = Nanos::from_ns(200);
    /// Pages in the rig's DRAM log: half of the 16 left after staging.
    const DRAM_PAGES: u64 = 8;

    struct Rig {
        nand: NandArray,
        ftl: Ftl,
        dram: DeviceDram,
        /// One page of DRAM outside the store, for `write_from_dram`.
        staging: usize,
        store: PageStore,
        capacity: u64,
    }

    fn rig(nand_io: bool, nand: NandConfig) -> Rig {
        let nand = NandArray::new(nand);
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(17 * PAGE_SIZE);
        let staging = dram.alloc_region("staging", PAGE_SIZE).unwrap().offset;
        let store = PageStore::new(&mut dram, "log", nand_io, WRITE_COST, READ_COST);
        let capacity = if nand_io {
            ftl.capacity_pages()
        } else {
            DRAM_PAGES
        };
        Rig {
            nand,
            ftl,
            dram,
            staging,
            store,
            capacity,
        }
    }

    impl Rig {
        fn at(&mut self, now: Nanos) -> (&PageStore, FirmwareCtx<'_>) {
            let ctx = FirmwareCtx {
                nand: &mut self.nand,
                ftl: &mut self.ftl,
                dram: &mut self.dram,
                now,
            };
            (&self.store, ctx)
        }

        fn write(&mut self, lpn: u64, page: &[u8], now: Nanos) -> Result<Nanos, Status> {
            let (store, mut ctx) = self.at(now);
            store.write(&mut ctx, lpn, page, now)
        }

        /// `write_from_dram` of the first `len` bytes of the staging page.
        fn write_staged(&mut self, lpn: u64, len: usize, now: Nanos) -> Result<Nanos, Status> {
            let src = self.staging;
            let (store, mut ctx) = self.at(now);
            store.write_from_dram(&mut ctx, lpn, src, len, now)
        }

        fn read(
            &mut self,
            lpn: u64,
            off: usize,
            len: usize,
            now: Nanos,
        ) -> Result<Vec<u8>, Status> {
            let (store, mut ctx) = self.at(now);
            let mut out = vec![0xEE];
            store.read_range(&mut ctx, lpn, off, len, now, &mut out)?;
            assert_eq!(out.remove(0), 0xEE, "read_range appends");
            Ok(out)
        }
    }

    fn page(fill: u8) -> Vec<u8> {
        (0..PAGE_SIZE).map(|i| fill ^ i as u8).collect()
    }

    /// The one script both backends must pass.
    #[test]
    fn both_backends_honour_the_contract() {
        for nand_io in [true, false] {
            let mut r = rig(nand_io, NandConfig::small());
            let mut t = Nanos::ZERO;
            // Write, overwrite, whole and ranged reads.
            for lpn in 0..3 {
                t = r.write(lpn, &page(lpn as u8), t).unwrap();
            }
            t = r.write(1, &page(0x55), t).unwrap();
            assert_eq!(r.read(0, 0, PAGE_SIZE, t).unwrap(), page(0));
            assert_eq!(r.read(1, 100, 28, t).unwrap(), page(0x55)[100..128]);
            assert_eq!(
                r.read(2, PAGE_SIZE - 4, 4, t).unwrap(),
                page(2)[PAGE_SIZE - 4..]
            );
            assert!(r.read(2, PAGE_SIZE - 4, 5, t).is_err(), "past the page end");
            // A page staged in DRAM lands without leaving it first.
            r.dram.write(r.staging, &page(0x77)).unwrap();
            t = r.write_staged(3, PAGE_SIZE, t).unwrap();
            assert_eq!(r.read(3, 0, PAGE_SIZE, t).unwrap(), page(0x77));
            // A short write, over a full page, reads back its bytes and then
            // zeros, whichever entry point wrote it.
            let mut short = page(0x31);
            short[100..].fill(0);
            t = r.write(3, &short[..100], t).unwrap();
            assert_eq!(r.read(3, 0, PAGE_SIZE, t).unwrap(), short);
            t = r.write(2, &page(0x22), t).unwrap();
            t = r.write_staged(2, 40, t).unwrap();
            let mut staged = page(0x77);
            staged[40..].fill(0);
            assert_eq!(r.read(2, 0, PAGE_SIZE, t).unwrap(), staged);
            assert_eq!(
                r.write(2, &[0; PAGE_SIZE + 1], t),
                Err(Status::InternalError)
            );
            // The last page fits; one past it does not, by any entry point.
            let (last, past) = (r.capacity - 1, r.capacity);
            t = r.write(last, &page(0xAB), t).unwrap();
            assert_eq!(r.write(past, &page(0), t), Err(Status::CapacityExceeded));
            assert_eq!(r.read(past, 0, 1, t), Err(Status::CapacityExceeded));
            assert_eq!(
                r.write_staged(past, PAGE_SIZE, t),
                Err(Status::CapacityExceeded)
            );
            // Costs: NAND time on NAND, the personality's DRAM costs off it.
            let done = r.write(4, &page(4), t).unwrap();
            if nand_io {
                assert!(done - t >= r.nand.config().program_latency);
                assert!(r.nand.stats().programs > 0 && r.nand.stats().reads > 0);
            } else {
                assert_eq!(done - t, WRITE_COST);
                assert_eq!(r.nand.stats(), Default::default(), "NAND untouched");
            }
            // A power cut keeps the written prefix of NAND, nothing of DRAM.
            r.nand.power_cut(done);
            r.ftl.power_fail(done);
            r.dram.wipe();
            r.ftl.recover(&r.nand);
            let (store, ctx) = r.at(done);
            assert_eq!(store.persisted_prefix(&ctx), if nand_io { 5 } else { 0 });
        }
    }

    #[test]
    fn nand_on_claims_no_dram_log() {
        for (nand_io, left) in [(true, 16), (false, 8)] {
            let r = rig(nand_io, NandConfig::small());
            assert_eq!(r.dram.remaining(), left * PAGE_SIZE, "nand_io {nand_io}");
        }
    }

    /// The array would drop the bytes and read back zeros: fail, never ack.
    #[test]
    fn nand_store_over_a_disabled_array_fails() {
        let mut r = rig(true, NandConfig::disabled());
        assert_eq!(
            r.write(0, &page(1), Nanos::ZERO),
            Err(Status::InternalError)
        );
        assert_eq!(
            r.write_staged(0, PAGE_SIZE, Nanos::ZERO),
            Err(Status::InternalError)
        );
        assert_eq!(r.read(0, 0, 8, Nanos::ZERO), Err(Status::InternalError));
    }
}
