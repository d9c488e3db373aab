//! An LSM-tree key-value firmware — the device-side engine of the paper's
//! KV-SSD baseline (Lee et al., SYSTOR '23: an iterator-interface-extended
//! LSM KVSSD), as an alternative to the hash-indexed log of
//! [`crate::KvFirmware`].
//!
//! Structure:
//!
//! * a DRAM **memtable** (`BTreeMap`, tombstones as `None`) bounded by a byte
//!   budget;
//! * **sorted runs** in a [`PageStore`] (NAND, or a DRAM log with NAND off):
//!   L0 holds flushed memtables (overlapping key ranges, newest last), L1 is
//!   a single merged, tombstone-free run;
//! * **compaction**: when L0 exceeds its run budget, all of L0 merges with
//!   L1 into a fresh L1 run, and the old runs' pages are TRIMmed back to the
//!   store — so on NAND compaction traffic and GC interact the way they do
//!   on a real device, and put-latency tails show flush/compaction spikes;
//! * **range scans**: the `KvRangeScan` command streams ordered key-value
//!   pairs from any start key — the iterator extension that motivates the
//!   baseline KVSSD.
//!
//! Durability note: like the real device's DRAM memtable, unflushed entries
//! are volatile — a power cut drops the memtable, and a key that was only
//! there reads back absent (or as the older version a run still holds),
//! never torn. This engine does not implement index recovery (the
//! [`crate::KvFirmware`] engine demonstrates log-replay recovery): the run
//! directory (`l0`, `l1`, the free-LPN list) is modelled as a durable
//! manifest that survives the cut as it is, so flushed runs stay readable
//! wherever their pages do — on NAND; the NAND-off DRAM log is wiped with
//! the rest of DRAM and its runs read back empty.

use crate::firmware::{key_from_sqe, KvTiming, PaddedKey, MAX_KEY_LEN, MAX_VALUE_LEN};
use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_nvme::{IoOpcode, Status, SubmissionEntry};
use bx_ssd::{CommandOutcome, DeviceDram, FirmwareCtx, FirmwareHandler, PageStore};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Entries produced by a range scan, in key order.
type ScanResults = Vec<(PaddedKey, Vec<u8>)>;

/// Vendor opcode for ordered range scans (LSM engine only).
pub(crate) const KV_RANGE_SCAN_OPCODE: u8 = 0xC7;

/// Entry header inside a run page: key + flags + value length.
const RUN_ENTRY_HEADER: usize = MAX_KEY_LEN + 1 + 2;
const FLAG_TOMBSTONE: u8 = 1;

/// How many L0 runs accumulate before compaction into L1.
const L0_RUN_BUDGET: usize = 4;

/// LSM activity counters, shared with the host handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// PUT commands handled.
    pub puts: u64,
    /// GET commands handled.
    pub gets: u64,
    /// GETs that found a (live) key.
    pub hits: u64,
    /// DELETE commands handled (tombstone writes).
    pub deletes: u64,
    /// Memtable flushes (L0 run creations).
    pub flushes: u64,
    /// L0→L1 compactions.
    pub compactions: u64,
    /// Run pages written (flush + compaction; write amplification source).
    pub pages_written: u64,
    /// Run pages read (gets + scans + compaction input).
    pub pages_read: u64,
    /// Range-scan commands served.
    pub range_scans: u64,
}

#[derive(Debug, Clone)]
struct RunMeta {
    first: PaddedKey,
    last: PaddedKey,
    pages: Vec<u64>,
    /// First key of each page, for page-level binary search.
    page_index: Vec<PaddedKey>,
}

/// The LSM firmware personality.
#[derive(Debug)]
pub(crate) struct LsmKvFirmware {
    /// Run pages.
    pages: PageStore,
    timing: KvTiming,
    memtable: BTreeMap<PaddedKey, Option<Vec<u8>>>,
    memtable_bytes: usize,
    memtable_budget: usize,
    /// L0 runs, oldest first.
    l0: Vec<RunMeta>,
    /// The single merged L1 run.
    l1: Option<RunMeta>,
    next_lpn: u64,
    free_lpns: Vec<u64>,
    stats: Rc<RefCell<LsmStats>>,
}

impl LsmKvFirmware {
    /// Creates the firmware, claiming its DRAM regions and sharing `stats`
    /// with the host handle.
    pub(crate) fn with_stats(
        dram: &mut DeviceDram,
        nand_io: bool,
        stats: Rc<RefCell<LsmStats>>,
    ) -> Self {
        let timing = KvTiming::default();
        LsmKvFirmware {
            pages: PageStore::new(
                dram,
                "lsm-dram-log",
                nand_io,
                timing.log_append,
                timing.dram_read,
            ),
            timing,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            memtable_budget: 32 << 10,
            l0: Vec::new(),
            l1: None,
            next_lpn: 0,
            free_lpns: Vec::new(),
            stats,
        }
    }

    // --- run pages ---

    fn alloc_lpn(&mut self) -> u64 {
        self.free_lpns.pop().unwrap_or_else(|| {
            let l = self.next_lpn;
            self.next_lpn += 1;
            l
        })
    }

    fn write_page(
        &mut self,
        ctx: &mut FirmwareCtx<'_>,
        lpn: u64,
        page: &[u8],
        now: Nanos,
    ) -> Result<Nanos, Status> {
        self.stats.borrow_mut().pages_written += 1;
        self.pages.write(ctx, lpn, page, now)
    }

    fn read_page(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        lpn: u64,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos), Status> {
        self.stats.borrow_mut().pages_read += 1;
        let mut page = Vec::with_capacity(PAGE_SIZE);
        let done = self
            .pages
            .read_range(ctx, lpn, 0, PAGE_SIZE, now, &mut page)?;
        Ok((page, done))
    }

    fn free_run(&mut self, ctx: &mut FirmwareCtx<'_>, run: RunMeta) {
        for lpn in run.pages {
            self.pages.trim(ctx, lpn);
            self.free_lpns.push(lpn);
        }
    }

    // --- run encode/decode ---

    fn encode_run(entries: &[(PaddedKey, Option<Vec<u8>>)]) -> (Vec<Vec<u8>>, Vec<PaddedKey>) {
        let mut pages = Vec::new();
        let mut page_index = Vec::new();
        let mut page = vec![0u8; PAGE_SIZE];
        let mut off = 4usize;
        let mut count = 0u32;
        let mut first_in_page: Option<PaddedKey> = None;

        let finish = |page: &mut Vec<u8>,
                      off: &mut usize,
                      count: &mut u32,
                      first: &mut Option<PaddedKey>,
                      pages: &mut Vec<Vec<u8>>,
                      page_index: &mut Vec<PaddedKey>| {
            if *count > 0 {
                page[..4].copy_from_slice(&count.to_le_bytes());
                pages.push(std::mem::replace(page, vec![0u8; PAGE_SIZE]));
                #[expect(
                    clippy::expect_used,
                    reason = "count > 0 implies first was set when the first entry was appended to this page"
                )]
                page_index.push(first.take().expect("page has entries"));
                *off = 4;
                *count = 0;
            }
        };

        for (key, value) in entries {
            let vlen = value.as_ref().map_or(0, Vec::len);
            let need = RUN_ENTRY_HEADER + vlen;
            if off + need > PAGE_SIZE {
                finish(
                    &mut page,
                    &mut off,
                    &mut count,
                    &mut first_in_page,
                    &mut pages,
                    &mut page_index,
                );
            }
            if first_in_page.is_none() {
                first_in_page = Some(*key);
            }
            page[off..off + MAX_KEY_LEN].copy_from_slice(key);
            page[off + MAX_KEY_LEN] = if value.is_none() { FLAG_TOMBSTONE } else { 0 };
            page[off + MAX_KEY_LEN + 1..off + RUN_ENTRY_HEADER]
                .copy_from_slice(&(vlen as u16).to_le_bytes());
            if let Some(v) = value {
                page[off + RUN_ENTRY_HEADER..off + need].copy_from_slice(v);
            }
            off += need;
            count += 1;
        }
        finish(
            &mut page,
            &mut off,
            &mut count,
            &mut first_in_page,
            &mut pages,
            &mut page_index,
        );
        (pages, page_index)
    }

    fn decode_page(page: &[u8]) -> Vec<(PaddedKey, Option<Vec<u8>>)> {
        let count = u32::from_le_bytes([page[0], page[1], page[2], page[3]]) as usize;
        let mut out = Vec::with_capacity(count);
        let mut off = 4usize;
        for _ in 0..count {
            let mut key = [0u8; MAX_KEY_LEN];
            key.copy_from_slice(&page[off..off + MAX_KEY_LEN]);
            let tombstone = page[off + MAX_KEY_LEN] & FLAG_TOMBSTONE != 0;
            let vlen =
                u16::from_le_bytes([page[off + MAX_KEY_LEN + 1], page[off + MAX_KEY_LEN + 2]])
                    as usize;
            off += RUN_ENTRY_HEADER;
            let value = (!tombstone).then(|| page[off..off + vlen].to_vec());
            out.push((key, value));
            off += vlen;
        }
        out
    }

    // --- core operations ---

    fn write_run(
        &mut self,
        ctx: &mut FirmwareCtx<'_>,
        entries: &[(PaddedKey, Option<Vec<u8>>)],
        mut now: Nanos,
    ) -> Result<(RunMeta, Nanos), Status> {
        debug_assert!(!entries.is_empty());
        let (pages, page_index) = Self::encode_run(entries);
        let mut lpns = Vec::with_capacity(pages.len());
        for page in &pages {
            let lpn = self.alloc_lpn();
            now = self.write_page(ctx, lpn, page, now)?;
            lpns.push(lpn);
        }
        Ok((
            RunMeta {
                first: entries[0].0,
                last: entries[entries.len() - 1].0,
                pages: lpns,
                page_index,
            },
            now,
        ))
    }

    fn flush_memtable(&mut self, ctx: &mut FirmwareCtx<'_>, now: Nanos) -> Result<Nanos, Status> {
        if self.memtable.is_empty() {
            return Ok(now);
        }
        let entries: Vec<(PaddedKey, Option<Vec<u8>>)> =
            std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        let (run, mut now) = self.write_run(ctx, &entries, now)?;
        self.l0.push(run);
        self.stats.borrow_mut().flushes += 1;
        if self.l0.len() > L0_RUN_BUDGET {
            now = self.compact(ctx, now)?;
        }
        Ok(now)
    }

    /// Merges every L0 run with L1 into a fresh L1 run; tombstones drop out
    /// (L1 is the bottom level).
    fn compact(&mut self, ctx: &mut FirmwareCtx<'_>, mut now: Nanos) -> Result<Nanos, Status> {
        let mut merged: BTreeMap<PaddedKey, Option<Vec<u8>>> = BTreeMap::new();
        // Oldest to newest: L1 first, then L0 runs in age order, so newer
        // versions overwrite older ones.
        let sources: Vec<RunMeta> = self
            .l1
            .take()
            .into_iter()
            .chain(std::mem::take(&mut self.l0))
            .collect();
        for run in &sources {
            for &lpn in &run.pages {
                let (page, t) = self.read_page(ctx, lpn, now)?;
                now = t;
                for (key, value) in Self::decode_page(&page) {
                    merged.insert(key, value);
                }
            }
        }
        // Bottom level: tombstones are resolved.
        let live: Vec<(PaddedKey, Option<Vec<u8>>)> =
            merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        for run in sources {
            self.free_run(ctx, run);
        }
        if !live.is_empty() {
            let (run, t) = self.write_run(ctx, &live, now)?;
            now = t;
            self.l1 = Some(run);
        }
        self.stats.borrow_mut().compactions += 1;
        Ok(now)
    }

    fn upsert(
        &mut self,
        ctx: &mut FirmwareCtx<'_>,
        key: PaddedKey,
        value: Option<Vec<u8>>,
    ) -> CommandOutcome {
        let mut now = ctx.now + self.timing.index_op;
        let entry_bytes = RUN_ENTRY_HEADER + value.as_ref().map_or(0, Vec::len);
        if let Some(v) = &value {
            if v.len() > MAX_VALUE_LEN {
                return CommandOutcome::fail(Status::KvInvalidSize, now);
            }
        }
        if self.memtable_bytes + entry_bytes > self.memtable_budget {
            match self.flush_memtable(ctx, now) {
                Ok(t) => now = t,
                Err(s) => return CommandOutcome::fail(s, now),
            }
        }
        // Replacements return the old entry's bytes to the budget.
        if let Some(old) = self.memtable.insert(key, value) {
            self.memtable_bytes -= RUN_ENTRY_HEADER + old.map_or(0, |v| v.len());
        }
        self.memtable_bytes += entry_bytes;
        CommandOutcome::ok(now + self.timing.log_append)
    }

    /// Looks `key` up through memtable → L0 (newest first) → L1.
    fn lookup(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        key: &PaddedKey,
        mut now: Nanos,
    ) -> Result<(Option<Vec<u8>>, Nanos), Status> {
        if let Some(entry) = self.memtable.get(key) {
            return Ok((entry.clone(), now + self.timing.dram_read));
        }
        for run in self.l0.iter().rev().chain(self.l1.iter()) {
            if *key < run.first || *key > run.last {
                continue;
            }
            // Page-level binary search on first keys.
            let page_pos = match run.page_index.binary_search(key) {
                Ok(i) => i,
                Err(0) => continue,
                Err(i) => i - 1,
            };
            let (page, t) = self.read_page(ctx, run.pages[page_pos], now)?;
            now = t;
            for (k, v) in Self::decode_page(&page) {
                if k == *key {
                    return Ok((v, now));
                }
            }
        }
        Ok((None, now))
    }

    /// Ordered scan from `start` (inclusive): merges memtable and all runs
    /// with newest-wins semantics, skipping tombstones, until `limit`
    /// entries or sources are exhausted.
    fn range_scan(
        &self,
        ctx: &mut FirmwareCtx<'_>,
        start: PaddedKey,
        limit: usize,
        mut now: Nanos,
    ) -> Result<(ScanResults, Nanos), Status> {
        // Merge via a BTreeMap seeded oldest→newest so newer versions win.
        let mut merged: BTreeMap<PaddedKey, Option<Vec<u8>>> = BTreeMap::new();
        let mut absorb_run =
            |run: &RunMeta, now: &mut Nanos, ctx: &mut FirmwareCtx<'_>| -> Result<(), Status> {
                if run.last < start {
                    return Ok(());
                }
                let start_page = match run.page_index.binary_search(&start) {
                    Ok(i) => i,
                    Err(0) => 0,
                    Err(i) => i - 1,
                };
                for &lpn in &run.pages[start_page..] {
                    let (page, t) = self.read_page(ctx, lpn, *now)?;
                    *now = t;
                    for (k, v) in Self::decode_page(&page) {
                        if k >= start {
                            merged.insert(k, v);
                        }
                    }
                    // Enough keys gathered to satisfy the limit even after
                    // tombstone removal? Keep a safety margin of one page.
                    if merged.len() >= limit * 2 + 64 {
                        break;
                    }
                }
                Ok(())
            };
        if let Some(l1) = &self.l1 {
            absorb_run(l1, &mut now, ctx)?;
        }
        for run in &self.l0 {
            absorb_run(run, &mut now, ctx)?;
        }
        for (k, v) in self.memtable.range(start..) {
            merged.insert(*k, v.clone());
        }
        let out: Vec<(PaddedKey, Vec<u8>)> = merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .take(limit)
            .collect();
        Ok((out, now + self.timing.dram_read))
    }
}

impl FirmwareHandler for LsmKvFirmware {
    fn on_power_cycle(&mut self, _ctx: FirmwareCtx<'_>) {
        // The memtable is DRAM: gone with the rest of it. The run directory
        // is the durable manifest (see the module header) and stays.
        self.memtable.clear();
        self.memtable_bytes = 0;
    }

    fn handle(
        &mut self,
        mut ctx: FirmwareCtx<'_>,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> CommandOutcome {
        let key = key_from_sqe(sqe);
        match sqe.io_opcode() {
            Some(IoOpcode::KvPut) => {
                let Some(value) = payload else {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                };
                let value = value.to_vec();
                let out = self.upsert(&mut ctx, key, Some(value));
                if out.status.is_success() {
                    self.stats.borrow_mut().puts += 1;
                }
                out
            }
            Some(IoOpcode::KvDelete) => {
                let out = self.upsert(&mut ctx, key, None);
                if out.status.is_success() {
                    self.stats.borrow_mut().deletes += 1;
                }
                out
            }
            Some(IoOpcode::KvGet) => {
                self.stats.borrow_mut().gets += 1;
                let start = ctx.now + self.timing.index_op;
                match self.lookup(&mut ctx, &key, start) {
                    Ok((Some(value), now)) => {
                        self.stats.borrow_mut().hits += 1;
                        CommandOutcome {
                            status: Status::Success,
                            result: value.len() as u32,
                            response: Some(value),
                            complete_at: now,
                        }
                    }
                    Ok((None, now)) => CommandOutcome::fail(Status::KvKeyNotFound, now),
                    Err(s) => CommandOutcome::fail(s, ctx.now),
                }
            }
            _ if sqe.opcode_raw() == KV_RANGE_SCAN_OPCODE => {
                self.stats.borrow_mut().range_scans += 1;
                let buf_len = sqe.data_len() as usize;
                if buf_len < 8 {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                }
                // Conservative entry budget: header + key per entry minimum.
                let limit = (sqe.cdw(14) as usize).clamp(1, 4096);
                let start = ctx.now + self.timing.index_op;
                match self.range_scan(&mut ctx, key, limit, start) {
                    Ok((entries, now)) => {
                        // Response: [count u32] then [key 16][vlen u16][value]*,
                        // truncated to what the buffer holds.
                        let mut resp = Vec::with_capacity(buf_len.min(1 << 20));
                        resp.extend_from_slice(&0u32.to_le_bytes());
                        let mut count = 0u32;
                        for (k, v) in &entries {
                            let need = MAX_KEY_LEN + 2 + v.len();
                            if resp.len() + need > buf_len {
                                break;
                            }
                            resp.extend_from_slice(k);
                            resp.extend_from_slice(&(v.len() as u16).to_le_bytes());
                            resp.extend_from_slice(v);
                            count += 1;
                        }
                        resp[..4].copy_from_slice(&count.to_le_bytes());
                        CommandOutcome {
                            status: Status::Success,
                            result: count,
                            response: Some(resp),
                            complete_at: now,
                        }
                    }
                    Err(s) => CommandOutcome::fail(s, ctx.now),
                }
            }
            _ => CommandOutcome::fail(Status::InvalidOpcode, ctx.now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::pad_key;
    use bx_ssd::{Ftl, NandArray, NandConfig};

    struct Rig {
        nand: NandArray,
        ftl: Ftl,
        dram: DeviceDram,
        fw: LsmKvFirmware,
    }

    fn rig(nand_io: bool) -> Rig {
        let nand = NandArray::new(NandConfig::small());
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(8 << 20);
        let fw = LsmKvFirmware::with_stats(&mut dram, nand_io, Default::default());
        Rig {
            nand,
            ftl,
            dram,
            fw,
        }
    }

    fn op(
        r: &mut Rig,
        opcode: u8,
        key: &[u8],
        payload: Option<&[u8]>,
        cdw14: u32,
        buf_len: u32,
    ) -> CommandOutcome {
        let mut sqe = SubmissionEntry::zeroed();
        sqe.set_opcode_raw(opcode);
        sqe.set_cid(1);
        sqe.set_nsid(1);
        let mut cdws = [0u32; 6];
        crate::firmware::key_into_cdws(&pad_key(key), &mut cdws);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        sqe.set_cdw(14, cdw14);
        if buf_len > 0 {
            sqe.set_data_len(buf_len);
        } else if let Some(p) = payload {
            sqe.set_data_len(p.len() as u32);
        }
        r.fw.handle(
            FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            &sqe,
            payload,
        )
    }

    fn put(r: &mut Rig, key: &[u8], value: &[u8]) -> CommandOutcome {
        op(r, IoOpcode::KvPut as u8, key, Some(value), 0, 0)
    }

    fn get(r: &mut Rig, key: &[u8]) -> CommandOutcome {
        op(r, IoOpcode::KvGet as u8, key, None, 0, 0)
    }

    fn delete(r: &mut Rig, key: &[u8]) -> CommandOutcome {
        op(r, IoOpcode::KvDelete as u8, key, None, 0, 0)
    }

    #[test]
    fn memtable_put_get() {
        let mut r = rig(true);
        put(&mut r, b"alpha", b"one");
        assert_eq!(get(&mut r, b"alpha").response.unwrap(), b"one");
        assert_eq!(get(&mut r, b"beta").status, Status::KvKeyNotFound);
    }

    #[test]
    fn flush_and_read_from_runs() {
        let mut r = rig(true);
        // ~100 B values; 32 KB budget → flush every ~270 entries.
        for i in 0..1000u32 {
            let out = put(
                &mut r,
                format!("key{i:05}").as_bytes(),
                &[(i % 251) as u8; 100],
            );
            assert!(out.status.is_success(), "{i}");
        }
        let stats = *r.fw.stats.borrow();
        assert!(stats.flushes >= 2, "flushes {}", stats.flushes);
        assert!(r.nand.stats().programs > 0);
        for i in (0..1000u32).step_by(97) {
            let out = get(&mut r, format!("key{i:05}").as_bytes());
            assert!(out.status.is_success(), "key{i:05}");
            assert_eq!(out.response.unwrap(), vec![(i % 251) as u8; 100]);
        }
    }

    #[test]
    fn compaction_merges_and_frees() {
        let mut r = rig(true);
        // Overwrite a key set whose working size exceeds the memtable
        // budget, forcing a flush per round, L0 buildup, and compaction
        // over heavily garbage-laden runs.
        for round in 0..40u8 {
            for i in 0..200u32 {
                put(&mut r, format!("k{i:04}").as_bytes(), &[round; 150]);
            }
        }
        let stats = *r.fw.stats.borrow();
        assert!(stats.compactions > 0, "compactions {}", stats.compactions);
        for i in (0..200u32).step_by(13) {
            let out = get(&mut r, format!("k{i:04}").as_bytes());
            assert_eq!(out.response.unwrap(), vec![39u8; 150], "k{i:04}");
        }
    }

    #[test]
    fn delete_is_a_tombstone_through_compaction() {
        let mut r = rig(true);
        for i in 0..300u32 {
            put(&mut r, format!("d{i:04}").as_bytes(), &[7u8; 100]);
        }
        delete(&mut r, b"d0042");
        assert_eq!(get(&mut r, b"d0042").status, Status::KvKeyNotFound);
        // Push enough data through to compact the tombstone away.
        for i in 0..2000u32 {
            put(&mut r, format!("fill{i:05}").as_bytes(), &[1u8; 100]);
        }
        assert_eq!(get(&mut r, b"d0042").status, Status::KvKeyNotFound);
        assert_eq!(get(&mut r, b"d0041").response.unwrap(), vec![7u8; 100]);
    }

    #[test]
    fn range_scan_is_ordered_and_merged() {
        let mut r = rig(true);
        // Data spread across runs and memtable.
        for i in (0..400u32).rev() {
            put(
                &mut r,
                format!("r{i:04}").as_bytes(),
                format!("v{i}").as_bytes(),
            );
        }
        // Overwrite some in the memtable to prove newest-wins.
        put(&mut r, b"r0100", b"newest");
        delete(&mut r, b"r0101");

        let out = op(&mut r, KV_RANGE_SCAN_OPCODE, b"r0099", None, 10, 4096);
        assert!(out.status.is_success());
        let data = out.response.unwrap();
        let count = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
        assert_eq!(count, 10);
        let mut off = 4;
        let mut keys = Vec::new();
        let mut values = Vec::new();
        for _ in 0..count {
            let key = data[off..off + 16].to_vec();
            let vlen = u16::from_le_bytes([data[off + 16], data[off + 17]]) as usize;
            values.push(data[off + 18..off + 18 + vlen].to_vec());
            keys.push(key);
            off += 18 + vlen;
        }
        // Ordered, starting at r0099, r0101 skipped (tombstone).
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(&keys[0][..5], b"r0099");
        assert_eq!(&keys[1][..5], b"r0100");
        assert_eq!(values[1], b"newest");
        assert_eq!(&keys[2][..5], b"r0102", "tombstoned key must be skipped");
    }

    #[test]
    fn nand_off_mode_works() {
        let mut r = rig(false);
        for i in 0..500u32 {
            put(&mut r, format!("m{i:04}").as_bytes(), &[3u8; 120]);
        }
        assert_eq!(r.nand.stats().programs, 0);
        assert_eq!(get(&mut r, b"m0123").response.unwrap(), vec![3u8; 120]);
    }

    #[test]
    fn compaction_trims_old_run_pages() {
        let mut r = rig(true);
        for round in 0..60u32 {
            for i in 0..150u32 {
                put(
                    &mut r,
                    format!("t{i:03}").as_bytes(),
                    &vec![round as u8; 250],
                );
            }
        }
        let stats = *r.fw.stats.borrow();
        assert!(stats.compactions >= 1);
        // Without trim+reuse, pages_written LPNs would march far past what
        // live data needs; with reuse the firmware recycles freed LPNs.
        assert!(
            !r.fw.free_lpns.is_empty() || r.fw.next_lpn < stats.pages_written,
            "compaction must recycle run pages (next_lpn {}, written {})",
            r.fw.next_lpn,
            stats.pages_written
        );
    }

    #[test]
    fn oversized_value_rejected() {
        let mut r = rig(true);
        assert_eq!(
            put(&mut r, b"big", &vec![0; MAX_VALUE_LEN + 1]).status,
            Status::KvInvalidSize
        );
    }
}
