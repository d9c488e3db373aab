//! Page-mapped flash translation layer with greedy garbage collection.
//!
//! The KV-SSD's value-log flush and the block firmware's LBA writes both land
//! here. The FTL stripes writes across dies for parallelism, maintains
//! per-block validity for GC, and relocates live pages from greedy-selected
//! victims when free blocks run low — enough FTL realism that NAND-on
//! benchmarks (Fig 6) include the background costs a real device would pay.
//!
//! Every mapping mutation is journaled ([`crate::journal::MapJournal`])
//! before it is acknowledged, and [`Ftl::recover`] rebuilds the full
//! translation state (map, per-block validity, free list, bad set) from the
//! newest durable checkpoint plus journal replay after a power cut — the
//! device-side half of the durable-linearizability contract.

use crate::journal::{JournalOp, MapJournal};
use crate::nand::{NandArray, NandError, PackedPpa, Ppa, PpaPacking};
use bx_hostsim::Nanos;
use bx_trace::{EventKind, TraceSink};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bound on claim→program attempts for one logical write before the FTL
/// gives up and surfaces the NAND failure (each failed attempt retires a
/// grown-bad block, so hitting this bound means the media is dying).
const MAX_PROGRAM_ATTEMPTS: u32 = 8;

/// Bound on bad-block migration recursion depth (a migration's destination
/// block can itself grow bad).
const MAX_REMAP_DEPTH: u32 = 4;

/// Errors from FTL operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtlError {
    /// Logical page number beyond the exported capacity.
    LpnOutOfRange {
        /// Offending LPN.
        lpn: u64,
        /// Exported capacity in pages.
        capacity: u64,
    },
    /// Read of a never-written logical page.
    Unmapped(u64),
    /// The device is out of space even after GC.
    NoFreeBlocks,
    /// Underlying NAND failure.
    Nand(NandError),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "lpn {lpn} out of range (capacity {capacity})")
            }
            FtlError::Unmapped(lpn) => write!(f, "lpn {lpn} unmapped"),
            FtlError::NoFreeBlocks => write!(f, "no free blocks"),
            FtlError::Nand(e) => write!(f, "nand error: {e}"),
        }
    }
}

impl std::error::Error for FtlError {}

impl From<NandError> for FtlError {
    fn from(e: NandError) -> Self {
        FtlError::Nand(e)
    }
}

#[derive(Debug, Clone)]
struct BlockInfo {
    /// Per-page validity; `None` entries are unwritten.
    owner: Vec<Option<u64>>,
    valid_count: u32,
    written: u32,
}

impl BlockInfo {
    fn new(pages: u32) -> Self {
        BlockInfo {
            owner: vec![None; pages as usize],
            valid_count: 0,
            written: 0,
        }
    }
}

/// `(die, block)` coordinate, ordered die-major so every ordered-map
/// traversal (GC victim scan, checkpoint bad-list, wear spread) visits
/// blocks in a stable, address-sorted order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct BlockId {
    die: usize,
    block: u32,
}

/// GC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host-initiated page writes.
    pub host_writes: u64,
    /// GC relocation page writes (write amplification source).
    pub gc_writes: u64,
    /// GC victim erases.
    pub gc_erases: u64,
    /// Trimmed (deallocated) logical pages.
    pub trims: u64,
    /// Blocks retired after a program failure (never erased or reused).
    pub bad_blocks: u64,
    /// Page writes remapped to a fresh block after a program failure.
    pub program_remaps: u64,
}

impl FtlStats {
    /// Write amplification factor: (host + gc writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_writes) as f64 / self.host_writes as f64
        }
    }
}

/// A page-mapped FTL over a [`NandArray`].
#[derive(Debug)]
pub struct Ftl {
    /// LPN → PPA map, four bytes a slot with `None` the all-zero pattern:
    /// it comes from the allocator zeroed and untouched, so building and
    /// recovering an FTL cost the pages a run mapped, not the exported
    /// capacity.
    map: Vec<Option<PackedPpa>>,
    packing: PpaPacking,
    /// Per-block bookkeeping, in address order.
    blocks: BTreeMap<BlockId, BlockInfo>,
    /// GC victim index: every sealed (fully written), non-retired block,
    /// ordered by `(valid_count, BlockId)`. The first entry is the greedy
    /// victim — fewest valid pages, ties to the lowest address — so picking
    /// one costs a tree descent, not a sweep of `blocks`. The order must not
    /// depend on a randomized hash: the victim choice reaches NAND timing,
    /// traces, and ultimately wire bytes.
    victims: BTreeSet<(u32, BlockId)>,
    /// Free (erased, unused) blocks per die.
    free_blocks: Vec<Vec<u32>>,
    /// Active (write frontier) block per die.
    active: Vec<Option<(u32, u32)>>, // (block, next_page)
    /// Round-robin die cursor for striping.
    die_cursor: usize,
    /// GC trigger: run GC when total free blocks drop below this.
    gc_threshold: usize,
    dies_per_channel: u16,
    pages_per_block: u32,
    exported_pages: u64,
    stats: FtlStats,
    /// Erase counts per (die, block) — the wear distribution.
    erase_counts: BTreeMap<BlockId, u32>,
    /// Grown-bad blocks: retired after a program failure, excluded from the
    /// free list and from GC victim selection forever. Pages programmed
    /// before the failure stay readable until migrated off. Ordered set so
    /// checkpoint bad-lists serialize in address order.
    bad: BTreeSet<BlockId>,
    /// The write-ahead mapping journal: acks wait for its records, recovery
    /// replays them.
    journal: MapJournal,
    /// The one page buffer every relocation (GC, bad-block migration) reads
    /// into and programs from.
    relocation_page: Vec<u8>,
    /// Flight-recorder sink (inert unless recording).
    trace: TraceSink,
}

/// What [`Ftl::recover`] reconstructed after a power cut.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a durable checkpoint seeded the map (vs. replay from empty).
    pub from_checkpoint: bool,
    /// Journal records replayed on top of the base state.
    pub replayed: u32,
    /// Replayed map updates whose target page was torn by the cut and fell
    /// back to the previous PPA (the last *acked* version).
    pub torn_mappings: u32,
    /// Logical pages mapped after recovery.
    pub recovered_mappings: u64,
}

impl Ftl {
    /// Creates an FTL over the array's geometry, exporting
    /// `1 - over_provision` of raw capacity as logical space.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < over_provision < 0.9`, and on a geometry whose
    /// page addresses do not fit the map's four-byte slot (2³¹ pages, 8 TB
    /// at 4 KB a page).
    pub fn new(nand: &NandArray, over_provision: f64) -> Self {
        assert!(
            over_provision > 0.0 && over_provision < 0.9,
            "over-provision must be in (0, 0.9)"
        );
        let cfg = nand.config();
        #[expect(
            clippy::expect_used,
            reason = "documented panic, beside the over-provision one: a geometry this large is a harness bug"
        )]
        let packing = cfg
            .ppa_packing()
            .expect("page addresses must fit the map's four-byte slot");
        let dies = cfg.total_dies();
        let exported = ((cfg.total_pages() as f64) * (1.0 - over_provision)).floor() as u64;
        let free_blocks: Vec<Vec<u32>> = (0..dies)
            .map(|_| (0..cfg.blocks_per_die).rev().collect())
            .collect();
        Ftl {
            map: vec![None; exported as usize],
            packing,
            blocks: BTreeMap::new(),
            victims: BTreeSet::new(),
            free_blocks,
            active: vec![None; dies],
            die_cursor: 0,
            gc_threshold: (dies * 2).max(4),
            dies_per_channel: cfg.dies_per_channel,
            pages_per_block: cfg.pages_per_block,
            exported_pages: exported,
            stats: FtlStats::default(),
            erase_counts: BTreeMap::new(),
            bad: BTreeSet::new(),
            journal: MapJournal::new(),
            relocation_page: Vec::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Installs a flight-recorder sink; each GC victim reclaimed emits an
    /// [`EventKind::GcCycle`] event. Disabled sinks cost nothing.
    pub(crate) fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.exported_pages
    }

    /// GC/write statistics.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Records currently live in the mapping journal (appended since the
    /// last checkpoint). The telemetry plane samples this as the
    /// `ftl_journal_depth` gauge.
    pub(crate) fn journal_depth(&self) -> usize {
        self.journal.live_records()
    }

    /// Whether `lpn` currently maps to a physical page. Firmware recovery
    /// uses this to re-derive volatile cursors (e.g. the KV log frontier)
    /// from the recovered map.
    pub fn is_mapped(&self, lpn: u64) -> bool {
        (lpn as usize) < self.map.len() && self.map[lpn as usize].is_some()
    }

    /// The wear spread: (min, max, mean) erase counts over blocks that have
    /// been erased at least once. Returns zeros before any GC.
    pub fn wear_spread(&self) -> (u32, u32, f64) {
        if self.erase_counts.is_empty() {
            return (0, 0, 0.0);
        }
        #[expect(
            clippy::expect_used,
            reason = "is_empty() returned false three lines up"
        )]
        let min = *self.erase_counts.values().min().expect("non-empty");
        #[expect(
            clippy::expect_used,
            reason = "is_empty() returned false three lines up"
        )]
        let max = *self.erase_counts.values().max().expect("non-empty");
        let mean = self.erase_counts.values().map(|&c| c as f64).sum::<f64>()
            / self.erase_counts.len() as f64;
        (min, max, mean)
    }

    fn die_to_ppa(&self, die: usize, block: u32, page: u32) -> Ppa {
        Ppa {
            channel: (die / self.dies_per_channel as usize) as u16,
            die: (die % self.dies_per_channel as usize) as u16,
            block,
            page,
        }
    }

    fn total_free_blocks(&self) -> usize {
        self.free_blocks.iter().map(Vec::len).sum()
    }

    /// Claims the next frontier page on some die (round-robin striping).
    fn claim_page(&mut self, lpn: u64) -> Result<Ppa, FtlError> {
        let dies = self.active.len();
        for _ in 0..dies {
            let die = self.die_cursor;
            self.die_cursor = (self.die_cursor + 1) % dies;

            if self.active[die].is_none() {
                if let Some(block) = self.free_blocks[die].pop() {
                    self.active[die] = Some((block, 0));
                    self.blocks
                        .insert(BlockId { die, block }, BlockInfo::new(self.pages_per_block));
                }
            }
            if let Some((block, page)) = self.active[die] {
                let ppa = self.die_to_ppa(die, block, page);
                let id = BlockId { die, block };
                #[expect(
                    clippy::expect_used,
                    reason = "active[die] entries are inserted into blocks in the branch above before use"
                )]
                let info = self.blocks.get_mut(&id).expect("active block tracked");
                info.owner[page as usize] = Some(lpn);
                info.valid_count += 1;
                info.written += 1;
                if page + 1 == self.pages_per_block {
                    self.active[die] = None;
                    self.victims.insert((info.valid_count, id));
                } else {
                    self.active[die] = Some((block, page + 1));
                }
                return Ok(ppa);
            }
        }
        Err(FtlError::NoFreeBlocks)
    }

    fn invalidate(&mut self, ppa: Ppa) {
        let die = ppa.channel as usize * self.dies_per_channel as usize + ppa.die as usize;
        let id = BlockId {
            die,
            block: ppa.block,
        };
        if let Some(info) = self.blocks.get_mut(&id) {
            if info.owner[ppa.page as usize].take().is_some() {
                // Re-key the block if it is in the victim index (open and
                // retired blocks are not).
                if self.victims.remove(&(info.valid_count, id)) {
                    self.victims.insert((info.valid_count - 1, id));
                }
                info.valid_count -= 1;
            }
        }
    }

    fn block_id_of(&self, ppa: Ppa) -> BlockId {
        BlockId {
            die: ppa.channel as usize * self.dies_per_channel as usize + ppa.die as usize,
            block: ppa.block,
        }
    }

    /// The physical `(channel, die)` coordinates of a die index.
    fn physical_of(&self, die: usize) -> (u16, u16) {
        (
            (die / self.dies_per_channel as usize) as u16,
            (die % self.dies_per_channel as usize) as u16,
        )
    }

    /// Retires a grown-bad block: it leaves the write frontier and never
    /// re-enters the free list or GC victim pool. Journaled so the block
    /// stays retired across power cycles.
    fn retire_block(&mut self, id: BlockId, now: Nanos) {
        if self.bad.insert(id) {
            self.stats.bad_blocks += 1;
            let (channel, die) = self.physical_of(id.die);
            self.journal.append(
                JournalOp::Retire {
                    channel,
                    die,
                    block: id.block,
                },
                Nanos::ZERO,
                now,
            );
        }
        if self.active[id.die].map(|(b, _)| b) == Some(id.block) {
            self.active[id.die] = None;
        }
        if let Some(info) = self.blocks.get(&id) {
            self.victims.remove(&(info.valid_count, id));
        }
    }

    /// Records one mapping update in the journal and installs it in the
    /// volatile map. `done` is the target page's program-complete instant;
    /// returns when the record itself is durable (the earliest allowed ack).
    fn commit_mapping(&mut self, lpn: u64, ppa: Ppa, done: Nanos, now: Nanos) -> Nanos {
        let prev = self.map[lpn as usize]
            .replace(self.packing.pack(ppa))
            .map(|old| self.packing.unpack(old));
        if let Some(old) = prev {
            self.invalidate(old);
        }
        self.journal
            .append(JournalOp::MapUpdate { lpn, ppa, prev }, done, now)
    }

    /// Claims a page and programs it, remapping on grown-bad blocks: a
    /// failed program retires the target block, migrates its live pages
    /// elsewhere, and retries the write on a fresh page (bounded attempts).
    fn program_remapped(
        &mut self,
        lpn: u64,
        data: &[u8],
        nand: &mut NandArray,
        mut now: Nanos,
        depth: u32,
    ) -> Result<(Ppa, Nanos), FtlError> {
        let mut last_failed = None;
        for _ in 0..MAX_PROGRAM_ATTEMPTS {
            let ppa = self.claim_page(lpn)?;
            match nand.program(ppa, data, now) {
                Ok(done) => return Ok((ppa, done)),
                Err(NandError::ProgramFailed(failed)) => {
                    last_failed = Some(failed);
                    // The claimed page never got data: unclaim it, then
                    // retire the block and rescue its earlier live pages.
                    self.invalidate(failed);
                    let id = self.block_id_of(failed);
                    self.retire_block(id, now);
                    if depth < MAX_REMAP_DEPTH {
                        now = self.migrate_block(id, nand, now, depth + 1)?;
                    }
                    self.stats.program_remaps += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(FtlError::Nand(NandError::ProgramFailed(
            #[expect(
                clippy::expect_used,
                reason = "retry loop bound is a compile-time positive constant, so the loop body ran and set last_failed"
            )]
            last_failed.expect("loop ran at least once"),
        )))
    }

    /// Moves every live page off a block — a retired one, or a GC victim.
    /// Data stays readable in place until its relocation lands, so a
    /// mid-migration error leaves no window where an acknowledged write is
    /// unreachable.
    fn migrate_block(
        &mut self,
        id: BlockId,
        nand: &mut NandArray,
        mut now: Nanos,
        depth: u32,
    ) -> Result<Nanos, FtlError> {
        // A relocation whose program fails migrates the failed block from
        // inside this loop; that nested pass finds the buffer taken and
        // grows its own.
        let mut page = std::mem::take(&mut self.relocation_page);
        let page_size = nand.config().page_size;
        for slot in 0..self.pages_per_block {
            let Some(lpn) = self.blocks.get(&id).and_then(|i| i.owner[slot as usize]) else {
                continue;
            };
            let src = self.die_to_ppa(id.die, id.block, slot);
            page.clear();
            now = nand.read_range(src, 0, page_size, now, &mut page)?;
            let (dst, t_prog) = self.program_remapped(lpn, &page, nand, now, depth)?;
            now = t_prog;
            self.commit_mapping(lpn, dst, t_prog, now);
            self.stats.gc_writes += 1;
        }
        self.relocation_page = page;
        Ok(now)
    }

    /// Writes one logical page. Runs GC first if free space is low.
    ///
    /// Returns the completion instant of the NAND program.
    ///
    /// # Errors
    ///
    /// * [`FtlError::LpnOutOfRange`] beyond the exported capacity.
    /// * [`FtlError::NoFreeBlocks`] if even GC cannot reclaim space.
    /// * [`FtlError::Nand`] on NAND-level failures.
    pub fn write(
        &mut self,
        lpn: u64,
        data: &[u8],
        nand: &mut NandArray,
        now: Nanos,
    ) -> Result<Nanos, FtlError> {
        if lpn >= self.exported_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            });
        }
        let mut now = now;
        if self.total_free_blocks() < self.gc_threshold {
            now = self.collect_garbage(nand, now)?;
        }
        let (ppa, done) = self.program_remapped(lpn, data, nand, now, 0)?;
        let durable = self.commit_mapping(lpn, ppa, done, now);
        self.stats.host_writes += 1;
        self.maybe_checkpoint(now);
        // Durable-linearizability ack point: both the data program and its
        // journal record must be on the medium before the host sees success.
        Ok(done.max(durable))
    }

    /// Reads one logical page and appends bytes `off..off + len` of it to
    /// `out` (see `NandArray::read_range`); returns the completion instant.
    ///
    /// # Errors
    ///
    /// * [`FtlError::LpnOutOfRange`] beyond capacity.
    /// * [`FtlError::Unmapped`] if never written.
    /// * [`FtlError::Nand`] on NAND-level failures, a range past the page
    ///   end included.
    pub fn read_range(
        &mut self,
        lpn: u64,
        off: usize,
        len: usize,
        nand: &mut NandArray,
        now: Nanos,
        out: &mut Vec<u8>,
    ) -> Result<Nanos, FtlError> {
        if lpn >= self.exported_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            });
        }
        let ppa = self.map[lpn as usize].ok_or(FtlError::Unmapped(lpn))?;
        Ok(nand.read_range(self.packing.unpack(ppa), off, len, now, out)?)
    }

    /// Invalidates a logical page (TRIM/deallocate): the mapping is dropped
    /// and the physical page becomes garbage for GC to reclaim. Subsequent
    /// reads of `lpn` return [`FtlError::Unmapped`]. The deallocation is
    /// journaled, so it survives a power cut; the returned instant is when
    /// the record is durable (`now` for a no-op trim).
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] beyond the exported capacity. Trimming an
    /// unmapped page is a harmless no-op (as in NVMe Dataset Management).
    pub fn trim(&mut self, lpn: u64, now: Nanos) -> Result<Nanos, FtlError> {
        if lpn >= self.exported_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            });
        }
        if let Some(ppa) = self.map[lpn as usize].take() {
            self.invalidate(self.packing.unpack(ppa));
            self.stats.trims += 1;
            return Ok(self
                .journal
                .append(JournalOp::Trim { lpn }, Nanos::ZERO, now));
        }
        Ok(now)
    }

    /// Runs greedy GC until free blocks exceed the threshold (or no victim
    /// remains). Returns the advanced time.
    fn collect_garbage(&mut self, nand: &mut NandArray, mut now: Nanos) -> Result<Nanos, FtlError> {
        while self.total_free_blocks() < self.gc_threshold {
            // Greedy victim: the sealed block with the fewest valid pages,
            // valid-count ties broken toward the lowest (die, block) — the
            // victim sequence is reproducible run-to-run.
            let Some(&(valid_count, victim)) = self.victims.first() else {
                // Nothing reclaimable.
                break;
            };
            // A victim with every page still valid cannot reclaim space.
            if valid_count == self.pages_per_block {
                break;
            }
            // Relocate its `valid_count` live pages.
            now = self.migrate_block(victim, nand, now, 0)?;
            // Never destroy the old copy of a page before its replacement —
            // data *and* the journal record naming it — is on the medium: a
            // cut between erase and relocation-durable would otherwise lose
            // an acknowledged write with no fallback.
            now = now
                .max(self.journal.durable_horizon())
                .max(nand.program_horizon());
            let ppa0 = self.die_to_ppa(victim.die, victim.block, 0);
            now = nand.erase(ppa0.channel, ppa0.die, victim.block, now)?;
            if let Some(info) = self.blocks.remove(&victim) {
                self.victims.remove(&(info.valid_count, victim));
            }
            self.free_blocks[victim.die].push(victim.block);
            self.stats.gc_erases += 1;
            *self.erase_counts.entry(victim).or_insert(0) += 1;
            self.trace.emit(None, || EventKind::GcCycle {
                moved_pages: valid_count,
                erased_blocks: 1,
            });
        }
        Ok(now)
    }

    /// Writes a checkpoint when the journal's live tail crosses the
    /// threshold, bounding replay length after a cut.
    fn maybe_checkpoint(&mut self, now: Nanos) {
        if !self.journal.needs_checkpoint() {
            return;
        }
        let bad: Vec<(u16, u16, u32)> = self
            .bad
            .iter()
            .map(|id| {
                let (channel, die) = self.physical_of(id.die);
                (channel, die, id.block)
            })
            .collect();
        self.journal.write_checkpoint(&self.map, bad, now);
    }

    /// A power cut at instant `at`: the journal loses in-flight appends and
    /// checkpoints. The volatile translation state (map, block table, write
    /// frontiers) is DRAM-resident and gone too — [`Ftl::recover`] rebuilds
    /// it; until then the FTL must not be used.
    pub fn power_fail(&mut self, at: Nanos) {
        self.journal.power_cut(at);
    }

    /// Rebuilds the full translation state after a power cut: seed the map
    /// and bad-block set from the newest durable checkpoint (if any), replay
    /// the surviving journal tail on top — falling back to a record's
    /// previous PPA when the cut tore its target page — then reconstruct
    /// per-block validity and the free list from the recovered map and the
    /// NAND array's page states.
    pub fn recover(&mut self, nand: &NandArray) -> RecoveryReport {
        let cfg = nand.config();
        let dies = self.active.len();
        let pages = self.pages_per_block;
        let dpc = self.dies_per_channel as usize;

        // A fresh zeroed map, the old one freed first: see the field.
        self.map = Vec::new();
        self.map = vec![None; self.exported_pages as usize];
        self.blocks.clear();
        self.active = vec![None; dies];
        self.die_cursor = 0;
        self.bad.clear();

        let mut report = RecoveryReport::default();
        // Only slots below this bound can be mapped: the checkpoint's image
        // and the journal's records name no others.
        let mut named = 0;
        let from_seq = match self.journal.recovery_base() {
            Some(cp) => {
                report.from_checkpoint = true;
                named = cp.map.len().min(self.map.len());
                self.map[..named].copy_from_slice(&cp.map[..named]);
                for &(channel, die, block) in &cp.bad {
                    self.bad.insert(BlockId {
                        die: channel as usize * dpc + die as usize,
                        block,
                    });
                }
                cp.covers_below
            }
            None => 0,
        };

        let (records, _torn_tail) = self.journal.replayable(from_seq);
        for rec in &records {
            report.replayed += 1;
            match rec.op {
                JournalOp::MapUpdate { lpn, ppa, prev } => {
                    let slot = lpn as usize;
                    if slot >= self.map.len() {
                        continue;
                    }
                    named = named.max(slot + 1);
                    if nand.has_data(ppa) {
                        self.map[slot] = Some(self.packing.pack(ppa));
                    } else {
                        // The cut tore the target program: the update was
                        // never acked, so surface the previous (last acked)
                        // version — or nothing if that is torn too, which
                        // means *it* was never acked either.
                        report.torn_mappings += 1;
                        self.map[slot] = prev
                            .filter(|&p| nand.has_data(p))
                            .map(|p| self.packing.pack(p));
                    }
                }
                JournalOp::Trim { lpn } => {
                    if (lpn as usize) < self.map.len() {
                        self.map[lpn as usize] = None;
                    }
                }
                JournalOp::Retire {
                    channel,
                    die,
                    block,
                } => {
                    self.bad.insert(BlockId {
                        die: channel as usize * dpc + die as usize,
                        block,
                    });
                }
            }
        }
        self.journal.truncate_torn();

        // Rebuild per-block validity from the recovered map. Every block
        // holding data is sealed (written == pages_per_block): the cut may
        // have burned frontier pages mid-program, so a write frontier never
        // resumes inside a used block after recovery.
        for (lpn, slot) in self.map[..named].iter().enumerate() {
            let Some(ppa) = slot.map(|packed| self.packing.unpack(packed)) else {
                continue;
            };
            report.recovered_mappings += 1;
            let id = BlockId {
                die: ppa.channel as usize * dpc + ppa.die as usize,
                block: ppa.block,
            };
            let info = self.blocks.entry(id).or_insert_with(|| {
                let mut b = BlockInfo::new(pages);
                b.written = pages;
                b
            });
            if info.owner[ppa.page as usize].replace(lpn as u64).is_none() {
                info.valid_count += 1;
            }
        }
        // Non-erased blocks with no live pages become zero-valid sealed
        // blocks: immediately reclaimable GC victims.
        let mut free: Vec<Vec<u32>> = Vec::with_capacity(dies);
        for die in 0..dies {
            let (channel, phys_die) = self.physical_of(die);
            let mut die_free = Vec::new();
            for block in (0..cfg.blocks_per_die).rev() {
                let id = BlockId { die, block };
                if self.blocks.contains_key(&id) || self.bad.contains(&id) {
                    continue;
                }
                if nand.is_block_erased(channel, phys_die, block) {
                    die_free.push(block);
                } else {
                    let mut b = BlockInfo::new(pages);
                    b.written = pages;
                    self.blocks.insert(id, b);
                }
            }
            free.push(die_free);
        }
        self.free_blocks = free;
        self.stats.bad_blocks = self.bad.len() as u64;
        // Every block that survived holds data and is sealed.
        self.victims = self
            .blocks
            .iter()
            .filter(|(id, _)| !self.bad.contains(id))
            .map(|(id, info)| (info.valid_count, *id))
            .collect();

        self.trace.emit(None, || EventKind::JournalReplay {
            replayed: report.replayed,
            torn_mappings: report.torn_mappings,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nand::NandConfig;

    fn tiny_nand() -> NandArray {
        // 2 channels × 1 die × 8 blocks × 8 pages: GC triggers fast.
        NandArray::new(NandConfig {
            channels: 2,
            dies_per_channel: 1,
            blocks_per_die: 8,
            pages_per_block: 8,
            ..NandConfig::small()
        })
    }

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; 4096]
    }

    /// The whole page at `lpn`, through `read_range`.
    fn read(
        ftl: &mut Ftl,
        lpn: u64,
        nand: &mut NandArray,
        now: Nanos,
    ) -> Result<(Vec<u8>, Nanos), FtlError> {
        let mut data = Vec::new();
        let done = ftl.read_range(lpn, 0, nand.config().page_size, nand, now, &mut data)?;
        Ok((data, done))
    }

    #[test]
    fn write_read_round_trip() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let t = ftl.write(3, &page(0x5A), &mut nand, Nanos::ZERO).unwrap();
        let (data, _) = read(&mut ftl, 3, &mut nand, t).unwrap();
        assert_eq!(data, page(0x5A));
    }

    #[test]
    fn overwrite_returns_newest() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for i in 0..5u8 {
            t = ftl.write(0, &page(i), &mut nand, t).unwrap();
        }
        let (data, _) = read(&mut ftl, 0, &mut nand, t).unwrap();
        assert_eq!(data, page(4));
    }

    #[test]
    fn unmapped_read_is_error() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        assert_eq!(
            read(&mut ftl, 0, &mut nand, Nanos::ZERO).unwrap_err(),
            FtlError::Unmapped(0)
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let cap = ftl.capacity_pages();
        assert!(matches!(
            ftl.write(cap, &page(0), &mut nand, Nanos::ZERO),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn gc_reclaims_under_overwrite_pressure() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        // Hammer a tiny working set far beyond raw capacity: without GC this
        // would exhaust the 128 raw pages immediately.
        for i in 0..600u32 {
            let lpn = (i % 4) as u64;
            t = ftl.write(lpn, &page(i as u8), &mut nand, t).unwrap();
        }
        assert!(ftl.stats().gc_erases > 0, "GC should have run");
        for lpn in 0..4u64 {
            let expected = (596 + lpn as u32) as u8; // last write of each lpn
            let (data, _) = read(&mut ftl, lpn, &mut nand, t).unwrap();
            assert_eq!(data, page(expected), "lpn {lpn}");
        }
    }

    #[test]
    fn gc_preserves_cold_data() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        // Cold pages written once.
        for lpn in 0..8u64 {
            t = ftl
                .write(lpn, &page(100 + lpn as u8), &mut nand, t)
                .unwrap();
        }
        // Hot page hammered to force GC cycles.
        for i in 0..500u32 {
            t = ftl.write(20, &page(i as u8), &mut nand, t).unwrap();
        }
        for lpn in 0..8u64 {
            let (data, _) = read(&mut ftl, lpn, &mut nand, t).unwrap();
            assert_eq!(
                data,
                page(100 + lpn as u8),
                "cold lpn {lpn} corrupted by GC"
            );
        }
    }

    #[test]
    fn gc_relocation_and_recovery_keep_every_page_shape() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        let shapes: Vec<Vec<u8>> = crate::nand::shaped_pages()
            .into_iter()
            .map(|(_, page)| page)
            .collect();
        // Fill the exported space, then overwrite with a stride that leaves
        // every block part valid: GC has to relocate pages of every shape.
        let lpns = ftl.capacity_pages();
        let mut holds: Vec<usize> = (0..lpns as usize).map(|lpn| lpn % shapes.len()).collect();
        for (lpn, &shape) in holds.iter().enumerate() {
            t = ftl.write(lpn as u64, &shapes[shape], &mut nand, t).unwrap();
        }
        for i in 0..600usize {
            let lpn = i * 37 % lpns as usize;
            holds[lpn] = (holds[lpn] + 1) % shapes.len();
            t = ftl
                .write(lpn as u64, &shapes[holds[lpn]], &mut nand, t)
                .unwrap();
        }
        assert!(ftl.stats().gc_writes > 100, "GC must have relocated pages");
        for (lpn, &shape) in holds.iter().enumerate() {
            let (back, _) = read(&mut ftl, lpn as u64, &mut nand, t).unwrap();
            assert_eq!(back, shapes[shape], "lpn {lpn} after GC relocation");
        }
        // An all-zero page is data, not a torn page: it survives recovery.
        nand.power_cut(t);
        ftl.power_fail(t);
        let report = ftl.recover(&nand);
        assert_eq!(report.recovered_mappings, lpns);
        for (lpn, &shape) in holds.iter().enumerate() {
            let (back, _) = read(&mut ftl, lpn as u64, &mut nand, t).unwrap();
            assert_eq!(back, shapes[shape], "lpn {lpn} after recovery");
        }
    }

    /// The victim a sweep of the whole block table picks: the reference the
    /// index replaced.
    fn full_scan_victim(ftl: &Ftl) -> Option<BlockId> {
        ftl.blocks
            .iter()
            .filter(|(id, info)| {
                info.written == ftl.pages_per_block
                    && ftl.active[id.die].map(|(b, _)| b) != Some(id.block)
                    && !ftl.bad.contains(id)
            })
            .min_by_key(|(_, info)| info.valid_count)
            .map(|(id, _)| *id)
    }

    /// The victim index holds exactly the blocks the sweep would consider,
    /// keyed by their current valid counts.
    fn assert_index_matches_full_scan(ftl: &Ftl) {
        let scanned: BTreeSet<(u32, BlockId)> = ftl
            .blocks
            .iter()
            .filter(|(id, info)| info.written == ftl.pages_per_block && !ftl.bad.contains(id))
            .map(|(id, info)| (info.valid_count, *id))
            .collect();
        assert_eq!(ftl.victims, scanned);
        assert_eq!(
            ftl.victims.first().map(|&(_, id)| id),
            full_scan_victim(ftl)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random overwrites and trims, half of them on an eighth of the
        /// pages so victims range from empty to nearly full: every GC victim
        /// is the full-scan reference's pick.
        #[test]
        fn gc_victims_equal_the_full_scan_reference(
            ops in proptest::collection::vec((0..48u64, 0..16u8), 200..1500),
        ) {
            let mut nand = tiny_nand();
            let mut ftl = Ftl::new(&nand, 0.25);
            let mut t = Nanos::ZERO;
            for (i, (lpn, kind)) in ops.into_iter().enumerate() {
                let lpn = if kind % 2 == 0 { lpn % 6 } else { lpn };
                if kind == 1 {
                    ftl.trim(lpn, t).unwrap();
                } else {
                    let expected = full_scan_victim(&ftl);
                    let erases_before = ftl.erase_counts.clone();
                    t = ftl.write(lpn, &page(i as u8), &mut nand, t).unwrap();
                    let erased: Vec<BlockId> = ftl
                        .erase_counts
                        .iter()
                        .filter(|(id, n)| erases_before.get(id) != Some(n))
                        .map(|(id, _)| *id)
                        .collect();
                    // GC runs before the write claims its page, so its first
                    // victim is the sweep's pick on the state we just saw.
                    if !erased.is_empty() {
                        let first = expected.expect("GC erased, so a victim existed");
                        proptest::prop_assert!(erased.contains(&first), "op {}", i);
                    }
                }
                assert_index_matches_full_scan(&ftl);
            }
            proptest::prop_assert_eq!(ftl.stats().gc_erases, nand.stats().erases);
        }
    }

    #[test]
    fn victim_index_tracks_retired_blocks_and_recovery() {
        use bx_hostsim::{FaultConfig, FaultInjector};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut nand = faulty_nand();
        nand.set_fault_injector(Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
            seed: 31,
            nand_program_fail: 0.02,
            ..FaultConfig::disabled()
        }))));
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for i in 0..1200u32 {
            t = ftl
                .write((i * 7 % 10) as u64, &page(i as u8), &mut nand, t)
                .unwrap();
            assert_index_matches_full_scan(&ftl);
        }
        assert!(ftl.stats().bad_blocks > 0 && ftl.stats().gc_erases > 0);
        nand.power_cut(t);
        ftl.power_fail(t);
        ftl.recover(&nand);
        assert_index_matches_full_scan(&ftl);
    }

    #[test]
    fn write_amplification_reported() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for i in 0..400u32 {
            t = ftl
                .write((i % 8) as u64, &page(i as u8), &mut nand, t)
                .unwrap();
        }
        let s = ftl.stats();
        assert_eq!(s.host_writes, 400);
        assert!(s.write_amplification() >= 1.0);
    }

    #[test]
    fn capacity_respects_over_provision() {
        let nand = tiny_nand();
        let ftl = Ftl::new(&nand, 0.25);
        // 2*1*8*8 = 128 raw pages, 25% OP → 96 exported.
        assert_eq!(ftl.capacity_pages(), 96);
    }

    #[test]
    fn writes_stripe_across_dies() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let t0 = ftl.write(0, &page(1), &mut nand, Nanos::ZERO).unwrap();
        let t1 = ftl.write(1, &page(2), &mut nand, Nanos::ZERO).unwrap();
        // Striped to different dies: both complete at the same instant.
        assert_eq!(t0, t1);
    }

    #[test]
    #[should_panic(expected = "over-provision")]
    fn bad_op_ratio_panics() {
        let nand = tiny_nand();
        let _ = Ftl::new(&nand, 0.95);
    }

    /// Bigger array for bad-block tests: each program failure permanently
    /// retires a block, so the pool must be deep enough to survive the
    /// injected fault rate.
    fn faulty_nand() -> NandArray {
        NandArray::new(NandConfig {
            channels: 2,
            dies_per_channel: 2,
            blocks_per_die: 24,
            pages_per_block: 8,
            ..NandConfig::small()
        })
    }

    #[test]
    fn bad_block_remap_preserves_data() {
        use bx_hostsim::{FaultConfig, FaultInjector};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut nand = faulty_nand();
        let faults = Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
            seed: 1234,
            nand_program_fail: 0.02,
            ..FaultConfig::disabled()
        })));
        nand.set_fault_injector(faults);
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        // Enough writes over a small working set that several programs fail.
        for i in 0..300u32 {
            t = ftl
                .write((i % 6) as u64, &page(i as u8), &mut nand, t)
                .unwrap();
        }
        let s = ftl.stats();
        assert!(s.bad_blocks > 0, "fault rate should have retired blocks");
        assert!(s.program_remaps >= s.bad_blocks);
        // Every logical page still reads back its last write.
        for lpn in 0..6u64 {
            let expected = (294 + lpn as u32) as u8;
            let (data, _) = read(&mut ftl, lpn, &mut nand, t).unwrap();
            assert_eq!(data, page(expected), "lpn {lpn} lost after remap");
        }
    }

    #[test]
    fn retired_blocks_never_rejoin_free_pool() {
        use bx_hostsim::{FaultConfig, FaultInjector};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut nand = faulty_nand();
        let faults = Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
            seed: 9,
            nand_program_fail: 0.02,
            ..FaultConfig::disabled()
        })));
        nand.set_fault_injector(faults);
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for i in 0..1500u32 {
            t = ftl
                .write((i % 4) as u64, &page(i as u8), &mut nand, t)
                .unwrap();
        }
        assert!(ftl.stats().bad_blocks > 0);
        assert!(
            ftl.stats().gc_erases > 0,
            "GC must still run around bad blocks"
        );
        for id in &ftl.bad {
            assert!(
                !ftl.free_blocks[id.die].contains(&id.block),
                "bad block {id:?} re-entered the free pool"
            );
            assert_ne!(
                ftl.active[id.die].map(|(b, _)| b),
                Some(id.block),
                "bad block {id:?} is an active frontier"
            );
        }
    }

    #[test]
    fn trim_unmaps_and_feeds_gc() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        t = ftl.write(5, &page(1), &mut nand, t).unwrap();
        ftl.trim(5, t).unwrap();
        assert_eq!(
            read(&mut ftl, 5, &mut nand, t).unwrap_err(),
            FtlError::Unmapped(5)
        );
        // Trimming again is a no-op; out of range errors.
        ftl.trim(5, t).unwrap();
        assert!(matches!(
            ftl.trim(ftl.capacity_pages(), t),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        // Trimmed space is reclaimable: write+trim in a rolling window far
        // beyond raw capacity; GC must keep up because everything is dead.
        for i in 0..500u64 {
            t = ftl.write(i % 8, &page(i as u8), &mut nand, t).unwrap();
            if i >= 4 {
                ftl.trim((i - 4) % 8, t).unwrap();
            }
        }
        assert!(ftl.stats().gc_erases > 0);
    }

    #[test]
    fn write_amplification_is_one_on_a_fresh_device() {
        // Regression: (0 + 0) / 0 must report 1.0, not NaN.
        let stats = FtlStats::default();
        assert_eq!(stats.write_amplification(), 1.0);
        let nand = tiny_nand();
        let ftl = Ftl::new(&nand, 0.25);
        assert_eq!(ftl.stats().write_amplification(), 1.0);
    }

    #[test]
    fn recovery_round_trips_acked_writes() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for lpn in 0..12u64 {
            t = ftl.write(lpn, &page(lpn as u8), &mut nand, t).unwrap();
        }
        // Every program is complete by `t`: the cut tears nothing.
        assert_eq!(nand.power_cut(t), 0);
        ftl.power_fail(t);
        let report = ftl.recover(&nand);
        assert_eq!(report.torn_mappings, 0);
        assert_eq!(report.recovered_mappings, 12);
        assert_eq!(report.replayed, 12);
        for lpn in 0..12u64 {
            let (data, _) = read(&mut ftl, lpn, &mut nand, t).unwrap();
            assert_eq!(data, page(lpn as u8), "lpn {lpn} lost across power cut");
        }
        // The recovered FTL keeps working: frontier blocks were sealed, new
        // writes land on fresh blocks.
        let t2 = ftl.write(0, &page(0xEE), &mut nand, t).unwrap();
        let (data, _) = read(&mut ftl, 0, &mut nand, t2).unwrap();
        assert_eq!(data, page(0xEE));
    }

    #[test]
    fn torn_page_falls_back_to_previous_acked_version() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let t1 = ftl.write(3, &page(0xA1), &mut nand, Nanos::ZERO).unwrap();
        // Overwrite issued at t1; cut lands before its program finishes but
        // after its journal record is durable.
        let t2 = ftl.write(3, &page(0xB2), &mut nand, t1).unwrap();
        let cut = t2 - Nanos::from_ns(1);
        assert_eq!(nand.power_cut(cut), 1, "overwrite program must be torn");
        ftl.power_fail(cut);
        let report = ftl.recover(&nand);
        assert_eq!(report.torn_mappings, 1);
        let (data, _) = read(&mut ftl, 3, &mut nand, t2).unwrap();
        assert_eq!(data, page(0xA1), "must fall back to last acked version");
    }

    #[test]
    fn unacked_first_write_vanishes_cleanly() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let done = ftl.write(7, &page(0x11), &mut nand, Nanos::ZERO).unwrap();
        let cut = done - Nanos::from_ns(1);
        assert_eq!(nand.power_cut(cut), 1);
        ftl.power_fail(cut);
        let report = ftl.recover(&nand);
        assert_eq!(report.torn_mappings, 1);
        assert_eq!(report.recovered_mappings, 0);
        assert_eq!(
            read(&mut ftl, 7, &mut nand, done).unwrap_err(),
            FtlError::Unmapped(7),
            "a never-acked write must not be half-visible"
        );
    }

    #[test]
    fn trimmed_lpn_stays_trimmed_after_replay() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        t = ftl.write(2, &page(0x22), &mut nand, t).unwrap();
        t = ftl.write(6, &page(0x66), &mut nand, t).unwrap();
        let durable = ftl.trim(2, t).unwrap();
        let t_end = t.max(durable);
        ftl.power_fail(t_end);
        let report = ftl.recover(&nand);
        assert_eq!(report.recovered_mappings, 1);
        assert_eq!(
            read(&mut ftl, 2, &mut nand, t_end).unwrap_err(),
            FtlError::Unmapped(2),
            "trim must survive journal replay"
        );
        let (data, _) = read(&mut ftl, 6, &mut nand, t_end).unwrap();
        assert_eq!(data, page(0x66));
    }

    #[test]
    fn recovery_from_checkpoint_bounds_replay() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        ftl.journal.checkpoint_threshold = 8;
        let mut t = Nanos::ZERO;
        for i in 0..40u64 {
            t = ftl.write(i % 8, &page(i as u8), &mut nand, t).unwrap();
        }
        assert!(ftl.journal.stats.checkpoints > 0);
        assert!(ftl.journal.stats.pruned > 0);
        ftl.power_fail(t);
        let report = ftl.recover(&nand);
        assert!(report.from_checkpoint);
        assert!(
            (report.replayed as u64) < 40,
            "checkpoint must bound the replay tail (replayed {})",
            report.replayed
        );
        for lpn in 0..8u64 {
            let (data, _) = read(&mut ftl, lpn, &mut nand, t).unwrap();
            assert_eq!(data, page(32 + lpn as u8), "lpn {lpn}");
        }
    }

    /// Regression: once the live tail reached the threshold, every write
    /// arriving before the newest checkpoint was durable started another
    /// one, and the third evicted the only durable snapshot — whose records
    /// were already pruned — so a cut in the burst lost acked writes.
    #[test]
    fn checkpoint_burst_keeps_the_durable_snapshot() {
        let mut nand = tiny_nand();
        let mut ftl = Ftl::new(&nand, 0.25);
        ftl.journal.checkpoint_threshold = 8;
        let mut acked = Nanos::ZERO;
        for lpn in 0..8u64 {
            let now = Nanos::from_ms(lpn);
            acked = ftl.write(lpn, &page(lpn as u8), &mut nand, now).unwrap();
        }
        assert_eq!(ftl.journal.stats.checkpoints, 1);
        // A burst of 20 writes inside 10 us, long after the first eight were
        // acked; the cut lands before any of the burst completes.
        let burst = Nanos::from_ms(8);
        assert!(acked < burst);
        let mut cut = burst;
        for i in 0..20u64 {
            cut = burst + Nanos::from_ns(i * 500);
            ftl.write(8 + i, &page(0xB0), &mut nand, cut).unwrap();
        }
        assert_eq!(
            ftl.journal.stats.checkpoints, 2,
            "one checkpoint for the burst, not one per write"
        );
        nand.power_cut(cut);
        ftl.power_fail(cut);
        let report = ftl.recover(&nand);
        assert!(report.from_checkpoint, "the durable snapshot was evicted");
        for lpn in 0..8u64 {
            let (data, _) = read(&mut ftl, lpn, &mut nand, cut).unwrap();
            assert_eq!(data, page(lpn as u8), "acked lpn {lpn} lost");
        }
    }

    #[test]
    fn dense_writes_checkpoint_once_per_threshold() {
        let mut nand = NandArray::new(NandConfig::small());
        let mut ftl = Ftl::new(&nand, 0.25);
        let threshold = crate::journal::DEFAULT_CHECKPOINT_THRESHOLD as u64;
        let data = page(0x11);
        const WRITES: u64 = 100_000;
        for i in 0..WRITES {
            let now = Nanos::from_us(10 * i);
            ftl.write(i % 4096, &data, &mut nand, now).unwrap();
            // A checkpoint takes 100 us, ten writes at this spacing.
            assert!((ftl.journal_depth() as u64) < threshold + 16, "write {i}");
        }
        let checkpoints = ftl.journal.stats.checkpoints;
        assert!(
            (WRITES / threshold - 1..=WRITES / threshold + 1).contains(&checkpoints),
            "{checkpoints} checkpoints for {WRITES} appends"
        );
    }

    #[test]
    fn recovery_is_deterministic_for_identical_histories() {
        let run = || {
            let mut nand = tiny_nand();
            let mut ftl = Ftl::new(&nand, 0.25);
            let mut t = Nanos::ZERO;
            let mut last_done = Nanos::ZERO;
            for i in 0..30u64 {
                last_done = ftl.write(i % 6, &page(i as u8), &mut nand, t).unwrap();
                t += Nanos::from_us(37);
            }
            let cut = last_done - Nanos::from_ns(1);
            nand.power_cut(cut);
            ftl.power_fail(cut);
            ftl.recover(&nand);
            let mut state = Vec::new();
            for lpn in 0..6u64 {
                state.push(
                    read(&mut ftl, lpn, &mut nand, last_done)
                        .ok()
                        .map(|(d, _)| d),
                );
            }
            state
        };
        assert_eq!(run(), run(), "same history + cut → identical recovery");
    }

    #[test]
    fn bad_blocks_survive_power_cycle() {
        use bx_hostsim::{FaultConfig, FaultInjector};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut nand = faulty_nand();
        let faults = Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
            seed: 77,
            nand_program_fail: 0.02,
            ..FaultConfig::disabled()
        })));
        nand.set_fault_injector(faults);
        let mut ftl = Ftl::new(&nand, 0.25);
        let mut t = Nanos::ZERO;
        for i in 0..400u32 {
            t = ftl
                .write((i % 6) as u64, &page(i as u8), &mut nand, t)
                .unwrap();
        }
        let bad_before: BTreeSet<BlockId> = ftl.bad.iter().copied().collect();
        assert!(!bad_before.is_empty(), "fault rate should retire blocks");
        nand.power_cut(t);
        ftl.power_fail(t);
        ftl.recover(&nand);
        assert_eq!(
            ftl.bad, bad_before,
            "retired blocks must stay retired after replay"
        );
        for id in &ftl.bad {
            assert!(!ftl.free_blocks[id.die].contains(&id.block));
        }
    }
}
