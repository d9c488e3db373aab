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
use crate::rows::BlockRows;
use bx_hostsim::Nanos;
use bx_trace::{EventKind, TraceSink};
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

/// Whether bit `i` of a bitset is set.
fn has_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 != 0
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// The set bits of a bitset, ascending.
fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// The GC victim index: every sealed (fully written), non-retired block,
/// filed by its valid-page count. Row `v` is a bitset over dense block
/// indices (die-major, so index order is `(die, block)` order) of the
/// blocks with `v` valid pages, and `len[v]` is its population. The greedy
/// victim — fewest valid pages, ties to the lowest `(die, block)` — is the
/// first set bit of the first non-empty row, and re-filing a block when one
/// of its pages goes stale is two bit flips. Nothing in it depends on a
/// hash: the victim choice reaches NAND timing, traces, and ultimately wire
/// bytes.
#[derive(Debug, Clone)]
struct VictimIndex {
    /// Words per row.
    words: usize,
    rows: Vec<u64>,
    len: Vec<u32>,
}

impl VictimIndex {
    fn new(blocks: usize, pages_per_block: u32) -> Self {
        let words = blocks.div_ceil(64);
        let counts = pages_per_block as usize + 1;
        VictimIndex {
            words,
            rows: vec![0; words * counts],
            len: vec![0; counts],
        }
    }

    /// Bit index of `block` in row `valid`.
    fn bit(&self, valid: u32, block: usize) -> usize {
        valid as usize * self.words * 64 + block
    }

    fn insert(&mut self, valid: u32, block: usize) {
        let bit = self.bit(valid, block);
        if !has_bit(&self.rows, bit) {
            set_bit(&mut self.rows, bit);
            self.len[valid as usize] += 1;
        }
    }

    /// Removes `block` from row `valid`; whether it was there.
    fn remove(&mut self, valid: u32, block: usize) -> bool {
        let bit = self.bit(valid, block);
        let held = has_bit(&self.rows, bit);
        if held {
            clear_bit(&mut self.rows, bit);
            self.len[valid as usize] -= 1;
        }
        held
    }

    fn clear(&mut self) {
        self.rows.fill(0);
        self.len.fill(0);
    }

    /// The greedy victim and its valid count.
    fn first(&self) -> Option<(u32, usize)> {
        let valid = self.len.iter().position(|&n| n > 0)?;
        let row = &self.rows[valid * self.words..][..self.words];
        bits(row).next().map(|block| (valid as u32, block))
    }
}

/// One die's free (erased, unused) blocks: a stack of the blocks handed
/// back, on top of every block from `fresh` up, which hold nothing and are
/// handed out in address order without an entry each — as the host's
/// `PageAllocator` does with frames. Building and recovering an FTL cost the
/// blocks in use, not the die.
#[derive(Debug, Clone, Default)]
struct FreeBlocks {
    /// Blocks handed back, the next one to hand out last.
    returned: Vec<u32>,
    /// Blocks from this one up are free.
    fresh: u32,
}

impl FreeBlocks {
    /// The next free block of a die of `blocks` blocks.
    fn pop(&mut self, blocks: u32) -> Option<u32> {
        self.returned.pop().or_else(|| {
            let block = self.fresh;
            (block < blocks).then(|| {
                self.fresh += 1;
                block
            })
        })
    }

    /// How many blocks of a die of `blocks` blocks are free.
    fn len(&self, blocks: u32) -> usize {
        self.returned.len() + (blocks - self.fresh) as usize
    }
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
    /// LPN → PPA map, four bytes a slot, as far as the highest LPN mapped:
    /// every LPN past its end is unmapped. Building, checkpointing and
    /// recovering an FTL cost the pages a run mapped, not the exported
    /// capacity.
    map: Vec<Option<PackedPpa>>,
    packing: PpaPacking,
    /// The reverse map, in a row per block by dense block index: the LPN
    /// whose live copy each page holds, plus one; zero for a page holding
    /// nothing live. A block gets its row when it opens and gives it back
    /// when GC erases it.
    owner: BlockRows,
    /// Live pages per block, by dense block index (`die × blocks_per_die +
    /// block`).
    valid: Vec<u32>,
    victims: VictimIndex,
    /// Free (erased, unused) blocks per die.
    free_blocks: Vec<FreeBlocks>,
    /// Σ `free_blocks` lengths: every write compares it with `gc_threshold`.
    free_count: usize,
    /// Active (write frontier) block per die.
    active: Vec<Option<(u32, u32)>>, // (block, next_page)
    /// Round-robin die cursor for striping.
    die_cursor: usize,
    /// GC trigger: run GC when total free blocks drop below this.
    gc_threshold: usize,
    dies_per_channel: u16,
    blocks_per_die: u32,
    pages_per_block: u32,
    exported_pages: u64,
    stats: FtlStats,
    /// Grown-bad blocks, a bitset by dense block index: retired after a
    /// program failure, excluded from the free list and from GC victim
    /// selection forever. Pages programmed before the failure stay readable
    /// until migrated off. Checkpoint bad-lists serialize in index order,
    /// which is address order.
    bad: Vec<u64>,
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
        let blocks = dies * cfg.blocks_per_die as usize;
        let exported = ((cfg.total_pages() as f64) * (1.0 - over_provision)).floor() as u64;
        Ftl {
            map: Vec::new(),
            packing,
            owner: BlockRows::new(blocks, cfg.pages_per_block as usize),
            valid: vec![0; blocks],
            victims: VictimIndex::new(blocks, cfg.pages_per_block),
            free_blocks: vec![FreeBlocks::default(); dies],
            free_count: blocks,
            active: vec![None; dies],
            die_cursor: 0,
            gc_threshold: (dies * 2).max(4),
            dies_per_channel: cfg.dies_per_channel,
            blocks_per_die: cfg.blocks_per_die,
            pages_per_block: cfg.pages_per_block,
            exported_pages: exported,
            stats: FtlStats::default(),
            bad: vec![0; blocks.div_ceil(64)],
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
        self.map.get(lpn as usize).is_some_and(Option::is_some)
    }

    fn die_to_ppa(&self, die: usize, block: u32, page: u32) -> Ppa {
        Ppa {
            channel: (die / self.dies_per_channel as usize) as u16,
            die: (die % self.dies_per_channel as usize) as u16,
            block,
            page,
        }
    }

    /// The dense index of `ppa`'s block: die-major, `die × blocks_per_die +
    /// block`.
    fn block_index(&self, ppa: Ppa) -> usize {
        let die = ppa.channel as usize * self.dies_per_channel as usize + ppa.die as usize;
        die * self.blocks_per_die as usize + ppa.block as usize
    }

    /// The address of `page` of dense block `block`.
    fn ppa_of(&self, block: usize, page: u32) -> Ppa {
        let bpd = self.blocks_per_die as usize;
        self.die_to_ppa(block / bpd, (block % bpd) as u32, page)
    }

    /// Claims the next frontier page on some die (round-robin striping).
    fn claim_page(&mut self, lpn: u64) -> Result<Ppa, FtlError> {
        let dies = self.active.len();
        for _ in 0..dies {
            let die = self.die_cursor;
            self.die_cursor = (self.die_cursor + 1) % dies;

            if self.active[die].is_none() {
                if let Some(block) = self.free_blocks[die].pop(self.blocks_per_die) {
                    self.free_count -= 1;
                    self.active[die] = Some((block, 0));
                }
            }
            if let Some((block, page)) = self.active[die] {
                let ppa = self.die_to_ppa(die, block, page);
                let b = die * self.blocks_per_die as usize + block as usize;
                // A free block holds nothing live: no row, no valid pages.
                self.owner.open(b)[page as usize] = lpn as u32 + 1;
                self.valid[b] += 1;
                if page + 1 == self.pages_per_block {
                    self.active[die] = None;
                    self.victims.insert(self.valid[b], b);
                } else {
                    self.active[die] = Some((block, page + 1));
                }
                return Ok(ppa);
            }
        }
        Err(FtlError::NoFreeBlocks)
    }

    fn invalidate(&mut self, ppa: Ppa) {
        let b = self.block_index(ppa);
        let Some(owner) = self.owner.get_mut(b).map(|row| &mut row[ppa.page as usize]) else {
            return;
        };
        if *owner != 0 {
            *owner = 0;
            let valid = self.valid[b];
            // Re-file the block if it is in the victim index (open and
            // retired blocks are not).
            if self.victims.remove(valid, b) {
                self.victims.insert(valid - 1, b);
            }
            self.valid[b] = valid - 1;
        }
    }

    /// Retires grown-bad block `b`: it leaves the write frontier and never
    /// re-enters the free list or GC victim pool. Journaled so the block
    /// stays retired across power cycles.
    fn retire_block(&mut self, b: usize, now: Nanos) {
        let Ppa {
            channel,
            die,
            block,
            ..
        } = self.ppa_of(b, 0);
        if !has_bit(&self.bad, b) {
            set_bit(&mut self.bad, b);
            self.stats.bad_blocks += 1;
            self.journal.append(
                JournalOp::Retire {
                    channel,
                    die,
                    block,
                },
                Nanos::ZERO,
                now,
            );
        }
        let die = b / self.blocks_per_die as usize;
        if self.active[die].map(|(a, _)| a) == Some(block) {
            self.active[die] = None;
        }
        self.victims.remove(self.valid[b], b);
    }

    /// Records one mapping update in the journal and installs it in the
    /// volatile map. `done` is the target page's program-complete instant;
    /// returns when the record itself is durable (the earliest allowed ack).
    fn commit_mapping(&mut self, lpn: u64, ppa: Ppa, done: Nanos, now: Nanos) -> Nanos {
        let packed = self.packing.pack(ppa);
        let prev = self
            .map_slot(lpn)
            .replace(packed)
            .map(|old| self.packing.unpack(old));
        if let Some(old) = prev {
            self.invalidate(old);
        }
        self.journal
            .append(JournalOp::MapUpdate { lpn, ppa, prev }, done, now)
    }

    /// `lpn`'s map slot, the map grown to reach it. Every LPN is below the
    /// exported capacity, so the map never outgrows it.
    fn map_slot(&mut self, lpn: u64) -> &mut Option<PackedPpa> {
        let slot = lpn as usize;
        if slot >= self.map.len() {
            self.map.resize(slot + 1, None);
        }
        &mut self.map[slot]
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
                    let b = self.block_index(failed);
                    self.retire_block(b, now);
                    if depth < MAX_REMAP_DEPTH {
                        now = self.migrate_block(b, nand, now, depth + 1)?;
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

    /// Moves every live page off dense block `b` — a retired one, or a GC
    /// victim. Data stays readable in place until its relocation lands, so
    /// a mid-migration error leaves no window where an acknowledged write
    /// is unreachable.
    fn migrate_block(
        &mut self,
        b: usize,
        nand: &mut NandArray,
        mut now: Nanos,
        depth: u32,
    ) -> Result<Nanos, FtlError> {
        // A relocation whose program fails migrates the failed block from
        // inside this loop; that nested pass finds the buffer taken and
        // grows its own.
        let mut page = std::mem::take(&mut self.relocation_page);
        for slot in 0..self.pages_per_block {
            let owner = self.owner.get(b).map_or(0, |row| row[slot as usize]);
            let Some(lpn) = owner.checked_sub(1) else {
                continue;
            };
            let lpn = u64::from(lpn);
            let src = self.ppa_of(b, slot);
            page.clear();
            now = nand.read_range(src, 0, nand.programmed_len(src), now, &mut page)?;
            let (dst, t_prog) = self.program_remapped(lpn, &page, nand, now, depth)?;
            now = t_prog;
            self.commit_mapping(lpn, dst, t_prog, now);
            self.stats.gc_writes += 1;
        }
        self.relocation_page = page;
        Ok(now)
    }

    /// Writes one logical page. Runs GC first if free space is low. `data`
    /// may be shorter than a NAND page; the rest of the page reads as zeros
    /// (see [`NandArray::program`]).
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
        if self.free_count < self.gc_threshold {
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
        let ppa = self
            .map
            .get(lpn as usize)
            .copied()
            .flatten()
            .ok_or(FtlError::Unmapped(lpn))?;
        Ok(nand.read_range(self.packing.unpack(ppa), off, len, now, out)?)
    }

    /// Runs greedy GC until free blocks exceed the threshold (or no victim
    /// remains). Returns the advanced time.
    fn collect_garbage(&mut self, nand: &mut NandArray, mut now: Nanos) -> Result<Nanos, FtlError> {
        while self.free_count < self.gc_threshold {
            // Greedy victim: the sealed block with the fewest valid pages,
            // valid-count ties broken toward the lowest (die, block) — the
            // victim sequence is reproducible run-to-run.
            let Some((valid_count, victim)) = self.victims.first() else {
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
            let Ppa {
                channel,
                die,
                block,
                ..
            } = self.ppa_of(victim, 0);
            now = nand.erase(channel, die, block, now)?;
            // Migration left nothing live, so the freed block's `valid` entry
            // is zero again, as a free block's must be.
            debug_assert_eq!(self.valid[victim], 0, "block {victim} erased live");
            self.victims.remove(0, victim);
            self.owner.release(victim);
            self.free_blocks[victim / self.blocks_per_die as usize]
                .returned
                .push(block);
            self.free_count += 1;
            self.stats.gc_erases += 1;
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
        let bad: Vec<(u16, u16, u32)> = bits(&self.bad)
            .map(|b| {
                let ppa = self.ppa_of(b, 0);
                (ppa.channel, ppa.die, ppa.block)
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
        // Only blocks with a reverse-map row hold live pages.
        for b in self.owner.blocks() {
            self.valid[b] = 0;
        }
        self.owner.clear();
        self.victims.clear();
        self.bad.fill(0);
        self.active.fill(None);
        self.die_cursor = 0;
        self.map.clear();

        let mut report = RecoveryReport::default();
        let from_seq = match self.journal.recovery_base() {
            Some(cp) => {
                report.from_checkpoint = true;
                let named = cp.map.len().min(self.exported_pages as usize);
                self.map.extend_from_slice(&cp.map[..named]);
                for &(channel, die, block) in &cp.bad {
                    let b = self.block_index(Ppa {
                        channel,
                        die,
                        block,
                        page: 0,
                    });
                    set_bit(&mut self.bad, b);
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
                    if lpn >= self.exported_pages {
                        continue;
                    }
                    let packed = if nand.has_data(ppa) {
                        Some(self.packing.pack(ppa))
                    } else {
                        // The cut tore the target program: the update was
                        // never acked, so surface the previous (last acked)
                        // version — or nothing if that is torn too, which
                        // means *it* was never acked either.
                        report.torn_mappings += 1;
                        prev.filter(|&p| nand.has_data(p))
                            .map(|p| self.packing.pack(p))
                    };
                    *self.map_slot(lpn) = packed;
                }
                JournalOp::Retire {
                    channel,
                    die,
                    block,
                } => {
                    let b = self.block_index(Ppa {
                        channel,
                        die,
                        block,
                        page: 0,
                    });
                    set_bit(&mut self.bad, b);
                }
            }
        }
        self.journal.truncate_torn();

        // Every block from each die's `fresh` up is free: no NAND row, no
        // valid page, no bad bit. Raise it past every block in use, which
        // are the only ones visited below.
        let bpd = self.blocks_per_die;
        for free in &mut self.free_blocks {
            free.returned.clear();
            free.fresh = 0;
        }
        let mut in_use = |b: usize| {
            let free = &mut self.free_blocks[b / bpd as usize];
            free.fresh = free.fresh.max(b as u32 % bpd + 1);
        };
        nand.blocks_with_rows().for_each(&mut in_use);
        bits(&self.bad).for_each(&mut in_use);

        // Rebuild per-block validity from the recovered map.
        for (lpn, slot) in self.map.iter().enumerate() {
            let Some(ppa) = slot.map(|packed| self.packing.unpack(packed)) else {
                continue;
            };
            report.recovered_mappings += 1;
            let die = ppa.channel as usize * self.dies_per_channel as usize + ppa.die as usize;
            let b = die * bpd as usize + ppa.block as usize;
            let owner = &mut self.owner.open(b)[ppa.page as usize];
            if *owner == 0 {
                self.valid[b] += 1;
            }
            *owner = lpn as u32 + 1;
            let free = &mut self.free_blocks[die];
            free.fresh = free.fresh.max(ppa.block + 1);
        }
        // Every non-retired block that holds data, or was programmed at all,
        // is sealed: the cut may have burned frontier pages mid-program, so
        // a write frontier never resumes inside a used block, and one with
        // no live pages is an immediately reclaimable GC victim. The free
        // ones go on the stack highest first, so they are handed out in
        // address order, as the never-used ones above them are.
        self.free_count = 0;
        for (die, free) in self.free_blocks.iter_mut().enumerate() {
            let first = die * bpd as usize;
            for b in (first..first + free.fresh as usize).rev() {
                if has_bit(&self.bad, b) {
                    continue;
                }
                if self.valid[b] == 0 && nand.is_block_erased(b) {
                    free.returned.push((b - first) as u32);
                } else {
                    self.victims.insert(self.valid[b], b);
                }
            }
            self.free_count += free.len(bpd);
        }
        self.stats.bad_blocks = bits(&self.bad).count() as u64;

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
    use std::collections::BTreeSet;

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

    /// Every page shape survives GC relocation and recovery, written whole
    /// (zero-padded) or as the sub-page prefix that holds its non-zero
    /// bytes: two FTLs fed the two forms in lockstep complete at the same
    /// instants, count the same work and read back the same pages, and a
    /// relocated sub-page write stays as short as it was written.
    #[test]
    fn gc_relocation_and_recovery_keep_every_page_shape() {
        let shapes: Vec<Vec<u8>> = crate::nand::shaped_pages()
            .into_iter()
            .map(|(_, page)| page)
            .collect();
        /// Form 0 of a page is all of it, form 1 its non-zero prefix.
        fn form(f: usize, page: &[u8]) -> &[u8] {
            if f == 0 {
                page
            } else {
                crate::nand::nonzero_prefix(page)
            }
        }
        let mut rigs: Vec<(NandArray, Ftl)> = (0..2)
            .map(|_| {
                let nand = tiny_nand();
                let ftl = Ftl::new(&nand, 0.25);
                (nand, ftl)
            })
            .collect();
        let mut t = Nanos::ZERO;
        let lpns = rigs[0].1.capacity_pages();
        let write = |rigs: &mut Vec<(NandArray, Ftl)>, lpn: usize, shape: usize, t: Nanos| {
            let done: Vec<Nanos> = rigs
                .iter_mut()
                .enumerate()
                .map(|(f, (nand, ftl))| {
                    ftl.write(lpn as u64, form(f, &shapes[shape]), nand, t)
                        .unwrap()
                })
                .collect();
            assert_eq!(done[0], done[1], "lpn {lpn}, shape {shape}");
            done[0]
        };
        // Fill the exported space, then overwrite with a stride that leaves
        // every block part valid: GC has to relocate pages of every shape.
        let mut holds: Vec<usize> = (0..lpns as usize).map(|lpn| lpn % shapes.len()).collect();
        for (lpn, &shape) in holds.iter().enumerate() {
            t = write(&mut rigs, lpn, shape, t);
        }
        for i in 0..600usize {
            let lpn = i * 37 % lpns as usize;
            holds[lpn] = (holds[lpn] + 1) % shapes.len();
            t = write(&mut rigs, lpn, holds[lpn], t);
        }
        assert_eq!(rigs[0].1.stats(), rigs[1].1.stats());
        assert_eq!(rigs[0].0.stats(), rigs[1].0.stats());
        assert!(
            rigs[0].1.stats().gc_writes > 100,
            "GC must have relocated pages"
        );
        for (form, (nand, ftl)) in rigs.iter_mut().enumerate() {
            for (lpn, &shape) in holds.iter().enumerate() {
                let (back, _) = read(ftl, lpn as u64, nand, t).unwrap();
                assert_eq!(
                    back, shapes[shape],
                    "form {form}, lpn {lpn} after GC relocation"
                );
                if form == 1 {
                    let ppa = ftl.packing.unpack(ftl.map[lpn].unwrap());
                    let short = crate::nand::nonzero_prefix(&shapes[shape]).len();
                    assert_eq!(nand.programmed_len(ppa), short, "lpn {lpn}");
                }
            }
            // An all-zero page is data, not a torn page: it survives
            // recovery.
            nand.power_cut(t);
            ftl.power_fail(t);
            let report = ftl.recover(nand);
            assert_eq!(report.recovered_mappings, lpns);
            for (lpn, &shape) in holds.iter().enumerate() {
                let (back, _) = read(ftl, lpn as u64, nand, t).unwrap();
                assert_eq!(back, shapes[shape], "form {form}, lpn {lpn} after recovery");
            }
        }
    }

    impl FreeBlocks {
        /// Whether the die's `block` is free.
        fn contains(&self, block: &u32) -> bool {
            *block >= self.fresh || self.returned.contains(block)
        }
    }

    /// Whether dense block `b` is sealed, from the free lists, frontiers and
    /// bad set alone: a block that is none of free, open, or retired was
    /// filled (or survived a cut) and is a GC candidate.
    fn sealed(ftl: &Ftl, b: usize) -> bool {
        let bpd = ftl.blocks_per_die as usize;
        let (die, block) = (b / bpd, (b % bpd) as u32);
        !ftl.free_blocks[die].contains(&block)
            && ftl.active[die].map(|(a, _)| a) != Some(block)
            && !has_bit(&ftl.bad, b)
    }

    /// The victim a sweep of the whole block table picks: the reference the
    /// index replaced.
    fn full_scan_victim(ftl: &Ftl) -> Option<usize> {
        (0..ftl.valid.len())
            .filter(|&b| sealed(ftl, b))
            .min_by_key(|&b| ftl.valid[b])
    }

    /// The victim index holds exactly what the ordered set of `(valid
    /// count, block)` it replaced would hold — every sealed block under its
    /// current valid count — and picks what the sweep picks. The valid
    /// counts are the reverse map's, and the reverse map is the inverse of
    /// the map.
    fn assert_index_matches_full_scan(ftl: &Ftl) {
        let scanned: BTreeSet<(u32, usize)> = (0..ftl.valid.len())
            .filter(|&b| sealed(ftl, b))
            .map(|b| (ftl.valid[b], b))
            .collect();
        let words = ftl.victims.words;
        let indexed: BTreeSet<(u32, usize)> = (0..=ftl.pages_per_block)
            .flat_map(|v| {
                bits(&ftl.victims.rows[v as usize * words..][..words]).map(move |b| (v, b))
            })
            .collect();
        assert_eq!(indexed, scanned);
        for (v, &len) in ftl.victims.len.iter().enumerate() {
            let filed = indexed.iter().filter(|&&(valid, _)| valid as usize == v);
            assert_eq!(len as usize, filed.count(), "row {v}");
        }
        assert_eq!(ftl.victims.first().map(|(_, b)| b), full_scan_victim(ftl));
        let live = |b: usize| {
            let row = ftl.owner.get(b).unwrap_or_default();
            row.iter().filter(|&&o| o != 0).count()
        };
        for (b, &valid) in ftl.valid.iter().enumerate() {
            assert_eq!(valid as usize, live(b), "block {b}");
        }
        let mapped = ftl
            .map
            .iter()
            .enumerate()
            .filter_map(|(lpn, p)| Some((lpn, (*p)?)));
        for (lpn, packed) in mapped.clone() {
            let ppa = ftl.packing.unpack(packed);
            let row = ftl
                .owner
                .get(ftl.block_index(ppa))
                .expect("a mapped page's block has a row");
            assert_eq!(row[ppa.page as usize], lpn as u32 + 1, "lpn {lpn}");
        }
        assert_eq!(
            (0..ftl.valid.len()).map(live).sum::<usize>(),
            mapped.count()
        );
    }

    /// One write through `ftl`, checked: the GC it runs first erases the
    /// sweep's pick on the state before the write, and the index still
    /// matches the sweep after it. An erased pick is free, open, or sealed
    /// again with other pages; one GC left alone is still sealed, holding
    /// what it held less the page this write superseded.
    fn write_checked(ftl: &mut Ftl, nand: &mut NandArray, lpn: u64, fill: u8, t: Nanos) -> Nanos {
        let expected = full_scan_victim(ftl);
        let untouched = expected.and_then(|b| {
            let row = ftl.owner.get(b)?;
            let superseded = lpn as u32 + 1;
            Some(
                row.iter()
                    .map(|&o| if o == superseded { 0 } else { o })
                    .collect::<Vec<_>>(),
            )
        });
        let erases = ftl.stats().gc_erases;
        let t = ftl.write(lpn, &page(fill), nand, t).unwrap();
        if ftl.stats().gc_erases > erases {
            let first = expected.expect("GC erased, so a victim existed");
            assert!(
                !sealed(ftl, first) || ftl.owner.get(first).map(<[u32]>::to_vec) != untouched,
                "GC erased, but not the sweep's pick {first}"
            );
        }
        assert_index_matches_full_scan(ftl);
        t
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random overwrites, half of them on an eighth of the pages so
        /// victims range from empty to nearly full, then a cut and recovery:
        /// every GC victim is the full-scan reference's pick.
        #[test]
        fn gc_victims_equal_the_full_scan_reference(
            ops in proptest::collection::vec((0..48u64, 0..16u8), 200..1500),
        ) {
            let mut nand = tiny_nand();
            let mut ftl = Ftl::new(&nand, 0.25);
            let mut t = Nanos::ZERO;
            for (i, (lpn, kind)) in ops.into_iter().enumerate() {
                let lpn = if kind % 2 == 0 { lpn % 6 } else { lpn };
                t = write_checked(&mut ftl, &mut nand, lpn, i as u8, t);
            }
            proptest::prop_assert_eq!(ftl.stats().gc_erases, nand.stats().erases);
            nand.power_cut(t);
            ftl.power_fail(t);
            ftl.recover(&nand);
            assert_index_matches_full_scan(&ftl);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// The same, with program failures retiring blocks — the active one
        /// mid-write, and destinations mid-migration — and a cut that lands
        /// with programs in flight.
        #[test]
        fn gc_victims_equal_the_full_scan_reference_under_program_failures(
            seed in proptest::prelude::any::<u64>(),
        ) {
            use bx_hostsim::{FaultConfig, FaultInjector};
            use std::cell::RefCell;
            use std::rc::Rc;

            let mut nand = faulty_nand();
            nand.set_fault_injector(Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
                seed,
                nand_program_fail: 0.01,
                ..FaultConfig::disabled()
            }))));
            let mut ftl = Ftl::new(&nand, 0.25);
            let mut t = Nanos::ZERO;
            for i in 0..1200u32 {
                t = write_checked(&mut ftl, &mut nand, (i * 7 % 10) as u64, i as u8, t);
            }
            proptest::prop_assert!(ftl.stats().bad_blocks > 0 && ftl.stats().gc_erases > 0);
            let cut = t - Nanos::from_ns(1);
            nand.power_cut(cut);
            ftl.power_fail(cut);
            ftl.recover(&nand);
            assert_index_matches_full_scan(&ftl);
        }
    }

    /// What the recovery before the free lists became a bound and a stack
    /// rebuilt: a map of the whole exported capacity, and every block of
    /// the array visited.
    struct FullScan {
        map: Vec<Option<PackedPpa>>,
        valid: Vec<u32>,
        bad: Vec<u64>,
        free: Vec<Vec<u32>>,
        victims: VictimIndex,
    }

    /// The recovery of `ftl` from its journal as the full scan did it, on
    /// the journal as the cut left it: call it before [`Ftl::recover`].
    fn full_scan_recovery(ftl: &Ftl, nand: &NandArray) -> FullScan {
        let blocks = ftl.valid.len();
        let mut map = vec![None; ftl.exported_pages as usize];
        let mut bad = vec![0; blocks.div_ceil(64)];
        let from_seq = match ftl.journal.recovery_base() {
            Some(cp) => {
                let named = cp.map.len().min(map.len());
                map[..named].copy_from_slice(&cp.map[..named]);
                for &(channel, die, block) in &cp.bad {
                    set_bit(
                        &mut bad,
                        ftl.block_index(Ppa {
                            channel,
                            die,
                            block,
                            page: 0,
                        }),
                    );
                }
                cp.covers_below
            }
            None => 0,
        };
        for rec in ftl.journal.replayable(from_seq).0 {
            match rec.op {
                JournalOp::MapUpdate { lpn, ppa, prev } => {
                    let Some(slot) = map.get_mut(lpn as usize) else {
                        continue;
                    };
                    let target = if nand.has_data(ppa) {
                        Some(ppa)
                    } else {
                        prev.filter(|&p| nand.has_data(p))
                    };
                    *slot = target.map(|p| ftl.packing.pack(p));
                }
                JournalOp::Retire {
                    channel,
                    die,
                    block,
                } => {
                    set_bit(
                        &mut bad,
                        ftl.block_index(Ppa {
                            channel,
                            die,
                            block,
                            page: 0,
                        }),
                    );
                }
            }
        }
        let mut valid = vec![0; blocks];
        let mut owner = vec![0u32; blocks * ftl.pages_per_block as usize];
        for (lpn, packed) in map.iter().enumerate() {
            if let Some(ppa) = packed.map(|p| ftl.packing.unpack(p)) {
                let b = ftl.block_index(ppa);
                let slot = &mut owner[b * ftl.pages_per_block as usize + ppa.page as usize];
                if *slot == 0 {
                    valid[b] += 1;
                }
                *slot = lpn as u32 + 1;
            }
        }
        let bpd = ftl.blocks_per_die as usize;
        let mut victims = VictimIndex::new(blocks, ftl.pages_per_block);
        let mut free = Vec::new();
        for die in 0..ftl.active.len() {
            let mut die_free = Vec::new();
            for block in (0..ftl.blocks_per_die).rev() {
                let b = die * bpd + block as usize;
                if has_bit(&bad, b) {
                    continue;
                }
                let ppa = ftl.ppa_of(b, 0);
                if valid[b] == 0 && nand.is_block_erased(ftl.block_index(ppa)) {
                    die_free.push(block);
                } else {
                    victims.insert(valid[b], b);
                }
            }
            free.push(die_free);
        }
        FullScan {
            map,
            valid,
            bad,
            free,
            victims,
        }
    }

    /// The GC victims an index gives up, in order, as blocks are erased.
    fn victim_order(mut victims: VictimIndex) -> Vec<(u32, usize)> {
        std::iter::from_fn(|| {
            let (valid, b) = victims.first()?;
            victims.remove(valid, b);
            Some((valid, b))
        })
        .collect()
    }

    /// Cuts power at `cut`, recovers, and checks the result against the
    /// full scan's.
    fn cut_and_compare(
        ftl: &mut Ftl,
        nand: &mut NandArray,
        cut: Nanos,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        nand.power_cut(cut);
        ftl.power_fail(cut);
        let want = full_scan_recovery(ftl, nand);
        ftl.recover(nand);
        let mut map = ftl.map.clone();
        proptest::prop_assert!(map.len() <= want.map.len());
        map.resize(want.map.len(), None);
        proptest::prop_assert_eq!(map, want.map);
        proptest::prop_assert_eq!(&ftl.valid, &want.valid);
        proptest::prop_assert_eq!(&ftl.bad, &want.bad);
        let bpd = ftl.blocks_per_die;
        for (die, want_free) in want.free.into_iter().enumerate() {
            let mut free = ftl.free_blocks[die].clone();
            let popped: Vec<u32> = std::iter::from_fn(|| free.pop(bpd)).collect();
            let want_popped: Vec<u32> = want_free.into_iter().rev().collect();
            proptest::prop_assert_eq!(popped, want_popped, "die {}", die);
        }
        let want_count: usize = (0..ftl.free_blocks.len())
            .map(|d| ftl.free_blocks[d].len(bpd))
            .sum();
        proptest::prop_assert_eq!(ftl.free_count, want_count);
        proptest::prop_assert_eq!(
            victim_order(ftl.victims.clone()),
            victim_order(want.victims)
        );
        assert_index_matches_full_scan(ftl);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random schedules of writes over a hot and a cold set — enough to
        /// run GC on the tiny array — with checkpoints every few records,
        /// program failures in some runs, and cuts that land between writes
        /// or with programs in flight, each followed by a recovery and more
        /// writes: every recovery rebuilds the map, valid counts, bad set,
        /// free-block pop order, free count and victim order the full scan
        /// of every block did.
        #[test]
        fn recovery_rebuilds_what_the_full_scan_did(
            threshold in 2..24usize,
            fail in 0..3u8,
            seed in proptest::prelude::any::<u64>(),
            ops in proptest::collection::vec((0..40u64, 0..400u64, 0..24u8), 20..400),
        ) {
            use bx_hostsim::{FaultConfig, FaultInjector};
            use std::cell::RefCell;
            use std::rc::Rc;

            let mut nand = if fail == 0 { faulty_nand() } else { tiny_nand() };
            if fail == 0 {
                nand.set_fault_injector(Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
                    seed,
                    nand_program_fail: 0.01,
                    ..FaultConfig::disabled()
                }))));
            }
            let mut ftl = Ftl::new(&nand, 0.25);
            ftl.journal.checkpoint_threshold = threshold;
            // The host issues each write once the last one is acked, so a
            // cut never lands before an erase the FTL already issued.
            let mut now = Nanos::ZERO;
            for (lpn, gap_us, kind) in ops {
                match kind {
                    // A cut up to 299 us before the last program completes
                    // (tearing it, and perhaps its journal record), or after.
                    0 => {
                        let cut = (now + Nanos::from_us(gap_us / 2)).saturating_sub(Nanos::from_us(gap_us % 300));
                        cut_and_compare(&mut ftl, &mut nand, cut.max(Nanos::from_ns(1)))?;
                        now = now.max(cut);
                    }
                    _ => {
                        let lpn = if kind % 2 == 0 { lpn % 5 } else { lpn };
                        match ftl.write(lpn, &page(kind), &mut nand, now + Nanos::from_us(gap_us)) {
                            Ok(done) => now = done,
                            // A dying array ends the schedule, but not before its
                            // recovery is checked.
                            Err(_) => break,
                        }
                    }
                }
            }
            cut_and_compare(&mut ftl, &mut nand, now)?;
        }
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
        let bpd = ftl.blocks_per_die as usize;
        for b in bits(&ftl.bad) {
            let (die, block) = (b / bpd, (b % bpd) as u32);
            assert!(
                !ftl.free_blocks[die].contains(&block),
                "bad block {b} re-entered the free pool"
            );
            assert_ne!(
                ftl.active[die].map(|(a, _)| a),
                Some(block),
                "bad block {b} is an active frontier"
            );
        }
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
        let bad_before = ftl.bad.clone();
        assert!(
            bits(&bad_before).next().is_some(),
            "fault rate should retire blocks"
        );
        nand.power_cut(t);
        ftl.power_fail(t);
        ftl.recover(&nand);
        assert_eq!(
            ftl.bad, bad_before,
            "retired blocks must stay retired after replay"
        );
        let bpd = ftl.blocks_per_die as usize;
        for b in bits(&ftl.bad) {
            assert!(!ftl.free_blocks[b / bpd].contains(&((b % bpd) as u32)));
        }
    }
}
