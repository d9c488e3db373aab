//! NAND flash array model.
//!
//! Models the Cosmos+ OpenSSD's flash subsystem at the granularity the paper
//! needs: channels × dies × blocks × pages, with per-die busy windows so
//! programs/reads on different dies overlap, erase-before-program
//! discipline, and a page store so reads return exactly the bytes
//! programmed (end-to-end integrity, not just timing). The store is indexed
//! by deterministic die-major block and page numbers — never by hashed keys
//! — so no randomized-hash iteration order can influence traces or timing.
//! A block has a row of page slots only from its first program to its
//! erase, and a program may hand over less than a page — the rest reads
//! back as zeros — so the array costs the simulator the blocks and bytes a
//! run programmed — 64 B for a 64 B payload in a 4 KB page — never its
//! capacity.
//!
//! The controller can disable NAND I/O entirely (`NandConfig::disabled`) to
//! reproduce the paper's transfer-latency-only experiments ("with NAND I/O
//! disabled on the OpenSSD", §4.2).

use crate::bus::FaultHandle;
use crate::rows::BlockRows;
use bx_hostsim::Nanos;
use bx_trace::{EventKind, TraceSink};
use std::fmt;
use std::num::NonZeroU32;

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ppa {
    /// Channel index.
    pub channel: u16,
    /// Die (way) index within the channel.
    pub die: u16,
    /// Block index within the die.
    pub block: u32,
    /// Page index within the block.
    pub page: u32,
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/d{}/b{}/p{}",
            self.channel, self.die, self.block, self.page
        )
    }
}

/// A [`Ppa`] in four bytes, never zero — so `Option<PackedPpa>` is four
/// bytes too, `None` is the all-zero pattern, and a table of them comes from
/// the allocator zeroed and untouched. Made and read by [`PpaPacking`].
pub(crate) type PackedPpa = NonZeroU32;

/// How one geometry's [`Ppa`]s pack into a [`PackedPpa`]: each coordinate in
/// the bits its range needs — page lowest, then block, die, channel — plus
/// one. Packing and unpacking are shifts and masks: the FTL does both on
/// every write and read, and a dense index would cost three divisions to
/// take apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PpaPacking {
    page_bits: u32,
    block_bits: u32,
    die_bits: u32,
}

/// Bits needed to hold every value below `range`.
fn bits_for(range: u32) -> u32 {
    u32::BITS - range.saturating_sub(1).leading_zeros()
}

fn low_bits(v: u32, bits: u32) -> u32 {
    v & ((1 << bits) - 1)
}

impl PpaPacking {
    pub(crate) fn pack(self, ppa: Ppa) -> PackedPpa {
        let die = ((ppa.channel as u32) << self.die_bits) | ppa.die as u32;
        let block = (die << self.block_bits) | ppa.block;
        let page = (block << self.page_bits) | ppa.page;
        PackedPpa::MIN.saturating_add(page)
    }

    pub(crate) fn unpack(self, packed: PackedPpa) -> Ppa {
        let page = packed.get() - 1;
        let block = page >> self.page_bits;
        let die = block >> self.block_bits;
        Ppa {
            channel: (die >> self.die_bits) as u16,
            die: low_bits(die, self.die_bits) as u16,
            block: low_bits(block, self.block_bits),
            page: low_bits(page, self.page_bits),
        }
    }
}

/// NAND geometry and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct NandConfig {
    /// Number of channels.
    pub channels: u16,
    /// Dies per channel.
    pub dies_per_channel: u16,
    /// Blocks per die.
    pub blocks_per_die: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Page size in bytes. A device needs at least one logical block (4 KB)
    /// per page.
    pub page_size: usize,
    /// Page read (tR) latency.
    pub read_latency: Nanos,
    /// Page program (tPROG) latency.
    pub program_latency: Nanos,
    /// Block erase (tBERS) latency.
    pub erase_latency: Nanos,
    /// Channel transfer rate in bytes per nanosecond (flash bus).
    pub channel_bytes_per_ns: f64,
    /// When false, program/read return immediately with zero latency and no
    /// data is stored — the paper's "NAND off" mode for isolating transfer
    /// latency.
    pub enabled: bool,
}

impl NandConfig {
    /// A small OpenSSD-like array: 8 channels × 4 dies, 4 KB pages.
    ///
    /// Block/die counts are kept small so FTL tests exercise GC quickly; the
    /// capacity is configurable for larger runs.
    pub fn small() -> Self {
        NandConfig {
            channels: 8,
            dies_per_channel: 4,
            blocks_per_die: 64,
            pages_per_block: 64,
            page_size: 4096,
            read_latency: Nanos::from_us(50),
            program_latency: Nanos::from_us(300),
            erase_latency: Nanos::from_ms(3),
            channel_bytes_per_ns: 0.4, // 400 MB/s flash bus
            enabled: true,
        }
    }

    /// NAND disabled: the paper's transfer-latency measurement mode.
    pub fn disabled() -> Self {
        NandConfig {
            enabled: false,
            ..Self::small()
        }
    }

    /// Total pages in the array.
    pub(crate) fn total_pages(&self) -> u64 {
        self.channels as u64
            * self.dies_per_channel as u64
            * self.blocks_per_die as u64
            * self.pages_per_block as u64
    }

    /// Total dies.
    pub(crate) fn total_dies(&self) -> usize {
        self.channels as usize * self.dies_per_channel as usize
    }

    /// The packing of this geometry's page addresses, or `None` when they
    /// need more than the 31 bits a [`PackedPpa`] has to give.
    pub(crate) fn ppa_packing(&self) -> Option<PpaPacking> {
        let packing = PpaPacking {
            page_bits: bits_for(self.pages_per_block),
            block_bits: bits_for(self.blocks_per_die),
            die_bits: bits_for(self.dies_per_channel as u32),
        };
        let bits = bits_for(self.channels as u32)
            + packing.die_bits
            + packing.block_bits
            + packing.page_bits;
        (bits < u32::BITS).then_some(packing)
    }

    fn die_index(&self, ppa: Ppa) -> usize {
        ppa.channel as usize * self.dies_per_channel as usize + ppa.die as usize
    }

    /// Dense die-major global block index: blocks of one die are
    /// contiguous. Keys the page slot rows — a dense structure is
    /// deterministic to traverse and cheaper to address than hashing a `Ppa`.
    fn block_index(&self, ppa: Ppa) -> usize {
        self.die_index(ppa) * self.blocks_per_die as usize + ppa.block as usize
    }

    /// Flash-bus time of one page: programs and reads move the whole page
    /// whatever the caller handed over or asked for.
    fn page_transfer_time(&self) -> Nanos {
        Nanos::from_ns((self.page_size as f64 / self.channel_bytes_per_ns).ceil() as u64)
    }
}

/// Errors from NAND operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// Address outside the configured geometry.
    BadAddress(Ppa),
    /// Program issued to a page that was not erased (or programmed twice).
    ProgramWithoutErase(Ppa),
    /// Read of a page that was never programmed.
    ReadUnwritten(Ppa),
    /// Program data is longer than one page, or a read range runs past the
    /// page end.
    BadLength {
        /// Bytes provided (program) or the range's end offset (read).
        got: usize,
        /// Page size expected.
        want: usize,
    },
    /// Injected transient program failure; the page is burned and the FTL
    /// should retire the block and remap the write.
    ProgramFailed(Ppa),
    /// Read returned more flipped bits than the ECC can correct.
    Uncorrectable(Ppa),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BadAddress(p) => write!(f, "ppa out of range: {p}"),
            NandError::ProgramWithoutErase(p) => write!(f, "program without erase at {p}"),
            NandError::ReadUnwritten(p) => write!(f, "read of unwritten page {p}"),
            NandError::BadLength { got, want } => {
                write!(f, "bad page data length: got {got}, page is {want}")
            }
            NandError::ProgramFailed(p) => write!(f, "page program failed at {p}"),
            NandError::Uncorrectable(p) => write!(f, "uncorrectable read at {p}"),
        }
    }
}

impl std::error::Error for NandError {}

/// Slot of a page never programmed since its block's last erase. Zero, so
/// a block without a row is erased.
const ERASED: u32 = 0;
/// Slot of a programmed page with nothing to read: its program failed or a
/// power cut tore it. Burned until the block is erased.
const BURNED: u32 = 1;
/// Slot values from here up are programmed pages holding
/// `buffers[slot - HELD]`.
const HELD: u32 = 2;

/// The NAND array: data store plus per-die timing state.
#[derive(Debug)]
pub struct NandArray {
    cfg: NandConfig,
    /// One slot per page, [`ERASED`], [`BURNED`], or [`HELD`] plus the
    /// index of the page's buffer, in a row per block keyed by
    /// [`NandConfig::block_index`] and page. A block gets its row on its
    /// first program (or burn) and gives it back when erased, so the table
    /// costs the blocks a run programs, and "erased" is "has no row" —
    /// recovery asks it of every block of the array. Dense indexing keeps
    /// every traversal (and therefore every trace/wire consequence)
    /// deterministic — no randomized-hash iteration order can leak out of
    /// the media model.
    slots: BlockRows,
    /// The bytes each programmed page was handed — possibly less than a
    /// page, possibly none, still data; [`NandArray::read_range`] restores
    /// the zero tail.
    buffers: Vec<Box<[u8]>>,
    /// Entries of `buffers` whose page was erased or torn, for the next
    /// programs to fill. Their bytes went back to the allocator: a buffer
    /// is as long as its page's payload, and recycling one for a page of
    /// another length measured slower end to end than allocating afresh
    /// (DESIGN.md §12).
    free_buffers: Vec<u32>,
    /// Per-die "busy until" instants, enabling inter-die parallelism.
    die_busy_until: Vec<Nanos>,
    /// [`NandConfig::page_transfer_time`], computed once.
    page_transfer: Nanos,
    /// Per-page program-complete marks: programs whose completion instant may
    /// still lie in the future. The data is inserted at issue time (the
    /// simulation is single-threaded), so these marks are what distinguishes
    /// a durable page from a half-programmed one when a power cut lands
    /// mid-pulse. Pruned lazily as programs finish.
    pending_programs: Vec<(Ppa, Nanos)>,
    /// Statistics.
    stats: NandStats,
    /// Shared fault injector (media faults fire only when installed).
    faults: Option<FaultHandle>,
    /// Flight-recorder sink (inert unless recording).
    trace: TraceSink,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NandStats {
    /// Pages programmed.
    pub programs: u64,
    /// Pages read.
    pub reads: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Page programs that failed (injected media faults).
    pub program_failures: u64,
    /// Reads whose bit flips the ECC corrected transparently.
    pub ecc_corrected_reads: u64,
    /// Reads with more flipped bits than the ECC could correct.
    pub uncorrectable_reads: u64,
}

impl NandArray {
    /// Creates an array with all blocks in the erased state.
    pub fn new(cfg: NandConfig) -> Self {
        let dies = cfg.total_dies();
        NandArray {
            slots: BlockRows::new(
                dies * cfg.blocks_per_die as usize,
                cfg.pages_per_block as usize,
            ),
            buffers: Vec::new(),
            free_buffers: Vec::new(),
            page_transfer: cfg.page_transfer_time(),
            cfg,
            die_busy_until: vec![Nanos::ZERO; dies],
            pending_programs: Vec::new(),
            stats: NandStats::default(),
            faults: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Installs the platform's shared fault injector; media faults (program
    /// failures, read bit flips) fire only once this is set.
    pub(crate) fn set_fault_injector(&mut self, faults: FaultHandle) {
        self.faults = Some(faults);
    }

    /// Installs a flight-recorder sink; program/read/erase operations emit
    /// [`EventKind::NandOp`] events. Disabled sinks cost nothing.
    pub(crate) fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    fn trace_op(&self, op: &'static str, ppa: Ppa, start: Nanos, done: Nanos) {
        self.trace.emit(None, || EventKind::NandOp {
            op,
            channel: ppa.channel as u32,
            die: ppa.die as u32,
            start,
            busy: done.saturating_sub(start),
        });
    }

    /// The configuration.
    pub fn config(&self) -> &NandConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> NandStats {
        self.stats
    }

    fn check(&self, ppa: Ppa) -> Result<(), NandError> {
        if ppa.channel < self.cfg.channels
            && ppa.die < self.cfg.dies_per_channel
            && ppa.block < self.cfg.blocks_per_die
            && ppa.page < self.cfg.pages_per_block
        {
            Ok(())
        } else {
            Err(NandError::BadAddress(ppa))
        }
    }

    /// The slot of a page inside the geometry.
    fn slot(&self, ppa: Ppa) -> u32 {
        self.slots
            .get(self.cfg.block_index(ppa))
            .map_or(ERASED, |row| row[ppa.page as usize])
    }

    /// Gives the bytes of the buffer a page's `slot` names, if it names
    /// one, back to the allocator, and its entry to the next program.
    fn free_buffer(buffers: &mut [Box<[u8]>], free_buffers: &mut Vec<u32>, slot: u32) {
        if let Some(buffer) = slot.checked_sub(HELD) {
            buffers[buffer as usize] = Box::default();
            free_buffers.push(buffer);
        }
    }

    /// Programs a page with `data`, starting no earlier than `now`. `data`
    /// may be shorter than a page: the rest of the page reads as zeros.
    /// Timing does not depend on its length — the die programs, and the
    /// flash bus moves, the whole page.
    ///
    /// Returns the instant the program completes (the die is busy until
    /// then). With NAND disabled, returns `now` and stores nothing.
    ///
    /// # Errors
    ///
    /// * [`NandError::BadAddress`] outside the geometry.
    /// * [`NandError::BadLength`] if `data` is longer than one page.
    /// * [`NandError::ProgramWithoutErase`] when overwriting in place.
    pub fn program(&mut self, ppa: Ppa, data: &[u8], now: Nanos) -> Result<Nanos, NandError> {
        self.check(ppa)?;
        if !self.cfg.enabled {
            return Ok(now);
        }
        if data.len() > self.cfg.page_size {
            return Err(NandError::BadLength {
                got: data.len(),
                want: self.cfg.page_size,
            });
        }
        // `check` put every coordinate inside the geometry, so the block
        // and page index the table.
        if self.slot(ppa) != ERASED {
            return Err(NandError::ProgramWithoutErase(ppa));
        }
        let block = self.cfg.block_index(ppa);
        // Injected program failure: the program pulse still burns die time and
        // the page (it stays burned until the block is erased), but no data
        // lands — the FTL retires the block and remaps.
        let failed = match &self.faults {
            Some(f) => f.borrow_mut().nand_program_fail(),
            None => false,
        };
        if failed {
            self.slots.open(block)[ppa.page as usize] = BURNED;
            self.stats.program_failures += 1;
            let die = self.cfg.die_index(ppa);
            let start = self.die_busy_until[die].max(now);
            self.die_busy_until[die] = start + self.page_transfer + self.cfg.program_latency;
            return Err(NandError::ProgramFailed(ppa));
        }
        let held = data.into();
        let buffer = match self.free_buffers.pop() {
            Some(freed) => {
                self.buffers[freed as usize] = held;
                freed
            }
            None => {
                self.buffers.push(held);
                (self.buffers.len() - 1) as u32
            }
        };
        self.slots.open(block)[ppa.page as usize] = HELD + buffer;
        self.stats.programs += 1;

        let die = self.cfg.die_index(ppa);
        let start = self.die_busy_until[die].max(now);
        let done = start + self.page_transfer + self.cfg.program_latency;
        self.die_busy_until[die] = done;
        self.pending_programs.retain(|&(_, d)| d > now);
        self.pending_programs.push((ppa, done));
        self.trace_op("program", ppa, start, done);
        Ok(done)
    }

    /// Reads a page, starting no earlier than `now`, and appends bytes
    /// `off..off + len` of it to `out`; returns the completion instant. The
    /// die senses and transfers the whole page whatever the range — timing,
    /// statistics, fault draws and the trace event do not depend on it — but
    /// the simulator copies only the bytes asked for. `out` is untouched on
    /// error.
    ///
    /// # Errors
    ///
    /// * [`NandError::BadAddress`] outside the geometry.
    /// * [`NandError::BadLength`] if the range runs past the page end.
    /// * [`NandError::ReadUnwritten`] for never-programmed pages.
    /// * [`NandError::Uncorrectable`] on an injected read beyond the ECC.
    pub(crate) fn read_range(
        &mut self,
        ppa: Ppa,
        off: usize,
        len: usize,
        now: Nanos,
        out: &mut Vec<u8>,
    ) -> Result<Nanos, NandError> {
        self.check(ppa)?;
        let end = off.saturating_add(len);
        if end > self.cfg.page_size {
            return Err(NandError::BadLength {
                got: end,
                want: self.cfg.page_size,
            });
        }
        if !self.cfg.enabled {
            out.resize(out.len() + len, 0);
            return Ok(now);
        }
        let buffer = self
            .slot(ppa)
            .checked_sub(HELD)
            .ok_or(NandError::ReadUnwritten(ppa))?;
        self.stats.reads += 1;
        let die = self.cfg.die_index(ppa);
        let start = self.die_busy_until[die].max(now);
        let done = start + self.cfg.read_latency + self.page_transfer;
        self.die_busy_until[die] = done;
        // Injected read disturb: a correctable flip count is fixed by the ECC
        // (the caller still gets clean data); past the ECC strength the read
        // fails. Flips are transient — a retry re-draws the schedule.
        if let Some(f) = &self.faults {
            let mut f = f.borrow_mut();
            if let Some(flips) = f.nand_read_flips() {
                if flips <= f.ecc_correctable_bits() {
                    self.stats.ecc_corrected_reads += 1;
                } else {
                    self.stats.uncorrectable_reads += 1;
                    return Err(NandError::Uncorrectable(ppa));
                }
            }
        }
        // The slot holds what the program was handed; whatever of the range
        // lies beyond that is the zero tail.
        let stored = &self.buffers[buffer as usize];
        let held = stored
            .get(off.min(stored.len())..end.min(stored.len()))
            .unwrap_or_default();
        let filled = out.len() + len;
        out.extend_from_slice(held);
        out.resize(filled, 0);
        self.trace_op("read", ppa, start, done);
        Ok(done)
    }

    /// Erases a block, returning the completion instant.
    ///
    /// # Errors
    ///
    /// [`NandError::BadAddress`] outside the geometry.
    pub fn erase(
        &mut self,
        channel: u16,
        die: u16,
        block: u32,
        now: Nanos,
    ) -> Result<Nanos, NandError> {
        let probe = Ppa {
            channel,
            die,
            block,
            page: 0,
        };
        self.check(probe)?;
        if !self.cfg.enabled {
            return Ok(now);
        }
        // The block's row holds every page it programmed: free their
        // buffers, then give the row back.
        let block = self.cfg.block_index(probe);
        if let Some(row) = self.slots.get(block) {
            for &slot in row {
                Self::free_buffer(&mut self.buffers, &mut self.free_buffers, slot);
            }
        }
        self.slots.release(block);
        self.stats.erases += 1;
        let die_idx = self.cfg.die_index(probe);
        let start = self.die_busy_until[die_idx].max(now);
        let done = start + self.cfg.erase_latency;
        self.die_busy_until[die_idx] = done;
        self.trace_op("erase", probe, start, done);
        Ok(done)
    }

    /// Whether `ppa` holds durable data (programmed *and* the program pulse
    /// finished before any power cut destroyed it). Recovery uses this to
    /// validate journal records against the media.
    pub(crate) fn has_data(&self, ppa: Ppa) -> bool {
        self.check(ppa).is_ok() && self.slot(ppa) >= HELD
    }

    /// How many bytes the program of `ppa` was handed: the prefix of the
    /// page that holds everything it does, the rest being zeros. GC copies
    /// that much, so a relocated page stays as short as it was written.
    /// Zero for a page without data.
    pub(crate) fn programmed_len(&self, ppa: Ppa) -> usize {
        if self.check(ppa).is_err() {
            return 0;
        }
        self.slot(ppa)
            .checked_sub(HELD)
            .map_or(0, |buffer| self.buffers[buffer as usize].len())
    }

    /// The completion instant of the latest still-in-flight program, or
    /// `Nanos::ZERO` when nothing is pending. The FTL waits through this
    /// horizon before destroying superseded copies (erase) so a power cut
    /// can never lose both the old and the new version of an acked page.
    pub(crate) fn program_horizon(&self) -> Nanos {
        self.pending_programs
            .iter()
            .map(|&(_, done)| done)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Whether every page of dense block `block` ([`NandConfig`]'s
    /// die-major index) is in the erased state (never programmed since the
    /// last erase): whether it has no row. Recovery rebuilds the free-block
    /// list from this. Erases are modeled atomic at issue: a cut mid-erase
    /// leaves the block erased, never half-erased.
    pub(crate) fn is_block_erased(&self, block: usize) -> bool {
        self.slots.get(block).is_none()
    }

    /// The dense indices of the blocks not erased, in no particular order:
    /// what recovery visits.
    pub(crate) fn blocks_with_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.blocks()
    }

    /// A whole-system power cut at instant `at`: every program whose pulse
    /// had not completed loses its data (the page stays burned —
    /// programmed-but-unreadable — until its block is erased, the classic
    /// half-programmed torn page), and all volatile die-busy windows
    /// collapse. Returns the number of torn pages.
    pub fn power_cut(&mut self, at: Nanos) -> usize {
        let mut torn = 0;
        for pending in 0..self.pending_programs.len() {
            let (ppa, done) = self.pending_programs[pending];
            if done <= at {
                continue;
            }
            let block = self.cfg.block_index(ppa);
            // A page with data has a row.
            if let Some(slot) = self
                .slots
                .get_mut(block)
                .map(|row| &mut row[ppa.page as usize])
            {
                if *slot >= HELD {
                    Self::free_buffer(&mut self.buffers, &mut self.free_buffers, *slot);
                    *slot = BURNED;
                    torn += 1;
                }
            }
        }
        self.pending_programs.clear();
        for busy in &mut self.die_busy_until {
            *busy = at;
        }
        torn
    }
}

/// The shortest prefix of `page` holding all its non-zero bytes: what a
/// sub-page program of it must hand over.
#[cfg(test)]
pub(crate) fn nonzero_prefix(page: &[u8]) -> &[u8] {
    &page[..page
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1)]
}

/// `(name, page)` for pages whose zero runs sit in different places: all,
/// none, a tail, an inner run, a lone byte at either end.
#[cfg(test)]
pub(crate) fn shaped_pages() -> Vec<(&'static str, Vec<u8>)> {
    let mut zero_tailed = vec![0u8; 4096];
    zero_tailed[..64].fill(0xA5);
    let mut ragged = vec![0u8; 4096];
    ragged[..200].fill(0x11);
    ragged[130] = 0;
    let mut trailing = vec![0u8; 4096];
    trailing[4095] = 1;
    let mut leading = vec![0u8; 4096];
    leading[0] = 9;
    vec![
        ("all zero", vec![0u8; 4096]),
        ("zero-tailed", zero_tailed),
        ("zero-tailed, off-stride, inner zero", ragged),
        ("full", vec![0xFF; 4096]),
        ("single trailing byte", trailing),
        ("single leading byte", leading),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_hostsim::{FaultConfig, FaultInjector};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// [`NandArray::is_block_erased`] of a block by its coordinates.
    fn erased(n: &NandArray, channel: u16, die: u16, block: u32) -> bool {
        n.is_block_erased(n.cfg.block_index(Ppa {
            channel,
            die,
            block,
            page: 0,
        }))
    }

    fn array() -> NandArray {
        NandArray::new(NandConfig::small())
    }

    /// Reads the whole page at `ppa`.
    fn read(n: &mut NandArray, ppa: Ppa, now: Nanos) -> Result<(Vec<u8>, Nanos), NandError> {
        let mut data = Vec::new();
        let done = n.read_range(ppa, 0, n.cfg.page_size, now, &mut data)?;
        Ok((data, done))
    }

    fn die_ready_at(n: &NandArray, ppa: Ppa) -> Nanos {
        n.die_busy_until[n.cfg.die_index(ppa)]
    }

    fn ppa(channel: u16, die: u16, block: u32, page: u32) -> Ppa {
        Ppa {
            channel,
            die,
            block,
            page,
        }
    }

    #[test]
    fn program_then_read_round_trip() {
        let mut n = array();
        let data = vec![0xAB; 4096];
        let done = n.program(ppa(0, 0, 0, 0), &data, Nanos::ZERO).unwrap();
        assert!(done >= Nanos::from_us(300));
        let (back, _) = read(&mut n, ppa(0, 0, 0, 0), done).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn every_page_shape_reads_back_whole() {
        let mut n = array();
        let mut t = Nanos::ZERO;
        for (i, (name, page)) in shaped_pages().into_iter().enumerate() {
            let at = ppa(0, 0, 0, i as u32);
            t = n.program(at, &page, t).unwrap();
            assert!(n.has_data(at), "{name}: a programmed page is data");
            let (back, _) = read(&mut n, at, t).unwrap();
            assert_eq!(back.len(), 4096, "{name}");
            assert_eq!(back, page, "{name}");
        }
    }

    /// A program handed only `page[..n]` — any `n` from the page's last
    /// non-zero byte up — is indistinguishable from the program of the
    /// whole zero-padded page (the only form `program` took before): the
    /// same completion instants, whole and ranged reads, `has_data`, torn
    /// pages and counters, before and after a cut.
    #[test]
    fn sub_page_program_equals_the_padded_program() {
        for (name, page) in shaped_pages() {
            let short = nonzero_prefix(&page).len();
            for n in [short, short + 1, (short + 4096) / 2, 4095, 4096] {
                let n = n.clamp(short, 4096);
                let (mut padded, mut sub) = (array(), array());
                for (i, at) in [ppa(0, 0, 0, 0), ppa(0, 0, 0, 1)].into_iter().enumerate() {
                    let now = Nanos::from_us(i as u64);
                    assert_eq!(
                        padded.program(at, &page, now),
                        sub.program(at, &page[..n], now),
                        "{name}, {n} B"
                    );
                    assert_eq!(sub.programmed_len(at), n, "{name}");
                }
                let cut = die_ready_at(&padded, ppa(0, 0, 0, 0)) - Nanos::from_ns(1);
                for stage in ["programmed", "cut"] {
                    for page_no in 0..2 {
                        let at = ppa(0, 0, 0, page_no);
                        assert_eq!(padded.has_data(at), sub.has_data(at), "{name} {stage}");
                        for (off, len) in [
                            (0, 4096),
                            (0, n),
                            (n, 4096 - n),
                            (n / 2, 64.min(4096 - n / 2)),
                        ] {
                            let (mut a, mut b) = (Vec::new(), Vec::new());
                            assert_eq!(
                                padded.read_range(at, off, len, cut, &mut a),
                                sub.read_range(at, off, len, cut, &mut b),
                                "{name}, {n} B, {stage}, page {page_no}"
                            );
                            assert_eq!(a, b, "{name}, {n} B, {stage}, page {page_no}, {off}+{len}");
                        }
                    }
                    assert_eq!(padded.stats(), sub.stats(), "{name} {stage}");
                    if stage == "programmed" {
                        assert_eq!(padded.power_cut(cut), sub.power_cut(cut), "{name}");
                    }
                }
            }
        }
    }

    /// `BadLength` is for more than a page; anything up to one, nothing
    /// included, is a program.
    #[test]
    fn bad_length_only_above_the_page_size() {
        let mut n = array();
        for (page_no, len) in [0, 1, 64, 4095, 4096].into_iter().enumerate() {
            let at = ppa(0, 0, 0, page_no as u32);
            n.program(at, &vec![7; len], Nanos::ZERO).unwrap();
            assert_eq!(
                read(&mut n, at, Nanos::ZERO).unwrap().0[..len],
                vec![7; len]
            );
        }
        assert_eq!(
            n.program(ppa(0, 0, 1, 0), &[0u8; 4097], Nanos::ZERO)
                .unwrap_err(),
            NandError::BadLength {
                got: 4097,
                want: 4096
            }
        );
        assert!(erased(&n, 0, 0, 1), "a refused program touches nothing");
    }

    #[test]
    fn power_cut_tears_every_page_shape_alike() {
        for (name, page) in shaped_pages() {
            let mut n = array();
            let t1 = n.program(ppa(0, 0, 0, 0), &page, Nanos::ZERO).unwrap();
            let t2 = n.program(ppa(0, 0, 0, 1), &page, Nanos::ZERO).unwrap();
            assert_eq!(n.power_cut(t2 - Nanos::from_ns(1)), 1, "{name}");
            assert!(n.has_data(ppa(0, 0, 0, 0)), "{name}: completed program");
            assert_eq!(read(&mut n, ppa(0, 0, 0, 0), t1).unwrap().0, page, "{name}");
            assert!(!n.has_data(ppa(0, 0, 0, 1)), "{name}: torn program");
            assert!(matches!(
                read(&mut n, ppa(0, 0, 0, 1), t2),
                Err(NandError::ReadUnwritten(_))
            ));
        }
    }

    #[test]
    fn program_without_erase_rejected() {
        let mut n = array();
        let data = vec![1; 4096];
        n.program(ppa(0, 0, 0, 0), &data, Nanos::ZERO).unwrap();
        assert_eq!(
            n.program(ppa(0, 0, 0, 0), &data, Nanos::ZERO).unwrap_err(),
            NandError::ProgramWithoutErase(ppa(0, 0, 0, 0))
        );
    }

    #[test]
    fn erase_enables_reprogram() {
        let mut n = array();
        let data = vec![1; 4096];
        n.program(ppa(0, 0, 0, 0), &data, Nanos::ZERO).unwrap();
        let t = n.erase(0, 0, 0, Nanos::ZERO).unwrap();
        assert!(t >= Nanos::from_ms(3));
        n.program(ppa(0, 0, 0, 0), &data, t).unwrap();
        // Erase wiped the old data state; read returns the new program.
        let (back, _) = read(&mut n, ppa(0, 0, 0, 0), t).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn erase_wipes_data() {
        let mut n = array();
        n.program(ppa(0, 0, 1, 3), &vec![7; 4096], Nanos::ZERO)
            .unwrap();
        n.erase(0, 0, 1, Nanos::ZERO).unwrap();
        assert_eq!(
            read(&mut n, ppa(0, 0, 1, 3), Nanos::ZERO).unwrap_err(),
            NandError::ReadUnwritten(ppa(0, 0, 1, 3))
        );
    }

    #[test]
    fn read_unwritten_is_error() {
        let mut n = array();
        assert!(matches!(
            read(&mut n, ppa(1, 1, 1, 1), Nanos::ZERO),
            Err(NandError::ReadUnwritten(_))
        ));
    }

    #[test]
    fn bad_address_rejected() {
        let mut n = array();
        assert!(matches!(
            n.program(ppa(99, 0, 0, 0), &vec![0; 4096], Nanos::ZERO),
            Err(NandError::BadAddress(_))
        ));
        assert!(matches!(
            n.erase(0, 0, 9999, Nanos::ZERO),
            Err(NandError::BadAddress(_))
        ));
    }

    #[test]
    fn same_die_serializes() {
        let mut n = array();
        let d = vec![0; 4096];
        let t1 = n.program(ppa(0, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        let t2 = n.program(ppa(0, 0, 0, 1), &d, Nanos::ZERO).unwrap();
        assert!(t2 >= t1 + n.config().program_latency);
    }

    #[test]
    fn different_dies_parallel() {
        let mut n = array();
        let d = vec![0; 4096];
        let t1 = n.program(ppa(0, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        let t2 = n.program(ppa(1, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        assert_eq!(t1, t2, "programs on different channels should overlap");
    }

    #[test]
    fn disabled_nand_is_free_and_stateless() {
        let mut n = NandArray::new(NandConfig::disabled());
        let t = n
            .program(ppa(0, 0, 0, 0), &[1, 2, 3], Nanos::from_ns(5))
            .unwrap();
        assert_eq!(t, Nanos::from_ns(5));
        let (data, t2) = read(&mut n, ppa(0, 0, 0, 0), t).unwrap();
        assert_eq!(t2, t);
        assert_eq!(data.len(), 4096);
        assert_eq!(n.stats().programs, 0);
    }

    #[test]
    fn stats_count_operations() {
        let mut n = array();
        let d = vec![0; 4096];
        n.program(ppa(0, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        read(&mut n, ppa(0, 0, 0, 0), Nanos::ZERO).unwrap();
        n.erase(0, 0, 0, Nanos::ZERO).unwrap();
        let s = n.stats();
        assert_eq!((s.programs, s.reads, s.erases), (1, 1, 1));
    }

    #[test]
    fn power_cut_tears_in_flight_programs_only() {
        let mut n = array();
        let d = vec![0xCD; 4096];
        // First program completes (cut lands after its `done`); the second,
        // queued behind it on the same die, is still mid-pulse at the cut.
        let t1 = n.program(ppa(0, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        let t2 = n.program(ppa(0, 0, 0, 1), &d, Nanos::ZERO).unwrap();
        assert!(t2 > t1);
        let torn = n.power_cut(t1);
        assert_eq!(torn, 1);
        assert!(n.has_data(ppa(0, 0, 0, 0)), "completed program survives");
        assert!(!n.has_data(ppa(0, 0, 0, 1)), "in-flight program is torn");
        // The torn page stays burned: reprogramming without erase fails.
        assert_eq!(
            n.program(ppa(0, 0, 0, 1), &d, t1).unwrap_err(),
            NandError::ProgramWithoutErase(ppa(0, 0, 0, 1))
        );
        // But its block is reclaimable through the normal erase path.
        let t = n.erase(0, 0, 0, t1).unwrap();
        n.program(ppa(0, 0, 0, 1), &d, t).unwrap();
    }

    #[test]
    fn power_cut_resets_die_busy_windows() {
        let mut n = array();
        let d = vec![1; 4096];
        n.program(ppa(0, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        let at = Nanos::from_us(5);
        n.power_cut(at);
        assert_eq!(die_ready_at(&n, ppa(0, 0, 0, 0)), at);
        assert_eq!(n.program_horizon(), Nanos::ZERO);
    }

    #[test]
    fn program_horizon_tracks_latest_pending_pulse() {
        let mut n = array();
        let d = vec![2; 4096];
        assert_eq!(n.program_horizon(), Nanos::ZERO);
        let t1 = n.program(ppa(0, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        let t2 = n.program(ppa(1, 0, 0, 0), &d, Nanos::ZERO).unwrap();
        assert_eq!(n.program_horizon(), t1.max(t2));
        // Issuing a program later than the horizon prunes finished entries.
        let t3 = n.program(ppa(2, 0, 0, 0), &d, t1.max(t2)).unwrap();
        assert_eq!(n.program_horizon(), t3);
    }

    #[test]
    fn block_erased_query_reflects_program_state() {
        let mut n = array();
        assert!(erased(&n, 0, 0, 5));
        n.program(ppa(0, 0, 5, 0), &vec![3; 4096], Nanos::ZERO)
            .unwrap();
        assert!(!erased(&n, 0, 0, 5));
        n.erase(0, 0, 5, Nanos::ZERO).unwrap();
        assert!(erased(&n, 0, 0, 5));
        // A torn page still counts as programmed (burned) until erased.
        let t = n
            .program(ppa(0, 0, 6, 0), &vec![4; 4096], Nanos::ZERO)
            .unwrap();
        n.power_cut(t.saturating_sub(Nanos::from_ns(1)));
        assert!(!erased(&n, 0, 0, 6));
    }

    /// A block has a row from its first program — a burned one included —
    /// to its erase, and the three questions recovery and GC ask read it:
    /// after a burned program, beside a torn page, and after an erase that
    /// hands the row to the next block zeroed.
    #[test]
    fn block_rows_follow_burns_tears_and_erases() {
        let faults = Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
            nand_program_fail: 1.0,
            ..FaultConfig::disabled()
        })));
        let mut n = array();
        n.set_fault_injector(faults.clone());
        let burned = ppa(0, 0, 2, 5);
        assert!(erased(&n, 0, 0, 2));
        assert_eq!(
            n.program(burned, &[1; 64], Nanos::ZERO),
            Err(NandError::ProgramFailed(burned))
        );
        faults.borrow_mut().reconfigure(FaultConfig::disabled());
        assert!(!erased(&n, 0, 0, 2), "a burn opens the row");
        assert!(!n.has_data(burned));
        assert_eq!(n.programmed_len(burned), 0);
        assert_eq!(
            n.program(burned, &[1; 64], Nanos::ZERO),
            Err(NandError::ProgramWithoutErase(burned))
        );
        let beside = ppa(0, 0, 2, 6);
        let t = n.program(beside, &[2; 100], Nanos::ZERO).unwrap();
        assert_eq!(n.programmed_len(beside), 100);

        let (kept, torn) = (ppa(1, 0, 3, 0), ppa(1, 0, 3, 1));
        let t1 = n.program(kept, &[3; 300], t).unwrap();
        n.program(torn, &[4; 400], t).unwrap();
        assert_eq!(n.power_cut(t1), 1);
        assert!(!erased(&n, 1, 0, 3));
        assert!(n.has_data(kept) && !n.has_data(torn));
        assert_eq!((n.programmed_len(kept), n.programmed_len(torn)), (300, 0));

        for (channel, block) in [(0, 2), (1, 3)] {
            n.erase(channel, 0, block, t1).unwrap();
            assert!(erased(&n, channel, 0, block));
        }
        for at in [burned, beside, kept, torn] {
            assert!(!n.has_data(at));
            assert_eq!(n.programmed_len(at), 0);
        }
        assert!(n.buffers.iter().all(|b| b.is_empty()), "bytes given back");
        // The rows the erases gave back serve the next blocks, zeroed.
        let next = ppa(2, 1, 7, 3);
        n.program(next, &[5; 10], t1).unwrap();
        assert!(!erased(&n, 2, 1, 7) && n.has_data(next));
        assert!((0..64)
            .filter(|&p| p != 3)
            .all(|p| !n.has_data(ppa(2, 1, 7, p))));
        assert!(erased(&n, 0, 0, 2) && erased(&n, 1, 0, 3));
    }

    #[test]
    fn erase_frees_page_buffers_and_programs_refill_their_entries() {
        let mut n = array();
        let mut t = Nanos::ZERO;
        // GC-like loop: program, erase, reprogram the same block. After the
        // first cycle the entries the erase freed are refilled, so the array
        // never holds more than the four it programmed at once.
        for round in 1..4u8 {
            for page in 0..4 {
                t = n
                    .program(ppa(0, 0, 0, page), &vec![round; 4096], t)
                    .unwrap();
            }
            let (back, _) = read(&mut n, ppa(0, 0, 0, 3), t).unwrap();
            assert_eq!(back, vec![round; 4096]);
            t = n.erase(0, 0, 0, t).unwrap();
        }
        assert_eq!(n.buffers.len(), 4);
        assert_eq!(n.free_buffers.len(), 4);
        assert!(n.buffers.iter().all(|b| b.is_empty()), "bytes given back");
    }

    /// `(shape, off, len)` read requests: anywhere in or past the page,
    /// around the short shapes' stored lengths (0, 1, 64, 200), empty, and
    /// ending exactly at the page end.
    fn range_requests() -> impl proptest::strategy::Strategy<Value = (usize, usize, usize)> {
        use proptest::prelude::*;
        let shapes = shaped_pages().len();
        prop_oneof![
            4 => (0..shapes, 0usize..=4200, 0usize..=4200),
            4 => (0..shapes, 0usize..=260, 0usize..=260),
            1 => (0..shapes, 0usize..=4096, Just(0usize)),
            2 => (0..shapes, 0usize..=4096).prop_map(|(shape, off)| (shape, off, 4096 - off)),
        ]
    }

    proptest::proptest! {
        /// A range read is the matching slice of a whole-page read and is
        /// indistinguishable from it on the die: same completion instant,
        /// same counters, same fault-injector draws.
        #[test]
        fn read_range_is_a_slice_of_read(
            requests in proptest::collection::vec(range_requests(), 1..60),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let faults = || {
                Rc::new(RefCell::new(FaultInjector::new(FaultConfig {
                    seed,
                    nand_read_bitflip: 0.3,
                    nand_max_flips: 8,
                    ecc_correctable_bits: 4,
                    ..FaultConfig::disabled()
                })))
            };
            let (whole_faults, range_faults) = (faults(), faults());
            let (mut whole, mut ranged) = (array(), array());
            whole.set_fault_injector(whole_faults.clone());
            ranged.set_fault_injector(range_faults.clone());
            let mut t = Nanos::ZERO;
            for (i, (_, page)) in shaped_pages().iter().enumerate() {
                whole.program(ppa(0, 0, 0, i as u32), page, t).unwrap();
                t = ranged.program(ppa(0, 0, 0, i as u32), page, t).unwrap();
            }
            for (shape, off, len) in requests {
                let at = ppa(0, 0, 0, shape as u32);
                let mut out = vec![0xEE];
                let got = ranged.read_range(at, off, len, t, &mut out);
                if off + len > 4096 {
                    // Refused before the die is touched: no read to compare.
                    assert_eq!(got, Err(NandError::BadLength { got: off + len, want: 4096 }));
                    assert_eq!(out, [0xEE]);
                    assert_eq!(ranged.stats(), whole.stats());
                    continue;
                }
                match read(&mut whole, at, t) {
                    Ok((page, done)) => {
                        assert_eq!(got, Ok(done));
                        assert_eq!(out[0], 0xEE, "appends, never overwrites");
                        assert_eq!(out[1..], page[off..off + len]);
                        t = done;
                    }
                    Err(e) => {
                        assert_eq!(got, Err(e));
                        assert_eq!(out, [0xEE], "untouched on error");
                    }
                }
                assert_eq!(ranged.stats(), whole.stats());
                assert_eq!(die_ready_at(&ranged, at), die_ready_at(&whole, at));
                assert_eq!(range_faults.borrow().counters(), whole_faults.borrow().counters());
            }
            // Same number of draws throughout: the next one agrees too.
            assert_eq!(
                range_faults.borrow_mut().nand_read_flips(),
                whole_faults.borrow_mut().nand_read_flips()
            );
        }
    }

    #[test]
    fn read_range_with_nand_off_appends_zeros() {
        let mut n = NandArray::new(NandConfig::disabled());
        let mut out = vec![7];
        let t = Nanos::from_ns(5);
        assert_eq!(n.read_range(ppa(0, 0, 0, 0), 10, 3, t, &mut out), Ok(t));
        assert_eq!(out, [7, 0, 0, 0]);
        assert!(n.read_range(ppa(0, 0, 0, 0), 4096, 1, t, &mut out).is_err());
    }

    #[test]
    fn packed_ppa_round_trips_every_page() {
        // `small()`, the FTL tests' array, and one with no power-of-two side.
        for (channels, dies_per_channel, blocks_per_die, pages_per_block) in
            [(8, 4, 64, 64), (2, 1, 8, 8), (3, 5, 7, 11)]
        {
            let cfg = NandConfig {
                channels,
                dies_per_channel,
                blocks_per_die,
                pages_per_block,
                ..NandConfig::small()
            };
            let packing = cfg.ppa_packing().expect("fits");
            let mut last = None;
            for channel in 0..channels {
                for die in 0..dies_per_channel {
                    for block in 0..blocks_per_die {
                        for page in 0..pages_per_block {
                            let at = ppa(channel, die, block, page);
                            let packed = packing.pack(at);
                            assert_eq!(packing.unpack(packed), at);
                            // Ascending in address order: no two pages share
                            // a slot value.
                            assert!(Some(packed) > last, "{at}");
                            last = Some(packed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packing_refuses_a_geometry_past_31_bits() {
        let fits = NandConfig {
            channels: 1 << 4,
            dies_per_channel: 1 << 4,
            blocks_per_die: 1 << 13,
            pages_per_block: 1 << 10,
            ..NandConfig::small()
        };
        let top = ppa(15, 15, (1 << 13) - 1, (1 << 10) - 1);
        let packing = fits.ppa_packing().expect("31 bits");
        assert_eq!(packing.unpack(packing.pack(top)), top);
        let too_big = NandConfig {
            blocks_per_die: (1 << 13) + 1,
            ..fits
        };
        assert_eq!(too_big.ppa_packing(), None);
    }

    #[test]
    fn geometry_totals() {
        let cfg = NandConfig::small();
        assert_eq!(cfg.total_dies(), 32);
        assert_eq!(cfg.total_pages(), 8 * 4 * 64 * 64);
    }
}
