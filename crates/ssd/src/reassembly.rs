//! Identifier-based out-of-order chunk reassembly.
//!
//! The paper's §3.3.2 sketches this as future work: relax the queue-local
//! fetch constraint by tagging each chunk with `{payload id, chunk number,
//! total count}` so the controller may accept chunks out of order — even
//! interleaved across submission queues — and place each directly at its
//! destination DRAM offset. Only lightweight metadata (payload id and a
//! receive bitmap) is kept in SRAM, respecting the paper's concern about
//! SRAM usage for in-flight transaction tracking.
//!
//! [`ReassemblyEngine`] implements exactly that, with an explicit SRAM
//! budget: each in-flight payload costs a fixed metadata record plus one bit
//! per chunk, and admission fails when the budget is exhausted (the
//! controller then falls back to queue-local fetching).
//!
//! ## Determinism and allocation discipline
//!
//! In-flight state lives in a fixed-capacity **slab** of reusable slots
//! (bitmaps and landing buffers keep their capacity across trains), indexed
//! by a `BTreeMap` from payload id to slot. The ordered index is
//! load-bearing: [`ReassemblyEngine::evict_stalled`] walks it so evicted
//! payload ids always come out in ascending payload-id order, where a
//! `HashMap`'s per-process random iteration order would leak into whatever
//! consumes them (pinned by `eviction_order_is_sorted_and_stable`).

// Ring and bitmap arithmetic: a computed index aborts on the one input
// nobody tested, so every `x[i]` here is an `#[expect]` with its bound.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use bx_hostsim::Nanos;
use bx_nvme::inline::{ChunkHeader, REASSEMBLY_CHUNK_PAYLOAD};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from chunk admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReassemblyError {
    /// The SRAM budget cannot admit another in-flight payload.
    SramExhausted {
        /// Bytes the new payload's metadata would need.
        needed: usize,
        /// Bytes remaining in the budget.
        remaining: usize,
    },
    /// A chunk arrived twice.
    DuplicateChunk {
        /// Payload the duplicate belongs to.
        payload_id: u32,
        /// The duplicated chunk number.
        chunk_no: u16,
    },
    /// Chunk number ≥ the payload's total.
    ChunkOutOfRange {
        /// Payload id.
        payload_id: u32,
        /// Offending chunk number.
        chunk_no: u16,
        /// Total chunks expected.
        total: u16,
    },
    /// Two chunks of one payload disagreed about the total count.
    InconsistentTotal {
        /// Payload id.
        payload_id: u32,
    },
    /// A chunk declared `total == 0`: a zero-length train is malformed on
    /// its face (every valid payload has at least one chunk) and is rejected
    /// up front rather than left to stall out the eviction deadline.
    ZeroLengthTrain {
        /// Payload id.
        payload_id: u32,
    },
}

impl fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassemblyError::SramExhausted { needed, remaining } => {
                write!(
                    f,
                    "reassembly sram exhausted: need {needed}, have {remaining}"
                )
            }
            ReassemblyError::DuplicateChunk {
                payload_id,
                chunk_no,
            } => {
                write!(f, "duplicate chunk {chunk_no} for payload {payload_id}")
            }
            ReassemblyError::ChunkOutOfRange {
                payload_id,
                chunk_no,
                total,
            } => {
                write!(
                    f,
                    "chunk {chunk_no} out of range (total {total}) for payload {payload_id}"
                )
            }
            ReassemblyError::InconsistentTotal { payload_id } => {
                write!(f, "inconsistent total count for payload {payload_id}")
            }
            ReassemblyError::ZeroLengthTrain { payload_id } => {
                write!(f, "zero-length chunk train for payload {payload_id}")
            }
        }
    }
}

impl std::error::Error for ReassemblyError {}

/// Fixed SRAM cost per tracked payload: id + buffer pointer + counters.
const RECORD_BYTES: usize = 16;

/// Cap on pooled landing buffers kept for reuse; beyond this, returned
/// buffers are dropped (the pool only needs to cover steady-state
/// concurrency, not a worst-case burst).
const SPARE_BUFFER_POOL: usize = 64;

/// One slab slot. Slots are recycled through a free list; `bitmap` and
/// `buffer` keep their capacity across occupancies so the steady-state
/// accept path performs no heap allocation.
#[derive(Debug, Default)]
struct Slot {
    total: u16,
    received: u16,
    bitmap: Vec<u64>,
    /// Reassembled payload bytes (stands in for the DRAM buffer the chunks
    /// land in; offsets are chunk_no × 56 as in the paper's sketch).
    buffer: Vec<u8>,
    /// When the first chunk arrived — the stall clock for eviction.
    first_seen: Nanos,
}

impl Slot {
    fn sram_bytes(total: u16) -> usize {
        RECORD_BYTES + (total as usize).div_ceil(8)
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "chunk_no < total is checked by accept_at and the bitmap is sized ceil(total/64) at insert"
    )]
    fn mark(&mut self, chunk_no: u16) -> bool {
        debug_assert!(chunk_no < self.total, "chunk_no validated by accept_at");
        let w = chunk_no as usize / 64;
        let b = chunk_no as usize % 64;
        debug_assert!(w < self.bitmap.len(), "bitmap sized for total at insert");
        if self.bitmap[w] >> b & 1 == 1 {
            return false;
        }
        self.bitmap[w] |= 1 << b;
        self.received += 1;
        debug_assert!(
            u32::from(self.received) == self.bitmap.iter().map(|w| w.count_ones()).sum::<u32>(),
            "received counter diverged from bitmap population"
        );
        true
    }
}

/// A completed payload returned by [`ReassemblyEngine::accept_at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedPayload {
    /// The payload identifier.
    pub payload_id: u32,
    /// Reassembled bytes (padded to whole chunks; the command's length field
    /// tells the firmware how much is real). Hand the buffer back via
    /// [`ReassemblyEngine::recycle`] to keep the hot path allocation-free.
    pub data: Vec<u8>,
}

/// Tracks in-flight multi-chunk payloads under an SRAM budget.
///
/// In-flight entries live in a slab of reusable `Slot`s; the id → slot
/// index is a `BTreeMap` so every bulk walk (stall eviction) observes
/// ascending payload-id order. See the module docs for why that ordering is
/// part of the engine's contract.
#[derive(Debug)]
pub struct ReassemblyEngine {
    slots: Vec<Slot>,
    free: Vec<usize>,
    index: BTreeMap<u32, usize>,
    spare_buffers: Vec<Vec<u8>>,
    sram_budget: usize,
    sram_used: usize,
    completed: u64,
    peak_inflight: usize,
    evicted: u64,
}

impl ReassemblyEngine {
    /// Creates an engine with `sram_budget` bytes for tracking metadata.
    pub fn new(sram_budget: usize) -> Self {
        ReassemblyEngine {
            slots: Vec::new(),
            free: Vec::new(),
            index: BTreeMap::new(),
            spare_buffers: Vec::new(),
            sram_budget,
            sram_used: 0,
            completed: 0,
            peak_inflight: 0,
            evicted: 0,
        }
    }

    /// Bytes of SRAM currently consumed by tracking state.
    pub fn sram_used(&self) -> usize {
        self.sram_used
    }

    /// Number of payloads currently in flight.
    pub fn inflight_count(&self) -> usize {
        self.index.len()
    }

    /// Payloads fully reassembled so far.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// The high-water mark of concurrently in-flight payloads — evidence of
    /// genuine cross-queue interleaving when > 1.
    pub fn peak_inflight(&self) -> usize {
        self.peak_inflight
    }

    /// Payloads evicted after stalling past the deadline (their SRAM was
    /// reclaimed without completing).
    pub fn evicted_count(&self) -> u64 {
        self.evicted
    }

    /// Takes a slot off the free list (or grows the slab) and initialises it
    /// for a new train. Reuses pooled buffer capacity where possible.
    fn alloc_slot(&mut self, total: u16, now: Nanos) -> usize {
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "idx comes from the free list or was just pushed; both are < slots.len()"
        )]
        let slot = &mut self.slots[idx];
        slot.total = total;
        slot.received = 0;
        slot.bitmap.clear();
        slot.bitmap.resize((total as usize).div_ceil(64), 0);
        if slot.buffer.capacity() == 0 {
            if let Some(spare) = self.spare_buffers.pop() {
                slot.buffer = spare;
            }
        }
        slot.buffer.clear();
        slot.buffer
            .resize(total as usize * REASSEMBLY_CHUNK_PAYLOAD, 0);
        slot.first_seen = now;
        idx
    }

    /// Detaches `payload_id` from the index, refunds its SRAM and returns
    /// the freed slot's index (already pushed onto the free list).
    fn release(&mut self, payload_id: u32) -> Option<usize> {
        let idx = self.index.remove(&payload_id)?;
        #[expect(
            clippy::indexing_slicing,
            reason = "index only ever stores live slab indices"
        )]
        let total = self.slots[idx].total;
        self.sram_used -= Slot::sram_bytes(total);
        self.free.push(idx);
        Some(idx)
    }

    /// Returns a completed payload's buffer to the reuse pool so the
    /// steady-state reassembly path stays allocation-free. Optional — an
    /// unreturned buffer only costs a fresh allocation on some later train.
    pub fn recycle(&mut self, mut buffer: Vec<u8>) {
        if self.spare_buffers.len() < SPARE_BUFFER_POOL && buffer.capacity() > 0 {
            buffer.clear();
            self.spare_buffers.push(buffer);
        }
    }

    /// Accepts one chunk arriving at `now`. Returns the completed payload
    /// once its final chunk arrives, in any order.
    ///
    /// `now` is the stall clock: the first chunk's arrival time is what
    /// [`ReassemblyEngine::evict_stalled`] ages against. (A former `accept`
    /// convenience that pinned the clock to `Nanos::ZERO` made every train
    /// instantly evictable once `now > deadline`; it has been removed —
    /// callers must say when the chunk arrived.)
    ///
    /// # Errors
    ///
    /// See [`ReassemblyError`]; on error the engine state is unchanged except
    /// that duplicate/out-of-range chunks are dropped.
    pub fn accept_at(
        &mut self,
        hdr: ChunkHeader,
        data: &[u8],
        now: Nanos,
    ) -> Result<Option<CompletedPayload>, ReassemblyError> {
        if hdr.total == 0 {
            return Err(ReassemblyError::ZeroLengthTrain {
                payload_id: hdr.payload_id,
            });
        }
        if hdr.chunk_no >= hdr.total {
            return Err(ReassemblyError::ChunkOutOfRange {
                payload_id: hdr.payload_id,
                chunk_no: hdr.chunk_no,
                total: hdr.total,
            });
        }
        let idx = match self.index.get(&hdr.payload_id) {
            Some(&idx) => idx,
            None => {
                let needed = Slot::sram_bytes(hdr.total);
                let remaining = self.sram_budget - self.sram_used;
                if needed > remaining {
                    return Err(ReassemblyError::SramExhausted { needed, remaining });
                }
                self.sram_used += needed;
                let idx = self.alloc_slot(hdr.total, now);
                self.index.insert(hdr.payload_id, idx);
                self.peak_inflight = self.peak_inflight.max(self.index.len());
                idx
            }
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "idx came from the index map or alloc_slot; both are < slots.len()"
        )]
        let slot = &mut self.slots[idx];
        if slot.total != hdr.total {
            return Err(ReassemblyError::InconsistentTotal {
                payload_id: hdr.payload_id,
            });
        }
        if !slot.mark(hdr.chunk_no) {
            return Err(ReassemblyError::DuplicateChunk {
                payload_id: hdr.payload_id,
                chunk_no: hdr.chunk_no,
            });
        }
        // Direct placement at the chunk's DRAM offset.
        let off = hdr.chunk_no as usize * REASSEMBLY_CHUNK_PAYLOAD;
        let take = data.len().min(REASSEMBLY_CHUNK_PAYLOAD);
        #[expect(
            clippy::indexing_slicing,
            reason = "buffer is sized total*56 at insert and chunk_no < total"
        )]
        slot.buffer[off..off + take].copy_from_slice(&data[..take]);

        if slot.received == slot.total {
            let data = std::mem::take(&mut slot.buffer);
            self.release(hdr.payload_id);
            self.completed += 1;
            return Ok(Some(CompletedPayload {
                payload_id: hdr.payload_id,
                data,
            }));
        }
        Ok(None)
    }

    /// Evicts every payload whose first chunk arrived more than `deadline`
    /// ago and that never completed (e.g. a truncated chunk train), so the
    /// tracking SRAM is reclaimed instead of leaking until reset. The
    /// controller discards the returned ids: it fails the owning commands
    /// from its own parked-command sweep (`gather::byteexpress::evict_stalled`).
    ///
    /// Evicted ids are returned in **ascending payload-id order** (the index
    /// is a `BTreeMap`), so the sweep is deterministic across runs — pinned
    /// by `eviction_order_is_sorted_and_stable`.
    ///
    /// The deadline boundary is EXCLUSIVE: a payload aged exactly `deadline`
    /// survives; eviction requires age strictly greater. This must agree
    /// with the parked-command check in the controller's
    /// `gather::byteexpress::evict_stalled` — both sides are pinned by
    /// `stall_eviction_boundary_is_exclusive` tests.
    pub fn evict_stalled(&mut self, now: Nanos, deadline: Nanos) -> Vec<u32> {
        let slots = &self.slots;
        #[expect(
            clippy::indexing_slicing,
            reason = "index only ever stores live slab indices"
        )]
        let expired: Vec<u32> = self
            .index
            .iter()
            .filter(|(_, &idx)| now.saturating_sub(slots[idx].first_seen) > deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            self.release(*id);
            self.evicted += 1;
        }
        expired
    }

    /// A power cut: every partially reassembled train is volatile SRAM/DRAM
    /// state and is discarded wholesale — a torn train must never surface as
    /// data after restart. Returns how many in-flight payloads were dropped
    /// (they are *not* counted as stall evictions).
    pub fn power_cut(&mut self) -> usize {
        let dropped = self.index.len();
        for (_, idx) in std::mem::take(&mut self.index) {
            self.free.push(idx);
        }
        self.sram_used = 0;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_nvme::inline::{encode_reassembly_chunks, split_reassembly_chunk};

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 253) as u8).collect()
    }

    /// `accept_at` with the stall clock pinned to time zero — the old
    /// `accept` shorthand, kept local to the tests that don't exercise
    /// eviction.
    fn accept(
        eng: &mut ReassemblyEngine,
        hdr: ChunkHeader,
        data: &[u8],
    ) -> Result<Option<CompletedPayload>, ReassemblyError> {
        eng.accept_at(hdr, data, Nanos::ZERO)
    }

    #[test]
    fn stall_eviction_boundary_is_exclusive() {
        // Pins the engine-sweep half of the eviction boundary (the
        // controller's parked-command half lives in controller.rs): a
        // payload aged *exactly* the deadline survives, one nanosecond more
        // evicts it.
        let deadline = Nanos::from_us(10);
        let t0 = Nanos::from_us(3);
        let mut eng = ReassemblyEngine::new(1024);
        let chunks = encode_reassembly_chunks(7, &payload(120));
        assert!(chunks.len() >= 2, "needs a truncatable train");
        let (h, d) = split_reassembly_chunk(&chunks[0]);
        eng.accept_at(h, d, t0).unwrap();

        assert!(eng.evict_stalled(t0 + deadline, deadline).is_empty());
        assert_eq!(eng.evicted_count(), 0);
        assert_eq!(eng.inflight_count(), 1, "at-deadline payload survives");

        let evicted = eng.evict_stalled(t0 + deadline + Nanos::from_ns(1), deadline);
        assert_eq!(evicted, vec![7]);
        assert_eq!(eng.evicted_count(), 1);
        assert_eq!(eng.sram_used(), 0, "sram reclaimed on eviction");
    }

    #[test]
    fn stall_clock_pinned_to_first_chunk() {
        // Pins the accept_at semantics that replaced the removed `accept`
        // footgun: the *first* chunk's arrival time drives eviction; later
        // chunks do not refresh the stall clock.
        let mut eng = ReassemblyEngine::new(1024);
        let t0 = Nanos::from_us(5);
        eng.accept_at(
            ChunkHeader {
                payload_id: 4,
                chunk_no: 0,
                total: 3,
            },
            &[0; 56],
            t0,
        )
        .unwrap();
        // A second chunk arrives much later — progress, but the stall clock
        // still dates from t0.
        eng.accept_at(
            ChunkHeader {
                payload_id: 4,
                chunk_no: 1,
                total: 3,
            },
            &[0; 56],
            Nanos::from_us(400),
        )
        .unwrap();
        let deadline = Nanos::from_us(100);
        let evicted = eng.evict_stalled(Nanos::from_us(401), deadline);
        assert_eq!(evicted, vec![4], "age counts from the first chunk");
    }

    #[test]
    fn eviction_order_is_sorted_and_stable() {
        // Regression for the headline bug: `evict_stalled` used to collect
        // expired ids from a HashMap walk, so the order the controller
        // failed stalled commands (CQEs, traces) was per-process random.
        // Evict ≥8 stalled trains, inserted in shuffled order, repeatedly:
        // the order must be ascending payload id every time.
        let ids = [41u32, 7, 99, 3, 58, 12, 85, 26, 64, 2];
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        for _run in 0..4 {
            let mut eng = ReassemblyEngine::new(4096);
            for (k, &id) in ids.iter().enumerate() {
                eng.accept_at(
                    ChunkHeader {
                        payload_id: id,
                        chunk_no: 0,
                        total: 2,
                    },
                    &[0; 56],
                    Nanos::from_us(k as u64),
                )
                .unwrap();
            }
            let evicted = eng.evict_stalled(Nanos::from_us(1000), Nanos::from_us(50));
            assert_eq!(evicted, sorted, "eviction order is ascending payload id");
            assert_eq!(eng.evicted_count(), ids.len() as u64);
            assert_eq!(eng.sram_used(), 0);
        }
    }

    #[test]
    fn slab_slots_and_buffers_are_reused() {
        let mut eng = ReassemblyEngine::new(4096);
        let p = payload(200);
        for round in 0..5u32 {
            let chunks = encode_reassembly_chunks(round, &p);
            let mut done = None;
            for c in &chunks {
                let (h, d) = split_reassembly_chunk(c);
                done = eng.accept_at(h, d, Nanos::from_us(round as u64)).unwrap();
            }
            let done = done.expect("completes");
            assert_eq!(&done.data[..200], &p[..]);
            eng.recycle(done.data);
        }
        assert_eq!(eng.completed_count(), 5);
        assert_eq!(
            eng.slots.len(),
            1,
            "sequential trains reuse one slab slot, not one per train"
        );
    }

    #[test]
    fn in_order_reassembly() {
        let mut eng = ReassemblyEngine::new(1024);
        let p = payload(200);
        let chunks = encode_reassembly_chunks(1, &p);
        let mut done = None;
        for c in &chunks {
            let (h, d) = split_reassembly_chunk(c);
            done = accept(&mut eng, h, d).unwrap();
        }
        let done = done.expect("payload completes on last chunk");
        assert_eq!(&done.data[..200], &p[..]);
        assert_eq!(eng.completed_count(), 1);
        assert_eq!(eng.sram_used(), 0, "sram released on completion");
    }

    #[test]
    fn reverse_order_reassembly() {
        let mut eng = ReassemblyEngine::new(1024);
        let p = payload(300);
        let chunks = encode_reassembly_chunks(2, &p);
        let mut done = None;
        for c in chunks.iter().rev() {
            let (h, d) = split_reassembly_chunk(c);
            done = accept(&mut eng, h, d).unwrap();
        }
        assert_eq!(&done.unwrap().data[..300], &p[..]);
    }

    #[test]
    fn interleaved_payloads() {
        let mut eng = ReassemblyEngine::new(4096);
        let pa = payload(150);
        let pb = payload(250);
        let ca = encode_reassembly_chunks(10, &pa);
        let cb = encode_reassembly_chunks(11, &pb);
        let mut finished = Vec::new();
        // Interleave: a0 b0 a1 b1 ...
        let max = ca.len().max(cb.len());
        for i in 0..max {
            for chunks in [&ca, &cb] {
                if let Some(c) = chunks.get(i) {
                    let (h, d) = split_reassembly_chunk(c);
                    if let Some(done) = accept(&mut eng, h, d).unwrap() {
                        finished.push(done);
                    }
                }
            }
        }
        assert_eq!(finished.len(), 2);
        let a = finished.iter().find(|p| p.payload_id == 10).unwrap();
        let b = finished.iter().find(|p| p.payload_id == 11).unwrap();
        assert_eq!(&a.data[..150], &pa[..]);
        assert_eq!(&b.data[..250], &pb[..]);
    }

    #[test]
    fn duplicate_chunk_detected() {
        let mut eng = ReassemblyEngine::new(1024);
        let chunks = encode_reassembly_chunks(5, &payload(200));
        let (h, d) = split_reassembly_chunk(&chunks[0]);
        accept(&mut eng, h, d).unwrap();
        assert_eq!(
            accept(&mut eng, h, d).unwrap_err(),
            ReassemblyError::DuplicateChunk {
                payload_id: 5,
                chunk_no: 0
            }
        );
    }

    #[test]
    fn out_of_range_chunk_rejected() {
        let mut eng = ReassemblyEngine::new(1024);
        let h = ChunkHeader {
            payload_id: 1,
            chunk_no: 3,
            total: 3,
        };
        assert!(matches!(
            accept(&mut eng, h, &[0; 56]).unwrap_err(),
            ReassemblyError::ChunkOutOfRange { .. }
        ));
    }

    #[test]
    fn inconsistent_total_rejected() {
        let mut eng = ReassemblyEngine::new(1024);
        accept(
            &mut eng,
            ChunkHeader {
                payload_id: 9,
                chunk_no: 0,
                total: 4,
            },
            &[0; 56],
        )
        .unwrap();
        assert_eq!(
            accept(
                &mut eng,
                ChunkHeader {
                    payload_id: 9,
                    chunk_no: 1,
                    total: 5
                },
                &[0; 56],
            )
            .unwrap_err(),
            ReassemblyError::InconsistentTotal { payload_id: 9 }
        );
    }

    #[test]
    fn sram_budget_enforced() {
        // Budget fits exactly one small payload record (16 + 1 bitmap byte).
        let mut eng = ReassemblyEngine::new(20);
        accept(
            &mut eng,
            ChunkHeader {
                payload_id: 1,
                chunk_no: 0,
                total: 2,
            },
            &[0; 56],
        )
        .unwrap();
        let err = accept(
            &mut eng,
            ChunkHeader {
                payload_id: 2,
                chunk_no: 0,
                total: 2,
            },
            &[0; 56],
        )
        .unwrap_err();
        assert!(matches!(err, ReassemblyError::SramExhausted { .. }));
        // Finishing payload 1 releases budget for payload 2.
        accept(
            &mut eng,
            ChunkHeader {
                payload_id: 1,
                chunk_no: 1,
                total: 2,
            },
            &[0; 56],
        )
        .unwrap()
        .expect("complete");
        accept(
            &mut eng,
            ChunkHeader {
                payload_id: 2,
                chunk_no: 0,
                total: 2,
            },
            &[0; 56],
        )
        .unwrap();
        assert_eq!(eng.inflight_count(), 1);
    }

    #[test]
    fn stalled_payload_evicted_and_sram_reclaimed() {
        let mut eng = ReassemblyEngine::new(1024);
        // Payload 1 gets only its first chunk — it will stall.
        eng.accept_at(
            ChunkHeader {
                payload_id: 1,
                chunk_no: 0,
                total: 3,
            },
            &[0; 56],
            Nanos::from_us(1),
        )
        .unwrap();
        // Payload 2 starts later and keeps making progress.
        eng.accept_at(
            ChunkHeader {
                payload_id: 2,
                chunk_no: 0,
                total: 2,
            },
            &[0; 56],
            Nanos::from_us(90),
        )
        .unwrap();
        let used_before = eng.sram_used();
        assert_eq!(eng.inflight_count(), 2);

        let deadline = Nanos::from_us(50);
        let evicted = eng.evict_stalled(Nanos::from_us(100), deadline);
        assert_eq!(evicted, vec![1], "only the stalled payload is evicted");
        assert_eq!(eng.inflight_count(), 1);
        assert!(eng.sram_used() < used_before, "eviction reclaims sram");
        assert_eq!(eng.evicted_count(), 1);

        // The survivor still completes.
        let done = eng
            .accept_at(
                ChunkHeader {
                    payload_id: 2,
                    chunk_no: 1,
                    total: 2,
                },
                &[0; 56],
                Nanos::from_us(110),
            )
            .unwrap();
        assert!(done.is_some());
        assert_eq!(eng.sram_used(), 0);
    }

    #[test]
    fn eviction_is_a_noop_within_deadline() {
        let mut eng = ReassemblyEngine::new(1024);
        eng.accept_at(
            ChunkHeader {
                payload_id: 7,
                chunk_no: 0,
                total: 2,
            },
            &[0; 56],
            Nanos::from_us(10),
        )
        .unwrap();
        assert!(eng
            .evict_stalled(Nanos::from_us(20), Nanos::from_us(50))
            .is_empty());
        assert_eq!(eng.inflight_count(), 1);
    }

    #[test]
    fn zero_length_train_rejected_up_front() {
        let mut eng = ReassemblyEngine::new(1024);
        let err = accept(
            &mut eng,
            ChunkHeader {
                payload_id: 13,
                chunk_no: 0,
                total: 0,
            },
            &[0; 56],
        )
        .unwrap_err();
        assert_eq!(err, ReassemblyError::ZeroLengthTrain { payload_id: 13 });
        // Rejected before admission: no SRAM charged, nothing to stall out.
        assert_eq!(eng.inflight_count(), 0);
        assert_eq!(eng.sram_used(), 0);
    }

    #[test]
    fn power_cut_drops_every_partial_train() {
        let mut eng = ReassemblyEngine::new(1024);
        for id in 0..3u32 {
            eng.accept_at(
                ChunkHeader {
                    payload_id: id,
                    chunk_no: 0,
                    total: 2,
                },
                &[0; 56],
                Nanos::from_us(id as u64),
            )
            .unwrap();
        }
        assert_eq!(eng.inflight_count(), 3);
        assert_eq!(eng.power_cut(), 3);
        assert_eq!(eng.inflight_count(), 0);
        assert_eq!(eng.sram_used(), 0);
        assert_eq!(eng.evicted_count(), 0, "power loss is not a stall eviction");
        // A torn train's id can be reused cleanly after restart; the old
        // chunk is gone, so the train starts from scratch.
        let done = accept(
            &mut eng,
            ChunkHeader {
                payload_id: 1,
                chunk_no: 1,
                total: 2,
            },
            &[0; 56],
        )
        .unwrap();
        assert!(done.is_none(), "no pre-cut chunk may contribute");
        assert_eq!(eng.inflight_count(), 1);
    }

    #[test]
    fn single_chunk_payload_completes_immediately() {
        let mut eng = ReassemblyEngine::new(1024);
        let done = accept(
            &mut eng,
            ChunkHeader {
                payload_id: 3,
                chunk_no: 0,
                total: 1,
            },
            &[9; 56],
        )
        .unwrap();
        assert!(done.is_some());
    }
}
