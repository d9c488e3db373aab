//! Queue-ring geometry and doorbell state.
//!
//! [`SqRing`]/[`CqRing`] are *views* of rings living in simulated host memory:
//! they hold base address, depth and the producer/consumer indices owned by
//! their side, and compute slot addresses and occupancy. The driver owns the
//! SQ tail and CQ head; the controller owns the SQ head and CQ tail; each
//! side learns the other's index through doorbells and CQE fields, exactly as
//! in the spec.

// Ring and bitmap arithmetic: a computed index aborts on the one input
// nobody tested, so every `x[i]` here is an `#[expect]` with its bound.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::sqe::SubmissionEntry;
use bx_hostsim::{DmaRegion, PhysAddr};
use std::fmt;

/// Size of one submission queue entry in bytes.
pub const SQE_BYTES: usize = SubmissionEntry::BYTES;
/// Size of one completion queue entry in bytes.
pub const CQE_BYTES: usize = crate::cqe::CompletionEntry::BYTES;

/// A submission/completion queue identifier (0 is the admin queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueueId(pub u16);

impl fmt::Display for QueueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Geometry and index state of one submission queue ring.
#[derive(Debug, Clone)]
pub struct SqRing {
    id: QueueId,
    region: DmaRegion,
    depth: u16,
    /// Producer index (next free slot). Owned by the driver.
    tail: u16,
    /// Consumer index, as last reported by the controller via CQE `sq_head`.
    head: u16,
}

impl SqRing {
    /// Creates a ring over `region`, which must hold exactly `depth` entries.
    ///
    /// # Panics
    ///
    /// Panics if the region size does not equal `depth * 64` or depth < 2.
    pub fn new(id: QueueId, region: DmaRegion, depth: u16) -> Self {
        assert!(depth >= 2, "queue depth must be >= 2");
        assert_eq!(
            region.len(),
            depth as usize * SQE_BYTES,
            "SQ region size must match depth"
        );
        SqRing {
            id,
            region,
            depth,
            tail: 0,
            head: 0,
        }
    }

    /// The host memory the ring occupies.
    pub fn region(&self) -> DmaRegion {
        self.region
    }

    /// Ring depth in entries.
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Current producer (tail) index.
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Last known consumer (head) index.
    pub fn head(&self) -> u16 {
        self.head
    }

    /// Host address of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= depth`.
    pub fn slot_addr(&self, idx: u16) -> PhysAddr {
        assert!(idx < self.depth, "slot {idx} out of range");
        self.region.at(idx as usize * SQE_BYTES)
    }

    /// Number of free slots (one slot is always kept open to distinguish
    /// full from empty).
    pub fn free_slots(&self) -> u16 {
        self.depth - 1 - self.used_slots()
    }

    /// Number of occupied slots.
    ///
    /// Both indices stay strictly in `[0, depth)`, so occupancy needs an
    /// explicit wrap branch: `tail.wrapping_sub(head)` reduces mod 65536,
    /// and following it with `% depth` only agrees with ring arithmetic
    /// when `depth` divides 65536. At depth 100 with head 90 / tail 10 it
    /// reports 56 instead of 20 — under-admitting on some index pairs and
    /// over-admitting (overwriting unfetched entries) on others.
    pub fn used_slots(&self) -> u16 {
        debug_assert!(
            self.tail < self.depth && self.head < self.depth,
            "ring indices escaped [0, depth)"
        );
        let used = if self.tail >= self.head {
            self.tail - self.head
        } else {
            self.depth - self.head + self.tail
        };
        debug_assert!(used < self.depth, "occupancy exceeds ring capacity");
        used
    }

    /// Whether `n` more entries can be placed.
    pub fn can_push(&self, n: u16) -> bool {
        self.free_slots() >= n
    }

    /// Claims the next slot, returning its index, and advances the tail.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full — callers must check [`SqRing::can_push`];
    /// a real driver blocks or fails the request instead of overrunning.
    pub fn push_slot(&mut self) -> u16 {
        self.push_slots(1)
    }

    /// Claims `n` consecutive slots (wrapping at the end of the ring) and
    /// returns the index of the first: one capacity check, one tail move.
    /// A train of `n` entries then occupies slots `first, first + 1, …`
    /// modulo the depth — at most two contiguous spans of the region.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` slots are free — callers must check
    /// [`SqRing::can_push`].
    pub fn push_slots(&mut self, n: u16) -> u16 {
        assert!(self.can_push(n), "SQ overflow on {}", self.id);
        let first = self.tail;
        self.tail = wrap_add(self.tail, n, self.depth);
        debug_assert!(n == 0 || self.used_slots() >= n, "push left the ring short");
        first
    }

    /// Records the controller's reported head (from a CQE), freeing slots.
    pub fn complete_up_to(&mut self, head: u16) {
        assert!(head < self.depth, "reported head {head} out of range");
        self.head = head;
    }
}

/// Geometry and index state of one completion queue ring.
#[derive(Debug, Clone)]
pub struct CqRing {
    region: DmaRegion,
    depth: u16,
    /// Consumer index. Owned by the driver.
    head: u16,
    /// The phase value the driver expects for a *new* entry.
    expected_phase: bool,
}

impl CqRing {
    /// Creates a ring over `region`, which must hold exactly `depth` entries.
    ///
    /// # Panics
    ///
    /// Panics if the region size does not equal `depth * 16` or depth < 2.
    pub fn new(region: DmaRegion, depth: u16) -> Self {
        assert!(depth >= 2, "queue depth must be >= 2");
        assert_eq!(
            region.len(),
            depth as usize * CQE_BYTES,
            "CQ region size must match depth"
        );
        CqRing {
            region,
            depth,
            head: 0,
            expected_phase: true,
        }
    }

    /// The host memory the ring occupies.
    pub fn region(&self) -> DmaRegion {
        self.region
    }

    /// Current consumer (head) index.
    pub fn head(&self) -> u16 {
        self.head
    }

    /// The phase tag value that marks a fresh entry at the current head.
    pub fn expected_phase(&self) -> bool {
        self.expected_phase
    }

    /// Host address of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= depth`.
    pub fn slot_addr(&self, idx: u16) -> PhysAddr {
        assert!(idx < self.depth, "slot {idx} out of range");
        self.region.at(idx as usize * CQE_BYTES)
    }

    /// Advances the head after consuming one entry, flipping the expected
    /// phase on wrap.
    pub fn pop_slot(&mut self) -> u16 {
        let idx = self.head;
        self.head = wrap_add(self.head, 1, self.depth);
        if self.head == 0 {
            self.expected_phase = !self.expected_phase;
        }
        debug_assert!(idx < self.depth, "consumed slot out of range");
        idx
    }
}

/// The controller's private per-queue producer state for a CQ: tail index and
/// current phase. Lives device-side.
#[derive(Debug, Clone)]
pub struct CqProducer {
    depth: u16,
    tail: u16,
    phase: bool,
}

impl CqProducer {
    /// Creates producer state for a CQ of `depth` entries.
    pub fn new(depth: u16) -> Self {
        CqProducer {
            depth,
            tail: 0,
            phase: true,
        }
    }

    /// The slot the next CQE goes to, and the phase to stamp it with.
    /// Advances the tail.
    pub fn produce(&mut self) -> (u16, bool) {
        debug_assert!(self.tail < self.depth, "CQ producer tail out of range");
        let out = (self.tail, self.phase);
        self.tail = wrap_add(self.tail, 1, self.depth);
        if self.tail == 0 {
            self.phase = !self.phase;
        }
        out
    }
}

/// `(idx + n) mod depth` for `idx < depth` and `n ≤ depth`, by one compare
/// and subtract instead of a division. Widened so `idx + n` cannot overflow
/// at depth 65535.
pub fn wrap_add(idx: u16, n: u16, depth: u16) -> u16 {
    debug_assert!(idx < depth && n <= depth, "ring step out of range");
    let next = u32::from(idx) + u32::from(n);
    let depth = u32::from(depth);
    (if next >= depth { next - depth } else { next }) as u16
}

/// The contiguous pieces of a run of `n` slots that starts at slot `first`
/// of a ring of `depth`, as `(first slot, slots)`: one piece, or two when
/// the run wraps. A run longer than the ring (only a hostile length asks
/// for one) laps it, one piece per lap.
pub fn slot_spans(first: u16, n: usize, depth: u16) -> impl Iterator<Item = (u16, usize)> {
    debug_assert!(first < depth, "ring index out of range");
    let (mut at, mut left) = (first, n);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let run = left.min(usize::from(depth - at));
        let span = (at, run);
        left -= run;
        // `run` ≤ depth - at, so the step stays in [0, depth].
        at = wrap_add(at, run as u16, depth);
        Some(span)
    })
}

/// The BAR-resident doorbell registers the controller reads: one SQ-tail
/// doorbell per queue pair. (A CQ-head doorbell write costs its posted MMIO
/// write on the link and stores nothing: the controller does not model
/// CQ-full.)
///
/// The driver writes these via posted MMIO writes; the controller polls them.
#[derive(Debug, Clone)]
pub struct DoorbellArray {
    sq_tails: Vec<u16>,
}

impl DoorbellArray {
    /// Creates doorbells for `queues` queue pairs, all zero.
    pub fn new(queues: usize) -> Self {
        DoorbellArray {
            sq_tails: vec![0; queues],
        }
    }

    /// Number of queue pairs.
    pub fn queues(&self) -> usize {
        self.sq_tails.len()
    }

    /// Writes the SQ tail doorbell for `q`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range queue id.
    #[expect(
        clippy::indexing_slicing,
        reason = "out-of-range queue id is a documented panic (BAR access fault in hardware)"
    )]
    pub fn ring_sq_tail(&mut self, q: QueueId, tail: u16) {
        debug_assert!(
            (q.0 as usize) < self.sq_tails.len(),
            "queue id out of range"
        );
        self.sq_tails[q.0 as usize] = tail;
    }

    /// Reads the SQ tail doorbell for `q` (controller side).
    #[expect(
        clippy::indexing_slicing,
        reason = "out-of-range queue id is a documented panic (BAR access fault in hardware)"
    )]
    pub fn sq_tail(&self, q: QueueId) -> u16 {
        self.sq_tails[q.0 as usize]
    }

    /// A power cut: doorbells are BAR-resident volatile registers, so every
    /// tail returns to its power-on value of zero.
    pub fn power_cut(&mut self) {
        self.sq_tails.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_hostsim::PAGE_SIZE;

    fn sq(depth: u16) -> SqRing {
        let bytes = depth as usize * SQE_BYTES;
        let region = DmaRegion::new(PhysAddr(PAGE_SIZE as u64), bytes);
        SqRing::new(QueueId(1), region, depth)
    }

    #[test]
    fn slot_addresses_are_64_byte_strided() {
        let q = sq(64);
        assert_eq!(q.slot_addr(0), PhysAddr(4096));
        assert_eq!(q.slot_addr(1), PhysAddr(4096 + 64));
        assert_eq!(q.slot_addr(63), PhysAddr(4096 + 63 * 64));
    }

    #[test]
    fn occupancy_tracking() {
        let mut q = sq(8);
        assert_eq!(q.free_slots(), 7);
        for _ in 0..7 {
            q.push_slot();
        }
        assert_eq!(q.free_slots(), 0);
        assert!(!q.can_push(1));
        q.complete_up_to(3);
        assert_eq!(q.free_slots(), 3);
        assert!(q.can_push(3));
        assert!(!q.can_push(4));
    }

    #[test]
    fn tail_wraps() {
        let mut q = sq(4);
        q.push_slot();
        q.push_slot();
        q.push_slot();
        q.complete_up_to(3);
        assert_eq!(q.push_slot(), 3);
        assert_eq!(q.tail(), 0);
        assert_eq!(q.push_slot(), 0);
    }

    #[test]
    fn occupancy_wraps_at_non_power_of_two_depth() {
        // The ISSUE example: depth 100, head 90, tail 10 must report 20
        // occupied slots. The old `wrapping_sub % depth` math said 56.
        let mut q = sq(100);
        for _ in 0..90 {
            q.push_slot();
        }
        q.complete_up_to(90);
        assert_eq!(q.used_slots(), 0);
        for _ in 0..20 {
            q.push_slot();
        }
        assert_eq!(q.head(), 90);
        assert_eq!(q.tail(), 10);
        assert_eq!(q.used_slots(), 20);
        assert_eq!(q.free_slots(), 79);
    }

    #[test]
    fn non_power_of_two_depth_never_over_admits() {
        // depth 7, head 1, tail 0 is a full ring (6 used, 0 free). The old
        // math computed 65535 % 7 == 1 used, i.e. 5 free — can_push would
        // have allowed overwriting five unfetched entries.
        let mut q = sq(7);
        q.push_slot();
        q.complete_up_to(1);
        for _ in 0..6 {
            q.push_slot();
        }
        assert_eq!(q.head(), 1);
        assert_eq!(q.tail(), 0);
        assert_eq!(q.used_slots(), 6);
        assert_eq!(q.free_slots(), 0);
        assert!(!q.can_push(1));
    }

    #[test]
    fn occupancy_consistent_over_full_lap_at_prime_depth() {
        // March a prime-depth ring through several laps; occupancy must
        // track pushes minus completions exactly at every step.
        let mut q = sq(13);
        let mut pushed = 0u32;
        let mut completed = 0u32;
        for step in 0..100u32 {
            if q.can_push(1) && (step % 3 != 2 || completed == pushed) {
                q.push_slot();
                pushed += 1;
            } else {
                completed += 1;
                q.complete_up_to((completed % 13) as u16);
            }
            let outstanding = (pushed - completed) as u16;
            assert_eq!(q.used_slots(), outstanding, "step {step}");
            assert_eq!(q.free_slots(), 12 - outstanding, "step {step}");
        }
    }

    #[test]
    fn wrap_add_equals_modulo() {
        for depth in [2u16, 3, 7, 64, 1021, u16::MAX] {
            for idx in (0..depth).step_by(usize::from(depth / 64).max(1)) {
                for n in (0..=depth).step_by(usize::from(depth / 64).max(1)) {
                    let want = (u32::from(idx) + u32::from(n)) % u32::from(depth);
                    assert_eq!(
                        u32::from(wrap_add(idx, n, depth)),
                        want,
                        "{idx}+{n} mod {depth}"
                    );
                }
            }
        }
    }

    #[test]
    fn slot_spans_walk_the_ring_slot_by_slot() {
        for depth in [2u16, 5, 13, 64] {
            for first in 0..depth {
                for n in 0..=3 * usize::from(depth) {
                    let mut slots = Vec::new();
                    let spans: Vec<_> = slot_spans(first, n, depth).collect();
                    for &(at, run) in &spans {
                        assert!(run > 0 && usize::from(at) + run <= usize::from(depth));
                        slots.extend((0..run).map(|i| at + i as u16));
                    }
                    let want: Vec<u16> = (0..n)
                        .map(|i| ((usize::from(first) + i) % usize::from(depth)) as u16)
                        .collect();
                    assert_eq!(slots, want, "first {first} n {n} depth {depth}");
                    if n < usize::from(depth) {
                        assert!(spans.len() <= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn push_slots_claims_a_train_at_once() {
        let mut q = sq(7);
        q.push_slots(5);
        q.complete_up_to(5);
        assert_eq!(q.push_slots(4), 5);
        assert_eq!((q.tail(), q.used_slots()), (2, 4));
        assert!(!q.can_push(3));
    }

    #[test]
    #[should_panic(expected = "SQ overflow")]
    fn overflow_panics() {
        let mut q = sq(2);
        q.push_slot();
        q.push_slot();
    }

    #[test]
    fn cq_phase_flips_on_wrap() {
        let region = DmaRegion::new(PhysAddr(0), 4 * CQE_BYTES);
        let mut cq = CqRing::new(region, 4);
        assert!(cq.expected_phase());
        for _ in 0..4 {
            cq.pop_slot();
        }
        assert!(!cq.expected_phase());
        for _ in 0..4 {
            cq.pop_slot();
        }
        assert!(cq.expected_phase());
    }

    #[test]
    fn cq_producer_matches_consumer_phase() {
        let region = DmaRegion::new(PhysAddr(0), 4 * CQE_BYTES);
        let mut cq = CqRing::new(region, 4);
        let mut prod = CqProducer::new(4);
        for i in 0..10u16 {
            let (slot, phase) = prod.produce();
            assert_eq!(slot, cq.head(), "iteration {i}");
            assert_eq!(phase, cq.expected_phase(), "iteration {i}");
            cq.pop_slot();
        }
    }

    #[test]
    fn doorbells_store_per_queue() {
        let mut db = DoorbellArray::new(3);
        db.ring_sq_tail(QueueId(1), 5);
        db.ring_sq_tail(QueueId(2), 9);
        assert_eq!(db.sq_tail(QueueId(1)), 5);
        assert_eq!(db.sq_tail(QueueId(2)), 9);
        assert_eq!(db.sq_tail(QueueId(0)), 0);
        assert_eq!(db.queues(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        sq(4).slot_addr(4);
    }
}
