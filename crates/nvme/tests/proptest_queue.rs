//! Property-based tests over queue-ring occupancy math.
//!
//! Regression territory for the `used_slots` bug: the original
//! `tail.wrapping_sub(head) % depth` reduces mod 65536 *before* reducing mod
//! depth, which only agrees with ring arithmetic when depth divides 65536 —
//! i.e. only at power-of-two depths. These properties run the rings at
//! arbitrary depths (primes included) and check the invariants that the old
//! math violated.

use bx_hostsim::{DmaRegion, PhysAddr, PAGE_SIZE};
use bx_nvme::{CqProducer, CqRing, QueueId, SqRing, CQE_BYTES, SQE_BYTES};
use proptest::prelude::*;

fn sq(depth: u16) -> SqRing {
    let region = DmaRegion::new(PhysAddr(PAGE_SIZE as u64), depth as usize * SQE_BYTES);
    SqRing::new(QueueId(1), region, depth)
}

fn cq(depth: u16) -> CqRing {
    let region = DmaRegion::new(PhysAddr(PAGE_SIZE as u64), depth as usize * CQE_BYTES);
    CqRing::new(region, depth)
}

/// A deterministic xorshift so each test case walks its own push/complete
/// schedule without needing proptest to generate a full op sequence.
fn next(seed: &mut u64) -> u64 {
    let mut x = *seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *seed = x;
    x
}

proptest! {
    /// The one-slot-open invariant holds at every depth, at every step:
    /// `used + free == depth - 1`, and `used` always equals the number of
    /// pushes minus completions (the model a ring is supposed to implement).
    #[test]
    fn occupancy_matches_outstanding_model(depth in 2u16..=1024, seed in any::<u64>()) {
        let mut q = sq(depth);
        let mut seed = seed | 1;
        let mut pushed: u64 = 0;
        let mut completed: u64 = 0;
        for _ in 0..300 {
            let outstanding = (pushed - completed) as u16;
            let push = q.can_push(1) && (outstanding == 0 || next(&mut seed).is_multiple_of(2));
            if push {
                q.push_slot();
                pushed += 1;
            } else {
                // Consume between 1 and all outstanding entries.
                let take = 1 + next(&mut seed) % outstanding as u64;
                completed += take;
                q.complete_up_to((completed % depth as u64) as u16);
            }
            let outstanding = (pushed - completed) as u16;
            prop_assert_eq!(q.used_slots(), outstanding);
            prop_assert_eq!(q.free_slots(), depth - 1 - outstanding);
            prop_assert!(q.tail() < depth);
            prop_assert!(q.head() < depth);
        }
    }

    /// Producer and consumer indices never desync across many laps: after
    /// `n` pushes the tail is at `n mod depth`, after completing all of them
    /// the ring reads empty again — for *any* depth, prime or not.
    #[test]
    fn full_laps_return_to_empty(depth in 2u16..=1024, laps in 1u32..5) {
        let mut q = sq(depth);
        let mut total: u64 = 0;
        for _ in 0..laps {
            // Fill to capacity, then drain completely.
            while q.can_push(1) {
                let idx = q.push_slot();
                prop_assert_eq!(idx as u64, total % depth as u64);
                total += 1;
            }
            prop_assert_eq!(q.used_slots(), depth - 1);
            prop_assert_eq!(q.free_slots(), 0);
            q.complete_up_to((total % depth as u64) as u16);
            prop_assert_eq!(q.used_slots(), 0);
            prop_assert_eq!(q.free_slots(), depth - 1);
        }
    }

    /// The CQ phase bit flips exactly on head wrap — after `k` pops the
    /// expected phase is `initial ^ (k / depth odd)` — and the device-side
    /// producer stays in lockstep (same slot, same phase) forever.
    #[test]
    fn cq_phase_flips_exactly_on_wrap(depth in 2u16..=1024, pops in 1u32..4000) {
        let mut ring = cq(depth);
        let mut prod = CqProducer::new(depth);
        for k in 0..pops {
            let wraps = k / depth as u32;
            prop_assert_eq!(ring.expected_phase(), wraps.is_multiple_of(2));
            prop_assert_eq!(ring.head() as u32, k % depth as u32);
            let (slot, phase) = prod.produce();
            prop_assert_eq!(slot, ring.head());
            prop_assert_eq!(phase, ring.expected_phase());
            ring.pop_slot();
        }
    }

    /// Directly pins the arithmetic identity the bug broke: for any valid
    /// (head, tail) pair, `used_slots` equals `(tail - head) mod depth`
    /// computed in wide integers — not `(tail -16 head) % depth`.
    #[test]
    fn used_slots_is_true_modular_distance(depth in 2u16..=1024, head_steps in 0u16..1024, extra in 0u16..1024) {
        let head = head_steps % depth;
        let used = extra % depth;
        // Bring the ring to (head, head + used mod depth) via real ops.
        let mut q = sq(depth);
        let mut pushed: u64 = 0;
        for _ in 0..head {
            q.push_slot();
            pushed += 1;
        }
        q.complete_up_to(head);
        prop_assume!(used < depth);
        for _ in 0..used {
            q.push_slot();
            pushed += 1;
        }
        let tail = (pushed % depth as u64) as u16;
        prop_assert_eq!(q.tail(), tail);
        let truth = (tail as i32 - head as i32).rem_euclid(depth as i32) as u16;
        prop_assert_eq!(q.used_slots(), truth);
        // And the old formula disagrees somewhere on every non-pow2 depth —
        // when it does disagree here, the fix must win.
        let old = (tail.wrapping_sub(head)) % depth;
        if old != truth {
            prop_assert_ne!(q.used_slots(), old);
        }
    }
}
