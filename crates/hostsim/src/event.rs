//! A deterministic discrete-event queue for virtual time.
//!
//! [`SimClock`](crate::SimClock) alone models a *sequential* cost pipeline:
//! each component adds the cost of the work it just performed, so nothing
//! ever overlaps. `EventQueue` is the piece that lets a component issue work
//! whose completion lies in the future (a NAND program, a deferred CQE) and
//! keep going: the completion is pushed at its absolute instant and the
//! owner drains due events — advancing the clock only when it would
//! otherwise idle.
//!
//! Determinism is a hard requirement (the whole reproduction is replayable
//! from a seed), so ordering is fully specified: events pop in ascending
//! time, and events scheduled for the *same* instant pop in push (FIFO)
//! order via a monotonically increasing sequence number. No wall-clock,
//! hash-order, or allocation-order nondeterminism can leak in.

use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: ordered by `(at, seq)` ascending.
struct Entry<T> {
    at: Nanos,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the earliest
        // `(at, seq)` on top.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A monotonic event queue with deterministic FIFO tie-breaking.
///
/// The earliest entry is cached in a peek-ahead `front` slot ahead of the
/// binary heap. The dominant pattern on the pipelined hot path — schedule
/// one completion, pop it, schedule the next — then never touches the heap
/// at all: push fills the empty slot, pop drains it. The heap only sees
/// traffic when more than one event is outstanding, and `peek_at`/`pop_due`
/// (called once per controller processing pass) become a single field read.
///
/// The invariant is that `front`, when present, orders at-or-before every
/// heap entry; `push` displaces the slot into the heap only when the new
/// event is strictly earlier, which preserves the exact `(at, seq)` pop
/// order of a plain heap (sequence numbers are unique, so "strictly
/// earlier" is total).
///
/// # Example
///
/// ```
/// use bx_hostsim::{EventQueue, Nanos};
///
/// let mut q = EventQueue::new();
/// q.push(Nanos::from_ns(20), "late");
/// q.push(Nanos::from_ns(10), "early");
/// q.push(Nanos::from_ns(10), "early-but-second");
/// assert_eq!(q.peek_at(), Some(Nanos::from_ns(10)));
/// assert_eq!(q.pop(), Some((Nanos::from_ns(10), "early")));
/// assert_eq!(q.pop(), Some((Nanos::from_ns(10), "early-but-second")));
/// assert_eq!(q.pop(), Some((Nanos::from_ns(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    /// The earliest scheduled entry, held out of the heap.
    front: Option<Entry<T>>,
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_at", &self.peek_at())
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` at absolute virtual instant `at`. Pushes need not be
    /// in time order; same-instant events pop in push order.
    pub fn push(&mut self, at: Nanos, item: T) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, item };
        match &self.front {
            None => self.front = Some(entry),
            // Strictly earlier than the cached front: displace it into the
            // heap. (`seq` is fresh and maximal, so a same-instant push is
            // never strictly earlier — FIFO order is preserved.)
            Some(f) if (at, seq) < (f.at, f.seq) => {
                if let Some(old) = self.front.replace(entry) {
                    self.heap.push(old);
                }
            }
            Some(_) => self.heap.push(entry),
        }
    }

    /// The instant of the earliest scheduled event, if any.
    pub fn peek_at(&self) -> Option<Nanos> {
        self.front.as_ref().map(|e| e.at)
    }

    /// Removes and returns the earliest event as `(at, item)`.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        let out = self.front.take()?;
        self.front = self.heap.pop();
        Some((out.at, out.item))
    }

    /// Removes and returns the earliest event if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: Nanos) -> Option<(Nanos, T)> {
        if self.peek_at().is_some_and(|at| at <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.front.is_none()
    }

    /// Drops every scheduled event (e.g. on controller reset). The sequence
    /// counter is *not* reset, so FIFO ordering stays globally consistent.
    pub fn clear(&mut self) {
        self.front = None;
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.push(Nanos::from_ns(t), t);
        }
        let mut out = Vec::new();
        while let Some((at, item)) = q.pop() {
            assert_eq!(at.as_ns(), item);
            out.push(item);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(7), "a");
        q.push(Nanos::from_ns(7), "b");
        q.push(Nanos::from_ns(3), "first");
        q.push(Nanos::from_ns(7), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, i)| i).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(10), 'x');
        q.push(Nanos::from_ns(20), 'y');
        assert_eq!(q.pop_due(Nanos::from_ns(5)), None);
        assert_eq!(
            q.pop_due(Nanos::from_ns(10)),
            Some((Nanos::from_ns(10), 'x'))
        );
        assert_eq!(q.pop_due(Nanos::from_ns(10)), None);
        assert_eq!(
            q.pop_due(Nanos::from_ns(99)),
            Some((Nanos::from_ns(20), 'y'))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn single_outstanding_event_never_touches_the_heap() {
        // The pipelined hot path: one deferred completion outstanding at a
        // time. The peek-ahead slot must absorb the whole push/pop cycle.
        let mut q = EventQueue::new();
        for t in 0..1000u64 {
            q.push(Nanos::from_ns(t), t);
            assert_eq!(q.heap.len(), 0, "front slot absorbs the only event");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((Nanos::from_ns(t), t)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn earlier_push_displaces_cached_front() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(50), "late");
        q.push(Nanos::from_ns(10), "early");
        assert_eq!(q.peek_at(), Some(Nanos::from_ns(10)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Nanos::from_ns(10), "early")));
        assert_eq!(q.pop(), Some((Nanos::from_ns(50), "late")));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_keeps_seq_monotonic() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_ns(1), 1u32);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(Nanos::from_ns(1), 2u32);
        q.push(Nanos::from_ns(1), 3u32);
        assert_eq!(q.pop(), Some((Nanos::from_ns(1), 2)));
        assert_eq!(q.pop(), Some((Nanos::from_ns(1), 3)));
    }

    /// Reference model: sort by `(time, push index)` — the specified order.
    fn model_order(pushes: &[(u64, usize)]) -> Vec<usize> {
        let mut v: Vec<(u64, usize)> = pushes.to_vec();
        v.sort_by_key(|&(t, i)| (t, i));
        v.into_iter().map(|(_, i)| i).collect()
    }

    proptest! {
        /// Same schedule → identical pop order, and that order is exactly
        /// the `(time, FIFO)` specification — two independently built queues
        /// can never disagree.
        #[test]
        fn deterministic_and_matches_model(
            times in proptest::collection::vec(0u64..50, 1..200)
        ) {
            let pushes: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
            let drain = |pushes: &[(u64, usize)]| {
                let mut q = EventQueue::new();
                for &(t, i) in pushes {
                    q.push(Nanos::from_ns(t), i);
                }
                let mut out = Vec::new();
                let mut last = Nanos::ZERO;
                while let Some((at, i)) = q.pop() {
                    prop_assert!(at >= last, "time went backwards");
                    last = at;
                    out.push(i);
                }
                Ok(out)
            };
            let a = drain(&pushes)?;
            let b = drain(&pushes)?;
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(a, model_order(&pushes));
        }

        /// Interleaved push/pop keeps the same invariants: every pop returns
        /// the earliest (time, FIFO) entry of what is currently queued.
        #[test]
        fn interleaved_ops_pop_earliest(
            ops in proptest::collection::vec((any::<bool>(), 0u64..40), 1..200)
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            let mut next = 0usize;
            for (is_pop, t) in ops {
                if is_pop {
                    let expect = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(t, i))| (t, i))
                        .map(|(pos, &(t, i))| (pos, t, i));
                    match expect {
                        Some((pos, t, i)) => {
                            prop_assert_eq!(q.pop(), Some((Nanos::from_ns(t), i)));
                            model.remove(pos);
                        }
                        None => prop_assert_eq!(q.pop(), None),
                    }
                } else {
                    q.push(Nanos::from_ns(t), next);
                    model.push((t, next));
                    next += 1;
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
    }
}
