//! Multi-threaded ordering stress: the §3.3.2 host-side invariant.
//!
//! ByteExpress relies on the driver's per-SQ spinlock to guarantee that a
//! command and its payload chunks land in *consecutive* SQ slots even when
//! many threads submit concurrently. The virtual-time simulation is
//! single-threaded, so this harness exercises the actual concurrency claim
//! with real threads and the discipline `NvmeDriver::submit_byteexpress`
//! models (there `&mut self` is the lock): reserve-and-fill entirely inside
//! the critical section.

use std::sync::{Arc, Mutex};
use std::thread;

/// One SQ slot's worth of content, tagged for post-hoc order checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Command {
        thread: usize,
        train: usize,
        chunks: usize,
    },
    Chunk {
        thread: usize,
        train: usize,
        index: usize,
    },
}

/// A shared ring standing in for one SQ: push-only under a lock, like the
/// driver's critical section.
#[derive(Debug, Default)]
struct SharedSq {
    slots: Mutex<Vec<Entry>>,
}

impl SharedSq {
    /// The ByteExpress submit discipline: the whole train goes in while the
    /// lock is held.
    fn submit_train(&self, thread: usize, train: usize, chunks: usize) {
        let mut slots = self
            .slots
            .lock()
            .expect("no submitter panics while holding the SQ lock");
        slots.push(Entry::Command {
            thread,
            train,
            chunks,
        });
        for index in 0..chunks {
            slots.push(Entry::Chunk {
                thread,
                train,
                index,
            });
        }
    }
}

/// Checks the controller-visible invariant: every command is immediately
/// followed by exactly its chunks, in order.
fn verify_trains(slots: &[Entry]) -> Result<usize, String> {
    let mut i = 0;
    let mut trains = 0;
    while i < slots.len() {
        let Entry::Command {
            thread,
            train,
            chunks,
        } = slots[i]
        else {
            return Err(format!("slot {i}: chunk without preceding command"));
        };
        for index in 0..chunks {
            let j = i + 1 + index;
            match slots.get(j) {
                Some(&Entry::Chunk {
                    thread: t,
                    train: tr,
                    index: ix,
                }) if t == thread && tr == train && ix == index => {}
                other => {
                    return Err(format!(
                        "train {thread}/{train}: slot {j} expected chunk {index}, got {other:?}"
                    ))
                }
            }
        }
        i += 1 + chunks;
        trains += 1;
    }
    Ok(trains)
}

#[test]
fn concurrent_trains_never_interleave() {
    const THREADS: usize = 8;
    const TRAINS_PER_THREAD: usize = 500;

    let sq = Arc::new(SharedSq::default());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let sq = Arc::clone(&sq);
            thread::spawn(move || {
                for train in 0..TRAINS_PER_THREAD {
                    // Vary chunk counts to stress slot arithmetic.
                    let chunks = 1 + (t + train) % 7;
                    sq.submit_train(t, train, chunks);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let slots = sq.slots.lock().expect("all submitters joined cleanly");
    let trains = verify_trains(&slots).expect("trains must be contiguous and ordered");
    assert_eq!(trains, THREADS * TRAINS_PER_THREAD);
}

#[test]
fn verifier_catches_interleaving() {
    // Negative control: hand-build an interleaved ring and confirm the
    // checker rejects it (i.e. the test above is actually testing something).
    let slots = vec![
        Entry::Command {
            thread: 0,
            train: 0,
            chunks: 2,
        },
        Entry::Chunk {
            thread: 0,
            train: 0,
            index: 0,
        },
        // Thread 1's command butts in mid-train.
        Entry::Command {
            thread: 1,
            train: 0,
            chunks: 0,
        },
        Entry::Chunk {
            thread: 0,
            train: 0,
            index: 1,
        },
    ];
    assert!(verify_trains(&slots).is_err());
}

#[test]
fn verifier_accepts_back_to_back_trains() {
    let slots = vec![
        Entry::Command {
            thread: 0,
            train: 0,
            chunks: 1,
        },
        Entry::Chunk {
            thread: 0,
            train: 0,
            index: 0,
        },
        Entry::Command {
            thread: 1,
            train: 0,
            chunks: 0,
        },
    ];
    assert_eq!(verify_trains(&slots).unwrap(), 2);
}
