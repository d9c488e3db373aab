//! Property-based SRAM accounting for the reassembly engine.
//!
//! A reference model mirrors the engine's tracking-cost formula
//! (record bytes + presence bitmap) and replays arbitrary interleavings of
//! chunk arrivals, malformed headers, stall evictions and power cuts. After
//! every single operation the engine's `sram_used()` must equal the model's
//! sum over live trains — i.e. no error path (`ZeroLengthTrain`,
//! `ChunkOutOfRange`, `InconsistentTotal`, `DuplicateChunk`,
//! `SramExhausted`) may leak or double-refund tracking SRAM, and eviction /
//! power-cut reclamation must be exact.

use bx_nvme::inline::{ChunkHeader, REASSEMBLY_CHUNK_PAYLOAD};
use bx_ssd::{ReassemblyEngine, ReassemblyError};
use byteexpress::Nanos;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Mirror of the engine's private per-train cost: a fixed record plus one
/// presence bit per expected chunk. If the engine's formula drifts, this
/// test fails loudly rather than silently tracking the wrong budget.
fn model_sram_bytes(total: u16) -> usize {
    16 + (total as usize).div_ceil(8)
}

/// Reference bookkeeping for one in-flight train.
struct ModelTrain {
    total: u16,
    seen: Vec<bool>,
    first_seen: Nanos,
}

/// One scripted operation against the engine.
#[derive(Debug, Clone)]
enum Op {
    /// A chunk arrival: id, advertised total, chunk number. `total` may be 0
    /// (ZeroLengthTrain) and `chunk_no` may exceed it (ChunkOutOfRange);
    /// colliding ids with different totals exercise InconsistentTotal.
    Chunk { id: u32, total: u16, chunk_no: u16 },
    /// Advance time and evict everything stalled past `deadline`.
    Evict { deadline_ns: u64 },
    /// Drop all volatile state.
    PowerCut,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Chunks dominate so trains actually build up. Small id space forces
        // collisions; totals up to 24 keep several trains inside the tiny
        // budget while still overflowing it regularly.
        8 => (0u32..10, 0u16..24, 0u16..26)
            .prop_map(|(id, total, chunk_no)| Op::Chunk { id, total, chunk_no }),
        1 => (0u64..4000).prop_map(|deadline_ns| Op::Evict { deadline_ns }),
        1 => Just(Op::PowerCut),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `sram_used()` equals the model's sum over live trains after every
    /// operation, across success, every rejection, eviction and power cut.
    #[test]
    fn sram_accounting_never_leaks(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        budget in 40usize..240,
    ) {
        let mut engine = ReassemblyEngine::new(budget);
        let mut model: BTreeMap<u32, ModelTrain> = BTreeMap::new();
        let mut now = Nanos::ZERO;
        let chunk = [0xA5u8; REASSEMBLY_CHUNK_PAYLOAD];

        for op in ops {
            now += Nanos::from_ns(250);
            match op {
                Op::Chunk { id, total, chunk_no } => {
                    let hdr = ChunkHeader { payload_id: id, chunk_no, total };
                    let result = engine.accept_at(hdr, &chunk, now);
                    // Replay the same decision tree against the model.
                    if total == 0 {
                        prop_assert!(matches!(
                            result,
                            Err(ReassemblyError::ZeroLengthTrain { .. })
                        ));
                    } else if chunk_no >= total {
                        prop_assert!(matches!(
                            result,
                            Err(ReassemblyError::ChunkOutOfRange { .. })
                        ));
                    } else if let Some(train) = model.get_mut(&id) {
                        if train.total != total {
                            prop_assert!(matches!(
                                result,
                                Err(ReassemblyError::InconsistentTotal { .. })
                            ));
                        } else if train.seen[chunk_no as usize] {
                            prop_assert!(matches!(
                                result,
                                Err(ReassemblyError::DuplicateChunk { .. })
                            ));
                        } else {
                            train.seen[chunk_no as usize] = true;
                            if train.seen.iter().all(|&s| s) {
                                model.remove(&id);
                                let done = result.unwrap();
                                prop_assert_eq!(
                                    done.map(|p| p.payload_id), Some(id)
                                );
                            } else {
                                prop_assert!(matches!(result, Ok(None)));
                            }
                        }
                    } else {
                        let needed = model_sram_bytes(total);
                        let used: usize = model
                            .values()
                            .map(|t| model_sram_bytes(t.total))
                            .sum();
                        if needed > budget - used {
                            prop_assert!(matches!(
                                result,
                                Err(ReassemblyError::SramExhausted { .. })
                            ));
                        } else {
                            prop_assert!(matches!(result, Ok(None)) || total == 1);
                            let mut seen = vec![false; total as usize];
                            seen[chunk_no as usize] = true;
                            if total == 1 {
                                // Single-chunk train completes immediately.
                                prop_assert!(matches!(result, Ok(Some(_))));
                            } else {
                                model.insert(
                                    id,
                                    ModelTrain { total, seen, first_seen: now },
                                );
                            }
                        }
                    }
                }
                Op::Evict { deadline_ns } => {
                    let deadline = Nanos::from_ns(deadline_ns);
                    let expected: Vec<u32> = model
                        .iter()
                        .filter(|(_, t)| {
                            now.saturating_sub(t.first_seen) > deadline
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    let evicted = engine.evict_stalled(now, deadline);
                    // BTreeMap iteration gives ascending ids — the engine
                    // must match both membership and order.
                    prop_assert_eq!(&evicted, &expected);
                    for id in &evicted {
                        model.remove(id);
                    }
                }
                Op::PowerCut => {
                    let dropped = engine.power_cut();
                    prop_assert_eq!(dropped, model.len());
                    model.clear();
                    prop_assert_eq!(engine.sram_used(), 0);
                }
            }

            let expected_used: usize = model
                .values()
                .map(|t| model_sram_bytes(t.total))
                .sum();
            prop_assert_eq!(
                engine.sram_used(),
                expected_used,
                "sram accounting diverged from the model"
            );
            prop_assert_eq!(engine.inflight_count(), model.len());
            prop_assert!(engine.sram_used() <= budget);
        }

        // Drain everything: after a final power cut the budget is whole again
        // and a fresh maximal train still fits.
        engine.power_cut();
        prop_assert_eq!(engine.sram_used(), 0);
        let hdr = ChunkHeader { payload_id: u32::MAX, chunk_no: 0, total: 2 };
        prop_assert!(engine.accept_at(hdr, &chunk, now).is_ok());
    }
}
