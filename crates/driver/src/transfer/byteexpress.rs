//! ByteExpress, host side (§3.3): the command with the payload length in
//! its reserved field, the payload as 64-byte chunks in the ring slots after
//! it, one doorbell for the whole train.

use super::{reserve, Claim};
use crate::driver::{queue_in, DriverError, NvmeDriver};
use crate::method::TransferMethod;
use bx_nvme::{inline, queue, QueueId, SubmissionEntry, SQE_BYTES};
use bx_ssd::Platform;
use bx_trace::{CmdKey, EventKind};

/// Writes the command and its chunk train into `qid`'s ring and rings (or
/// stages) the doorbell once.
pub(super) fn place(
    d: &mut NvmeDriver,
    p: &mut Platform,
    qid: QueueId,
    mut sqe: SubmissionEntry,
    data: &[u8],
) -> Result<(), DriverError> {
    // A queue exists only on an initialized driver, so Identify is at hand;
    // its reassembly bit is the chunk framing (headers or raw).
    let caps = d.identify.as_ref().ok_or(DriverError::NotReady)?.vendor;
    if !caps.byteexpress {
        return Err(DriverError::Unsupported("ByteExpress inline transfer"));
    }
    let per_slot = if caps.reassembly {
        inline::REASSEMBLY_CHUNK_PAYLOAD
    } else {
        inline::BYTEEXPRESS_CHUNK_SIZE
    };
    let n_chunks = data.len().div_ceil(per_slot);
    let claim = Claim {
        label: TransferMethod::ByteExpress.label(),
        len: data.len(),
        slots: 1 + n_chunks,
        head: 0,
        per_slot,
    };
    reserve(d, qid, &sqe, claim)?;
    let payload_id = caps.reassembly.then(|| {
        let id = d.next_payload_id;
        d.next_payload_id = id.wrapping_add(1).max(1);
        sqe.set_cdw3(id);
        id
    });
    inline::set_inline_len(&mut sqe, data.len());

    // The critical section the paper leans on (§3.3.2): command and chunks
    // are placed contiguously under the per-SQ lock the kernel driver
    // already holds. Here `&mut self` is that lock, so the borrow checker
    // holds the ordering property; its cost is `bx_cmd_insert`. The
    // reservation bounded the train by the ring.
    let (bus, timing) = (&d.bus, &d.timing);
    let qp = queue_in(&mut d.queues, qid)?;
    let depth = qp.sq.depth();
    let written = n_chunks as u16;
    let slot = qp.sq.push_slots(1 + written);
    p.mem.write(qp.sq.slot_addr(slot), sqe.as_bytes())?;
    bus.clock.advance(timing.bx_cmd_insert);
    let first = queue::wrap_add(slot, 1, depth);
    match payload_id {
        // Queue-local chunks are the payload's own bytes, slot after slot:
        // the train is the payload copied into at most two ring spans, the
        // last slot zero-padded.
        None => {
            let mut off = 0;
            for (slot, run) in queue::slot_spans(first, n_chunks, depth) {
                let addr = qp.sq.slot_addr(slot);
                let end = (off + run * SQE_BYTES).min(data.len());
                p.mem.write(addr, &data[off..end])?;
                let pad = off + run * SQE_BYTES - end;
                if pad > 0 {
                    p.mem.fill(addr.offset((end - off) as u64), pad, 0)?;
                }
                off += run * SQE_BYTES;
            }
        }
        // Reassembly chunks each carry a header, encoded one at a time into
        // a stack buffer, so submission is allocation-free.
        Some(id) => {
            let mut chunk = [0u8; inline::BYTEEXPRESS_CHUNK_SIZE];
            let mut slot = first;
            for i in 0..n_chunks {
                inline::encode_reassembly_chunk_into(id, data, i, &mut chunk);
                p.mem.write(qp.sq.slot_addr(slot), &chunk)?;
                slot = queue::wrap_add(slot, 1, depth);
            }
        }
    }
    bus.clock
        .advance(timing.per_chunk_insert * u64::from(written));
    d.stats.chunks_written += u64::from(written);
    bus.trace.emit_cmd(CmdKey::new(qid.0, sqe.cid()), || {
        EventKind::ChunkTrainWrite {
            chunks: written,
            bytes: data.len(),
        }
    });
    d.note_sq_tail(p, qid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{observed, Rig};
    use crate::NvmeDriver;
    use bx_nvme::IoOpcode;
    use bx_pcie::LinkConfig;
    use bx_ssd::{BlockFirmware, Controller, ControllerConfig, FetchPolicy, SystemBus};

    /// A NAND-less traced device with one I/O queue of `depth` slots whose
    /// empty ring starts at slot `offset`, every slot holding stale bytes.
    fn ring_rig(depth: u16, offset: u16, policy: FetchPolicy) -> Rig {
        let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 4 << 20, 2);
        bus.enable_trace();
        let cfg = ControllerConfig {
            fetch_policy: policy,
            nand: bx_ssd::NandConfig::disabled(),
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, false))
        });
        let mut driver = NvmeDriver::new(bus.clone());
        let qid = driver.initialize(&mut ctrl, &[depth]).unwrap()[0];
        let sq = &mut queue_in(&mut driver.queues, qid).unwrap().sq;
        sq.push_slots(offset);
        sq.complete_up_to(sq.tail());
        let region = sq.region();
        bus.platform()
            .borrow_mut()
            .mem
            .fill(region.base(), region.len(), 0xEE)
            .unwrap();
        Rig {
            bus,
            driver,
            ctrl,
            qid,
        }
    }

    /// The ByteExpress placement as it was before trains were written as
    /// ring spans: every chunk encoded into a stack buffer, one slot claimed,
    /// written and charged at a time, its own ring-fit arithmetic ahead of
    /// the span and the payload id. Kept as the reference the span write must
    /// equal.
    fn place_per_slot(
        d: &mut NvmeDriver,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        data: &[u8],
    ) -> Result<(), DriverError> {
        let caps = d.identify.as_ref().ok_or(DriverError::NotReady)?.vendor;
        let (n_chunks, per_chunk) = if caps.reassembly {
            (
                inline::chunks_for_len_reassembly(data.len()),
                inline::REASSEMBLY_CHUNK_PAYLOAD,
            )
        } else {
            (
                inline::chunks_for_len(data.len()),
                inline::BYTEEXPRESS_CHUNK_SIZE,
            )
        };
        let (bus, timing) = (&d.bus, &d.timing);
        let qp = queue_in(&mut d.queues, qid)?;
        let depth_limit = usize::from(qp.sq.depth() - 1);
        if 1 + n_chunks > depth_limit {
            return Err(DriverError::PayloadTooLarge {
                len: data.len(),
                max: (depth_limit - 1) * per_chunk,
            });
        }
        let needed = (1 + n_chunks) as u16;
        if !qp.sq.can_push(needed) {
            return Err(DriverError::QueueFull {
                needed,
                free: qp.sq.free_slots(),
            });
        }
        bus.trace
            .emit_cmd(CmdKey::new(qid.0, sqe.cid()), || EventKind::SqeInsert {
                method: "byteexpress",
                opcode: sqe.opcode_raw(),
                len: data.len(),
            });
        let payload_id = caps.reassembly.then(|| {
            let id = d.next_payload_id;
            d.next_payload_id = d.next_payload_id.wrapping_add(1).max(1);
            sqe.set_cdw3(id);
            id
        });
        inline::set_inline_len(&mut sqe, data.len());
        let slot = qp.sq.push_slot();
        p.mem.write(qp.sq.slot_addr(slot), &sqe.to_bytes())?;
        bus.clock.advance(timing.bx_cmd_insert);
        let chunks = match payload_id {
            None => inline::encode_chunks(data),
            Some(id) => inline::encode_reassembly_chunks(id, data),
        };
        let mut written = 0u64;
        for chunk in &chunks {
            let slot = qp.sq.push_slot();
            p.mem.write(qp.sq.slot_addr(slot), chunk)?;
            bus.clock.advance(timing.per_chunk_insert);
            written += 1;
        }
        d.stats.chunks_written += written;
        bus.trace.emit_cmd(CmdKey::new(qid.0, sqe.cid()), || {
            EventKind::ChunkTrainWrite {
                chunks: written as u16,
                bytes: data.len(),
            }
        });
        d.note_sq_tail(p, qid)
    }

    /// Depths for the span properties: the smallest ring, small ones,
    /// primes, and the largest prime the default controller admits.
    const SPAN_DEPTHS: [u16; 8] = [2, 3, 4, 7, 13, 64, 127, 1021];

    proptest::proptest! {
        /// Writing a train as at most two ring spans leaves exactly what
        /// the per-slot loop left: ring bytes (padding and untouched stale
        /// slots included), ring tail, clock, driver stats, per-class link
        /// counters and trace — for both framings, any depth, any starting
        /// offset (wrapping ones included) and every length up to one past
        /// the largest that fits.
        #[test]
        fn byteexpress_span_write_equals_per_slot(
            depth_i in 0usize..SPAN_DEPTHS.len(),
            offset_seed in proptest::prelude::any::<u16>(),
            len_seed in proptest::prelude::any::<u32>(),
            reassembly in proptest::prelude::any::<bool>(),
        ) {
            let depth = SPAN_DEPTHS[depth_i];
            let offset = offset_seed % depth;
            let (policy, per_chunk) = if reassembly {
                (FetchPolicy::Reassembly, inline::REASSEMBLY_CHUNK_PAYLOAD)
            } else {
                (FetchPolicy::QueueLocal, inline::BYTEEXPRESS_CHUNK_SIZE)
            };
            let fits = usize::from(depth - 2) * per_chunk;
            let len = 1 + len_seed as usize % (fits + 1);
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let mut rigs = [
                ring_rig(depth, offset, policy),
                ring_rig(depth, offset, policy),
            ];
            let mut results = Vec::new();
            for (per_slot, r) in rigs.iter_mut().enumerate() {
                let platform = r.bus.platform();
                let p = &mut *platform.borrow_mut();
                let mut sqe = SubmissionEntry::io(IoOpcode::Write, 5, 1);
                sqe.set_data_len(len as u32);
                results.push(if per_slot == 1 {
                    place_per_slot(&mut r.driver, p, r.qid, sqe, &data)
                } else {
                    place(&mut r.driver, p, r.qid, sqe, &data)
                });
            }
            proptest::prop_assert_eq!(&results[0], &results[1]);
            proptest::prop_assert_eq!(results[0].is_ok(), len <= fits);
            let ring = |r: &mut Rig| {
                let sq = &queue_in(&mut r.driver.queues, r.qid).unwrap().sq;
                let region = sq.region();
                let bytes = r.bus.platform().borrow().mem.read_vec(region.base(), region.len());
                (bytes.unwrap(), sq.tail(), r.driver.next_payload_id)
            };
            let [a, b] = &mut rigs;
            proptest::prop_assert_eq!(ring(a), ring(b));
            proptest::prop_assert_eq!(observed(a), observed(b));
        }
    }
}
