//! ByteExpress, device side (§3.3): after fetching an SQE whose reserved
//! field carries a payload length, keep fetching 64-byte entries from the
//! same submission queue. Queue-local ([`FetchPolicy::QueueLocal`]) the
//! train is gathered at once, never switching queues mid-transaction,
//! which, with the driver holding the SQ lock across the whole train,
//! preserves command/payload ordering (§3.3.2). Under
//! [`FetchPolicy::Reassembly`] chunks carry `{payload id, chunk no, total}`
//! headers: the command parks, and its chunks are fetched one per
//! scheduling turn, interleaved with other queues, through the
//! [`ReassemblyEngine`](crate::ReassemblyEngine).

use crate::bus::Platform;
use crate::controller::{fetch_entry, Controller, FetchPolicy};
use bx_hostsim::Nanos;
use bx_nvme::{inline, queue, Status, SubmissionEntry, SQE_BYTES};
use bx_pcie::TrafficClass;
use bx_trace::{CmdKey, EventKind};

/// A reassembly-mode command whose chunks are still being fetched.
pub(crate) struct Parked {
    sqe: SubmissionEntry,
    len: usize,
    remaining: usize,
    /// When the command was parked: the stall clock for eviction.
    parked_at: Nanos,
}

/// Takes a command whose `len`-byte payload follows it in the ring:
/// gathers the train and dispatches the command (queue-local), or parks it
/// for its chunks (reassembly).
pub(crate) fn gather(
    c: &mut Controller,
    p: &mut Platform,
    qi: usize,
    sqe: SubmissionEntry,
    len: usize,
) -> usize {
    if c.fetch_policy == FetchPolicy::Reassembly {
        c.queues[qi].inline_pending = Some(Parked {
            sqe,
            len,
            remaining: inline::chunks_for_len_reassembly(len),
            parked_at: c.bus.clock.now(),
        });
        return 0;
    }
    let payload = gather_train(c, p, qi, len);
    let chunks = inline::chunks_for_len(len) as u16;
    c.dispatch_gathered(p, qi, &sqe, payload, |bytes| EventKind::InlineGather {
        chunks,
        bytes,
    })
}

/// Fetches a queue-local chunk train into the staging buffer, one copy per
/// contiguous ring span (two at most, unless a hostile length laps the
/// ring), charging the link and clock once for the whole train: chunk
/// fetches pipeline, so the marginal cost is per-entry processing (Table 1),
/// not a fresh DMA round trip. Traffic is still charged in full.
pub(crate) fn gather_train(c: &mut Controller, p: &mut Platform, qi: usize, len: usize) -> Vec<u8> {
    let n = inline::chunks_for_len(len);
    let mut payload = c.take_scratch_payload(len);
    let per_chunk = c.timing.per_chunk_fetch + c.timing.chunk_land;
    let q = &mut c.queues[qi];
    for (slot, run) in queue::slot_spans(q.fetch_head, n, q.sq_depth) {
        let at = payload.len();
        let take = (len - at).min(run * SQE_BYTES);
        payload.resize(at + take, 0);
        #[expect(
            clippy::expect_used,
            reason = "ring geometry is asserted at queue creation; slot math cannot escape the region"
        )]
        p.mem
            .read(q.slot_addr(slot), &mut payload[at..])
            .expect("SQ ring must be in bounds");
        q.fetch_head = queue::wrap_add(slot, run as u16, q.sq_depth);
    }
    p.link
        .device_read_n(TrafficClass::SqeFetch, SQE_BYTES, n as u64, per_chunk);
    p.clock.advance(per_chunk * n as u64);
    c.stats.chunks_fetched += n as u64;
    c.stats.inline_payload_bytes += payload.len() as u64;
    payload
}

/// Fetches one reassembly-mode chunk for the command parked on queue `qi`;
/// dispatches the command once its payload is whole. Returns completions
/// (0 or 1).
pub(crate) fn fetch_chunk(c: &mut Controller, p: &mut Platform, qi: usize) -> usize {
    if c.power_tick(p) {
        return 0;
    }
    let per_chunk = c.timing.per_chunk_fetch + c.timing.chunk_land + c.timing.reassembly_account;
    let img = fetch_entry(p, &mut c.queues[qi], Some(per_chunk));
    c.stats.chunks_fetched += 1;
    let (hdr, data) = inline::split_reassembly_chunk(&img);
    let accepted = c.reassembly.accept_at(hdr, data, c.bus.clock.now());
    // Chunks are fetched only while a command is parked on the queue; the
    // last one unparks it.
    let q = &mut c.queues[qi];
    let Some(parked) = q.inline_pending.as_mut() else {
        return 0;
    };
    if accepted.is_ok() {
        let key = CmdKey::new(q.id.0, parked.sqe.cid());
        c.bus
            .trace
            .emit_cmd(key, || EventKind::ReassemblyAccept { seq: hdr.chunk_no });
    }
    parked.remaining -= 1;
    let Some(parked) = q.inline_pending.take_if(|parked| parked.remaining == 0) else {
        return 0;
    };
    match accepted {
        Ok(Some(completed)) => {
            let mut payload = completed.data;
            payload.truncate(parked.len);
            c.stats.inline_payload_bytes += payload.len() as u64;
            let completions = c.dispatch_and_complete(p, qi, &parked.sqe, Some(&payload));
            // Hand the train buffer back to the engine's pool so the next
            // payload reuses it instead of allocating.
            c.reassembly.recycle(payload);
            completions
        }
        // Last chunk but no whole payload: the train was malformed
        // (duplicate ids, wrong totals). Fail the command visibly.
        Ok(None) | Err(_) => c.fail(p, qi, parked.sqe.cid(), Status::DataTransferError),
    }
}

/// Evicts reassembly-mode commands whose chunk train stalled past the
/// deadline: the parked command fails with [`Status::DataTransferError`],
/// and the tracker SRAM of every stalled payload is reclaimed instead of
/// leaking until controller reset. Returns how many commands were failed.
pub(crate) fn evict_stalled(c: &mut Controller, p: &mut Platform) -> usize {
    if c.fetch_policy != FetchPolicy::Reassembly {
        return 0;
    }
    let now = c.bus.clock.now();
    // Phantom payloads (corrupted headers) have no parked command; the
    // engine sweep alone reclaims their SRAM.
    c.reassembly.evict_stalled(now, c.stall_deadline);
    let mut completed = 0;
    for qi in 0..c.queues.len() {
        // Never evict a train that still has fetchable entries queued. The
        // deadline boundary is EXCLUSIVE: a train whose age equals the
        // deadline exactly survives one more pass. Must agree with the
        // engine sweep in `ReassemblyEngine::evict_stalled` (pinned by
        // `stall_eviction_boundary_is_exclusive` tests in both files).
        let idle = !c.queues[qi].has_work(p);
        let deadline = c.stall_deadline;
        let stalled = |parked: &mut Parked| idle && now.saturating_sub(parked.parked_at) > deadline;
        let Some(parked) = c.queues[qi].inline_pending.take_if(stalled) else {
            continue;
        };
        let key = CmdKey::new(c.queues[qi].id.0, parked.sqe.cid());
        c.bus.trace.emit_cmd(key, || EventKind::ReassemblyEvict);
        completed += c.fail(p, qi, parked.sqe.cid(), Status::DataTransferError);
        c.stats.stalled_evictions += 1;
    }
    completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{setup, MiniDriver};
    use crate::firmware::BlockFirmware;
    use crate::{ControllerConfig, NandConfig, SystemBus};
    use bx_nvme::IoOpcode;
    use bx_pcie::LinkConfig;
    use proptest::prelude::*;

    #[test]
    fn byteexpress_write_lands_payload() {
        let (bus, mut ctrl) = setup(true);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 7, 1);
        sqe.set_cdw(10, 3);
        sqe.set_data_len(payload.len() as u32);
        inline::set_inline_len(&mut sqe, payload.len());
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_chunks(&payload) {
            drv.push_raw(&chunk);
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().expect("completion posted");
        assert_eq!(cqe.cid(), 7);
        assert_eq!(cqe.status(), Status::Success);
        // SQ head advanced past command + 2 chunks.
        assert_eq!(cqe.sq_head(), 3);
        assert_eq!(ctrl.stats().chunks_fetched, 2);
        assert_eq!(ctrl.stats().inline_payload_bytes, 100);

        // Read it back via PRP to verify the bytes reached NAND.
        let buf_page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        let mut rd = SubmissionEntry::io(IoOpcode::Read, 8, 1);
        rd.set_cdw(10, 3);
        rd.set_data_len(100);
        rd.set_prp1(buf_page);
        drv.push_raw(&rd.to_bytes());
        drv.ring();
        ctrl.process_available();
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!(cqe.status(), Status::Success);
        assert_eq!(
            bus.platform().borrow().mem.read_vec(buf_page, 100).unwrap(),
            payload
        );
    }

    #[test]
    fn reassembly_policy_accepts_headered_chunks() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
        let cfg = ControllerConfig {
            nand: NandConfig::small(),
            fetch_policy: FetchPolicy::Reassembly,
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, true))
        });
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 11, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(200);
        inline::set_inline_len(&mut sqe, 200);
        sqe.set_cdw3(42); // payload id
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_reassembly_chunks(42, &payload) {
            drv.push_raw(&chunk);
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(ctrl.reassembly().completed_count(), 1);
        assert_eq!(ctrl.reassembly().sram_used(), 0);

        // Verify integrity through a read-back.
        let buf_page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        let mut rd = SubmissionEntry::io(IoOpcode::Read, 12, 1);
        rd.set_cdw(10, 1);
        rd.set_data_len(200);
        rd.set_prp1(buf_page);
        drv.push_raw(&rd.to_bytes());
        drv.ring();
        ctrl.process_available();
        assert_eq!(
            bus.platform().borrow().mem.read_vec(buf_page, 200).unwrap(),
            payload
        );
    }

    #[test]
    fn truncated_reassembly_train_evicted_after_deadline() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
        let cfg = ControllerConfig {
            nand: NandConfig::small(),
            fetch_policy: FetchPolicy::Reassembly,
            inline_stall_deadline: Nanos::from_us(100),
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, true))
        });
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        // A 200-byte payload needs 4 reassembly chunks; deliver only 3.
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 21, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(200);
        inline::set_inline_len(&mut sqe, 200);
        sqe.set_cdw3(77);
        drv.push_raw(&sqe.to_bytes());
        let chunks = inline::encode_reassembly_chunks(77, &payload);
        assert_eq!(chunks.len(), 4);
        for chunk in &chunks[..3] {
            drv.push_raw(chunk);
        }
        drv.ring();

        // The train stalls: no completion, SRAM still held.
        assert_eq!(ctrl.process_available(), 0);
        assert!(drv.pop_cqe().is_none());
        assert!(ctrl.reassembly().sram_used() > 0);

        // Past the deadline the command fails visibly and SRAM is reclaimed.
        bus.clock.advance(Nanos::from_us(200));
        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().expect("eviction posts a completion");
        assert_eq!(cqe.cid(), 21);
        assert_eq!(cqe.status(), Status::DataTransferError);
        assert_eq!(ctrl.reassembly().sram_used(), 0);
        assert_eq!(ctrl.reassembly().evicted_count(), 1);
        assert_eq!(ctrl.stats().stalled_evictions, 1);

        // The queue is usable again: a complete train succeeds.
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 22, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(200);
        inline::set_inline_len(&mut sqe, 200);
        sqe.set_cdw3(78);
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_reassembly_chunks(78, &payload) {
            drv.push_raw(&chunk);
        }
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
    }

    #[test]
    fn fetch_latency_matches_table1_slope() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let measure = |drv: &mut MiniDriver, ctrl: &mut Controller, len: usize| {
            let payload = vec![1u8; len];
            let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
            sqe.set_data_len(len as u32);
            inline::set_inline_len(&mut sqe, len);
            drv.push_raw(&sqe.to_bytes());
            for c in inline::encode_chunks(&payload) {
                drv.push_raw(&c);
            }
            drv.ring();
            let t0 = drv.bus.clock.now();
            ctrl.process_available();
            drv.pop_cqe().unwrap();
            (drv.bus.clock.now() - t0).as_ns()
        };

        let t64 = measure(&mut drv, &mut ctrl, 64);
        let t128 = measure(&mut drv, &mut ctrl, 128);
        let t256 = measure(&mut drv, &mut ctrl, 256);
        // Each extra chunk adds per_chunk_fetch + chunk_land = 440 ns.
        assert_eq!(t128 - t64, 440);
        assert_eq!(t256 - t128, 880);
    }

    /// `gather_train` as it was before trains were fetched as ring spans:
    /// one 64-byte fetch, link charge and clock step per chunk. Kept as the
    /// reference the span gather must equal.
    fn gather_train_per_slot(
        ctrl: &mut Controller,
        p: &mut Platform,
        qi: usize,
        len: usize,
    ) -> Vec<u8> {
        let n = inline::chunks_for_len(len);
        let mut payload = ctrl.take_scratch_payload(len);
        let per_chunk = ctrl.timing.per_chunk_fetch + ctrl.timing.chunk_land;
        for _ in 0..n {
            let img = fetch_entry(p, &mut ctrl.queues[qi], Some(per_chunk));
            let take = (len - payload.len()).min(img.len());
            payload.extend_from_slice(&img[..take]);
            ctrl.stats.chunks_fetched += 1;
        }
        ctrl.stats.inline_payload_bytes += payload.len() as u64;
        payload
    }

    /// Depths for the span property: the smallest ring, small ones, primes,
    /// and the largest prime the default controller admits.
    const SPAN_DEPTHS: [u16; 8] = [2, 3, 4, 7, 13, 64, 127, 1021];

    proptest! {
        /// Gathering a queue-local train as ring spans with one link charge
        /// equals the per-slot fetch loop: same payload, fetch head, stats,
        /// per-class link counters, clock and traced events (each slot's
        /// TLP pair at its own instant) — at any depth, any starting offset
        /// (wrapping ones included), and any length from one byte to three
        /// laps of the ring, which only a hostile command asks for.
        #[test]
        fn span_gather_equals_per_slot(
            depth_i in 0usize..SPAN_DEPTHS.len(),
            offset_seed in any::<u16>(),
            len_seed in any::<u32>(),
            fill in any::<u64>(),
        ) {
            let depth = SPAN_DEPTHS[depth_i];
            let offset = offset_seed % depth;
            let len = 1 + len_seed as usize % (3 * usize::from(depth) * SQE_BYTES);
            let ring: Vec<u8> = (0..usize::from(depth) * SQE_BYTES)
                .map(|i| (fill >> (i % 57)) as u8 ^ i as u8)
                .collect();
            let mut sides = Vec::new();
            for per_slot in [false, true] {
                let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
                let trace = bus.enable_trace();
                let cfg = ControllerConfig {
                    nand: NandConfig::disabled(),
                    ..ControllerConfig::default()
                };
                let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
                    Box::new(BlockFirmware::new(dram, false))
                });
                let drv = MiniDriver::new(&bus, &mut ctrl, depth);
                ctrl.queues[0].fetch_head = offset;
                let platform = bus.platform();
                let p = &mut *platform.borrow_mut();
                p.mem.write(drv.sq_base, &ring).unwrap();
                let payload = if per_slot {
                    gather_train_per_slot(&mut ctrl, p, 0, len)
                } else {
                    gather_train(&mut ctrl, p, 0, len)
                };
                sides.push((
                    payload,
                    ctrl.queues[0].fetch_head,
                    ctrl.stats,
                    p.link.counters().clone(),
                    bus.clock.now(),
                    trace.events(),
                ));
            }
            prop_assert_eq!(&sides[0], &sides[1]);
        }
    }
}
