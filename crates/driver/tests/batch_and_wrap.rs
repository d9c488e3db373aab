//! Batched submission (one doorbell per batch) and ring-wrap regression
//! tests at small odd queue depths.
//!
//! The wrap tests exist because the occupancy bug (`wrapping_sub % depth`)
//! was only correct at power-of-two depths: a chunk train straddling the
//! wrap of a depth-7 ring is exactly the shape that either under-admitted
//! (spurious `QueueFull`) or over-admitted (overwrote unfetched entries)
//! under the old math.

use bx_driver::{DriverError, FlushPolicy, NvmeDriver, RetryPolicy, SubmittedCmd, TransferMethod};
use bx_hostsim::Nanos;
use bx_nvme::{IoOpcode, PassthruCmd, QueueId, Status};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, NandConfig, SystemBus};

mod common;
use common::execute;

struct Rig {
    bus: SystemBus,
    driver: NvmeDriver,
    ctrl: Controller,
    qid: QueueId,
}

fn rig_depth(depth: u16) -> Rig {
    let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let cfg = ControllerConfig {
        // Real NAND I/O so read-back verification is meaningful.
        nand: NandConfig::small(),
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, true))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qid = driver.initialize(&mut ctrl, &[depth]).unwrap()[0];
    Rig {
        bus,
        driver,
        ctrl,
        qid,
    }
}

fn write_cmd(lba: u64, data: Vec<u8>) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

fn read_cmd(lba: u64, len: usize) -> PassthruCmd {
    let mut cmd = PassthruCmd::from_device(IoOpcode::Read, 1, len);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

/// Submits `cmds` to `qid` under the installed flush policy or, with none,
/// one that never fires, then rings once — a batch as `Device::write_batch`
/// places one. Stops at the first refusal: returns what was placed, and the
/// refusal.
fn submit_batch(
    d: &mut NvmeDriver,
    qid: QueueId,
    cmds: &[(PassthruCmd, TransferMethod)],
) -> (Vec<SubmittedCmd>, Option<DriverError>) {
    let never = FlushPolicy {
        max_batch: u16::MAX,
        max_delay: Nanos::from_ns(u64::MAX),
    };
    let found = d.set_flush_policy(None);
    d.set_flush_policy(found.or(Some(never)));
    let mut submitted = Vec::new();
    let refused = cmds.iter().find_map(|(cmd, method)| {
        let placed = d.submit(qid, cmd, *method);
        placed.map(|s| submitted.push(s)).err()
    });
    d.set_flush_policy(found);
    let flushed = d.flush_sq(qid);
    (submitted, refused.or(flushed.err()))
}

/// Drains every cid in `cids`, pumping controller + poll; panics if the
/// rig goes idle before all complete.
fn drain(r: &mut Rig, cids: &[u16]) -> Vec<bx_driver::Completion> {
    let mut pending: std::collections::HashSet<u16> = cids.iter().copied().collect();
    let mut out = Vec::new();
    let mut idle = 0;
    while !pending.is_empty() {
        r.ctrl.process_available();
        let seen = out.len();
        r.driver.poll_completions_into(r.qid, &mut out).unwrap();
        if out.len() == seen {
            idle += 1;
            assert!(idle < 4, "drain stalled with {} pending", pending.len());
        } else {
            idle = 0;
        }
        for c in &out[seen..] {
            pending.remove(&c.cid);
        }
    }
    out
}

/// A ByteExpress train (1 SQE + 4 chunks = 5 slots) that must straddle the
/// wrap of a depth-7 ring round-trips intact, lap after lap. At depth 7 the
/// old occupancy math reported garbage the moment head > tail.
#[test]
fn byteexpress_train_straddles_wrap_at_odd_depth() {
    let mut r = rig_depth(7);
    // 5 slots per train on a 6-usable-slot ring: every second train wraps.
    for lap in 0..10u64 {
        let data: Vec<u8> = (0..200).map(|i| ((i + lap as usize) % 256) as u8).collect();
        let c = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &write_cmd(lap * 8, data.clone()),
            TransferMethod::ByteExpress,
        )
        .unwrap();
        assert_eq!(c.status, Status::Success, "lap {lap}");

        let back = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &read_cmd(lap * 8, 200),
            TransferMethod::Prp,
        )
        .unwrap();
        assert_eq!(back.data.unwrap(), data, "lap {lap} integrity");
    }
    // 10 writes x 4 chunks each actually crossed the ring.
    assert_eq!(r.driver.stats().chunks_written, 40);
}

/// Same shape for BandSlim: a head + 4 fragment commands (5 slots) marching
/// around a depth-7 ring, wrapping repeatedly.
#[test]
fn bandslim_train_straddles_wrap_at_odd_depth() {
    let mut r = rig_depth(7);
    for lap in 0..10u64 {
        let data: Vec<u8> = (0..200)
            .map(|i| ((i * 7 + lap as usize) % 256) as u8)
            .collect();
        let c = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &write_cmd(lap * 8, data.clone()),
            TransferMethod::BandSlim { embed_first: true },
        )
        .unwrap();
        assert_eq!(c.status, Status::Success, "lap {lap}");

        let back = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &read_cmd(lap * 8, 200),
            TransferMethod::Prp,
        )
        .unwrap();
        assert_eq!(back.data.unwrap(), data, "lap {lap} integrity");
    }
}

/// The tentpole contract: a batch of N commands rings the SQ tail doorbell
/// exactly once, and every payload still lands intact.
#[test]
fn batch_rings_one_sq_doorbell() {
    let mut r = rig_depth(256);
    let cmds: Vec<(PassthruCmd, TransferMethod)> = (0..8u64)
        .map(|i| {
            (
                write_cmd(i * 8, vec![i as u8; 64]),
                TransferMethod::ByteExpress,
            )
        })
        .collect();

    let before = r.driver.stats().doorbells;
    let (submitted, error) = submit_batch(&mut r.driver, r.qid, &cmds);
    assert!(error.is_none(), "{error:?}");
    assert_eq!(submitted.len(), 8);
    assert_eq!(
        r.driver.stats().doorbells - before,
        1,
        "eight commands, one SQ doorbell"
    );
    assert_eq!(r.driver.stats().batch_flushes, 1);
    assert_eq!(r.driver.stats().batched_cmds, 8);

    let cids: Vec<u16> = submitted.iter().map(|s| s.cid).collect();
    let completions = drain(&mut r, &cids);
    assert!(completions.iter().all(|c| c.status.is_success()));

    for i in 0..8u64 {
        let back = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &read_cmd(i * 8, 64),
            TransferMethod::Prp,
        )
        .unwrap();
        assert_eq!(back.data.unwrap(), vec![i as u8; 64], "cmd {i}");
    }
}

/// An installed flush policy groups free-running submissions: max_batch 4
/// over 8 submissions produces exactly 2 doorbells.
#[test]
fn flush_policy_batches_by_count() {
    let mut r = rig_depth(256);
    r.driver.set_flush_policy(Some(FlushPolicy {
        max_batch: 4,
        max_delay: Nanos::from_ms(100),
    }));
    let before = r.driver.stats().doorbells;
    let mut cids = Vec::new();
    for i in 0..8u64 {
        let s = r
            .driver
            .submit(r.qid, &write_cmd(i * 8, vec![3; 64]), TransferMethod::Prp)
            .unwrap();
        cids.push(s.cid);
    }
    assert_eq!(r.driver.stats().doorbells - before, 2, "two groups of four");
    assert_eq!(r.driver.stats().batch_flushes, 2);
    let completions = drain(&mut r, &cids);
    assert!(completions.iter().all(|c| c.status.is_success()));
}

/// A staged submission older than max_delay is flushed from the poll path,
/// so a slow producer can never strand commands in the ring.
#[test]
fn flush_policy_flushes_stale_batch_on_poll() {
    let mut r = rig_depth(256);
    r.driver.set_flush_policy(Some(FlushPolicy {
        max_batch: 64,
        max_delay: Nanos::from_us(10),
    }));
    let before = r.driver.stats().doorbells;
    let s = r
        .driver
        .submit(r.qid, &write_cmd(0, vec![9; 64]), TransferMethod::Prp)
        .unwrap();
    assert_eq!(
        r.driver.stats().doorbells - before,
        0,
        "one command stays staged"
    );
    r.bus.clock.advance(Nanos::from_us(20));
    let completions = drain(&mut r, &[s.cid]);
    assert_eq!(completions[0].status, Status::Success);
    assert_eq!(r.driver.stats().doorbells - before, 2, "1 SQ (due) + 1 CQ");
}

/// CQ-side coalescing: reaping a batch of completions with `cq_coalesce`
/// large writes the CQ head doorbell once; the naive per-CQE setting writes
/// it once per entry. Identical completions either way.
#[test]
fn cq_coalescing_reduces_head_doorbells() {
    let run = |coalesce: u16| -> (u64, usize) {
        let mut r = rig_depth(256);
        r.driver.set_cq_coalesce(coalesce);
        let cmds: Vec<(PassthruCmd, TransferMethod)> = (0..8u64)
            .map(|i| (write_cmd(i * 8, vec![5; 64]), TransferMethod::ByteExpress))
            .collect();
        let (_, error) = submit_batch(&mut r.driver, r.qid, &cmds);
        assert!(error.is_none());
        r.ctrl.process_available();
        let before = r.driver.stats().doorbells;
        let mut got = Vec::new();
        r.driver.poll_completions_into(r.qid, &mut got).unwrap();
        (r.driver.stats().doorbells - before, got.len())
    };

    let (db_naive, n_naive) = run(1); // ring per CQE
    let (db_coalesced, n_coalesced) = run(16); // one ring per sweep
    assert_eq!(n_naive, 8);
    assert_eq!(n_coalesced, 8);
    assert_eq!(db_naive, 8, "per-CQE head updates");
    assert_eq!(db_coalesced, 1, "one head update for the batch");
}

/// A batch whose one doorbell rings on a dark device is fully reaped at
/// its deadline — each member individually — and after the power cycle a
/// clean resubmission lands all the data. No special casing for partial
/// batches.
#[test]
fn dark_batch_reaps_every_member() {
    let mut r = rig_depth(256);
    r.driver.set_retry_policy(Some(RetryPolicy {
        timeout: Nanos::from_ms(2),
        poll_interval: Nanos::from_us(20),
    }));
    r.ctrl.force_power_cut();

    let cmds: Vec<(PassthruCmd, TransferMethod)> = (0..3u64)
        .map(|i| (write_cmd(i * 8, vec![7; 64]), TransferMethod::Prp))
        .collect();
    let (_, error) = submit_batch(&mut r.driver, r.qid, &cmds);
    assert!(error.is_none(), "submission itself succeeds");
    assert_eq!(r.driver.stats().batch_flushes, 1, "one doorbell");

    // Pump past the deadline: the reaper posts synthetic CommandAborted
    // for every batch member.
    let mut got = Vec::new();
    let mut aborted = 0;
    for _ in 0..1000 {
        r.ctrl.process_available();
        r.driver.poll_completions_into(r.qid, &mut got).unwrap();
        aborted = got
            .iter()
            .filter(|c| c.status == Status::CommandAborted)
            .count();
        if aborted == 3 {
            break;
        }
        r.bus.clock.advance(Nanos::from_us(20));
    }
    assert_eq!(aborted, 3, "every member reaped individually");
    assert_eq!(r.driver.recovery_stats().timeouts, 3);

    // Power returns; the same batch goes through and is durable.
    r.ctrl.power_cycle();
    r.driver.reset_after_power_cycle().unwrap();
    r.qid = r.driver.initialize(&mut r.ctrl, &[256]).unwrap()[0];
    let (submitted, error) = submit_batch(&mut r.driver, r.qid, &cmds);
    assert!(error.is_none());
    let cids: Vec<u16> = submitted.iter().map(|s| s.cid).collect();
    let completions = drain(&mut r, &cids);
    assert!(completions.iter().all(|c| c.status.is_success()));
    for i in 0..3u64 {
        let back = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &read_cmd(i * 8, 64),
            TransferMethod::Prp,
        )
        .unwrap();
        assert_eq!(back.data.unwrap(), vec![7; 64]);
    }
}

/// A mid-batch error (payload too large for the ring) stops the batch:
/// earlier members are doorbelled and complete; later ones are never
/// attempted.
#[test]
fn batch_stops_at_first_error_but_flushes_prefix() {
    let mut r = rig_depth(8);
    let cmds = vec![
        (write_cmd(0, vec![1; 64]), TransferMethod::ByteExpress),
        // 7 slots needed (1 SQE + 6 chunks) on a 7-usable ring that already
        // holds 2 entries: rejected.
        (write_cmd(8, vec![2; 380]), TransferMethod::ByteExpress),
        (write_cmd(16, vec![3; 64]), TransferMethod::ByteExpress),
    ];
    let before = r.driver.stats().doorbells;
    let (submitted, error) = submit_batch(&mut r.driver, r.qid, &cmds);
    assert_eq!(submitted.len(), 1, "only the first was placed");
    assert_eq!(error, Some(DriverError::QueueFull { needed: 7, free: 5 }));
    assert_eq!(r.driver.stats().doorbells - before, 1, "prefix flushed");

    let cids: Vec<u16> = submitted.iter().map(|s| s.cid).collect();
    let completions = drain(&mut r, &cids);
    assert_eq!(completions[0].status, Status::Success);
    let back = execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &read_cmd(0, 64),
        TransferMethod::Prp,
    )
    .unwrap();
    assert_eq!(back.data.unwrap(), vec![1; 64]);
}

/// Batching moves *when* the bell rings, never *what* crosses the wire: the
/// same 32 ByteExpress writes (1–4 chunks each) submitted one at a time
/// with per-CQE head updates, then in groups of 8 with the head coalesced,
/// put byte-identical non-doorbell traffic on the link while doorbells —
/// link TLP counter and driver counter alike — drop 2.00 → 0.25 per command.
#[test]
fn batching_moves_doorbells_not_wire_bytes() {
    let run = |group: usize| {
        let mut r = rig_depth(256);
        r.driver.set_cq_coalesce(group as u16);
        let cmds: Vec<(PassthruCmd, TransferMethod)> = (0..32u64)
            .map(|i| {
                let data = vec![i as u8; 16 + 7 * i as usize];
                (write_cmd(i * 8, data), TransferMethod::ByteExpress)
            })
            .collect();
        let before = r.bus.traffic();
        let db_before = r.driver.stats().doorbells;
        for batch in cmds.chunks(group) {
            let (placed, error) = submit_batch(&mut r.driver, r.qid, batch);
            assert!(error.is_none(), "{error:?}");
            let cids: Vec<u16> = placed.iter().map(|s| s.cid).collect();
            let done = drain(&mut r, &cids);
            assert!(done.iter().all(|c| c.status.is_success()));
        }
        let wire = r.bus.traffic().since(&before);
        (
            wire.doorbell_tlps(),
            r.driver.stats().doorbells - db_before,
            wire.non_doorbell_wire_bytes(),
        )
    };
    let (tlps_1, driver_1, wire_1) = run(1);
    let (tlps_8, driver_8, wire_8) = run(8);
    assert_eq!((tlps_1, tlps_8), (64, 8), "1 SQ + 1 CQ doorbell per group");
    assert_eq!(
        (driver_1, driver_8),
        (tlps_1, tlps_8),
        "driver and link agree"
    );
    assert_eq!(wire_1, wire_8, "non-doorbell wire bytes must not move");
}
