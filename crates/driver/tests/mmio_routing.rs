//! Cross-queue byte-interface completion routing.
//!
//! The BAR status area is shared by every queue and cids are only unique
//! *per queue*, so the device must echo the submitting queue's id on each
//! status word and the driver must drain only its own queue's entries per
//! poll. These tests pin that contract: completions surface only on their
//! submitting queue, with true latency, no phantom timeouts, no spurious
//! completions, and correct qid attribution in trace events at both the
//! driver and controller ends.

use bx_driver::{NvmeDriver, RetryPolicy, TransferMethod};
use bx_nvme::{IoOpcode, PassthruCmd, QueueId};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, NandConfig, SystemBus};
use bx_trace::{EventKind, TraceSink};

struct Rig {
    bus: SystemBus,
    driver: NvmeDriver,
    ctrl: Controller,
    qids: Vec<QueueId>,
    trace: Option<TraceSink>,
}

fn rig(queues: usize, traced: bool) -> Rig {
    let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, queues + 1);
    let trace = traced.then(|| bus.enable_trace());
    let cfg = ControllerConfig {
        nand: NandConfig::disabled(),
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, false))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qids = driver.initialize(&mut ctrl, &vec![64; queues]).unwrap();
    Rig {
        bus,
        driver,
        ctrl,
        qids,
        trace,
    }
}

fn write_cmd(lba: u64, data: Vec<u8>) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

/// Byte-interface writes on 3 queues concurrently: each completion must
/// surface on its submitting queue (and only there), with a non-zero
/// submitted→completed latency, no timeout reaps, and zero spurious
/// completions — with the retry policy installed so both counters are live.
#[test]
fn completions_route_to_submitting_queue() {
    let mut r = rig(3, false);
    r.driver.set_retry_policy(Some(RetryPolicy::default()));

    // Interleave submissions across all three queues before the device
    // runs, so the window holds a mix of queues' completions at poll time.
    let mut expected: Vec<(QueueId, u16)> = Vec::new();
    for round in 0..4u64 {
        for (qi, &qid) in r.qids.clone().iter().enumerate() {
            let data = vec![(qi as u8) ^ (round as u8); 96];
            let sub = r
                .driver
                .submit(qid, &write_cmd(round * 8, data), TransferMethod::MmioByte)
                .unwrap();
            assert_eq!(sub.queue, qid);
            expected.push((qid, sub.cid));
        }
    }
    r.ctrl.process_available();

    // Poll the queues in an order different from submission order: the
    // first poll must not steal the other queues' status words.
    let mut polled: Vec<(QueueId, Vec<bx_driver::Completion>)> = Vec::new();
    for &qid in r.qids.iter().rev() {
        let mut got = Vec::new();
        r.driver.poll_completions_into(qid, &mut got).unwrap();
        polled.push((qid, got));
    }
    for (qid, completions) in &polled {
        let mine: Vec<u16> = expected
            .iter()
            .filter(|(q, _)| q == qid)
            .map(|&(_, cid)| cid)
            .collect();
        let got: Vec<u16> = completions.iter().map(|c| c.cid).collect();
        assert_eq!(got, mine, "queue {qid:?} must see exactly its own cids");
        for c in completions {
            assert!(c.status.is_success());
            assert!(
                c.latency().as_ns() > 0,
                "latency must be real, not falsified to zero (q{} c{})",
                qid.0,
                c.cid
            );
        }
    }

    // No inflight leak on any queue, hence nothing to reap and nothing
    // spurious even after time passes.
    for &qid in &r.qids {
        assert_eq!(r.driver.inflight_len(qid), 0);
    }
    let stats = r.driver.recovery_stats();
    assert_eq!(stats.timeouts, 0, "no phantom timeout reaps");
    assert_eq!(stats.spurious_completions, 0, "no spurious completions");
}

/// A queue whose commands are all still pending elsewhere gets an empty
/// poll — foreign status words stay in the window, in order.
#[test]
fn foreign_completions_stay_queued() {
    let mut r = rig(2, false);
    let [qa, qb] = [r.qids[0], r.qids[1]];
    r.driver
        .submit(qa, &write_cmd(0, vec![7; 64]), TransferMethod::MmioByte)
        .unwrap();
    r.ctrl.process_available();

    // Queue B polls first: it must see nothing and leave A's entry alone.
    let mut got = Vec::new();
    r.driver.poll_completions_into(qb, &mut got).unwrap();
    assert!(got.is_empty());
    r.driver.poll_completions_into(qa, &mut got).unwrap();
    assert_eq!(got.len(), 1);
    assert!(got[0].status.is_success());
}

/// The spurious counter covers the byte-interface path: a status word for
/// a cid the queue no longer tracks (reaped after its deadline) is counted,
/// not silently consumed with a falsified timestamp.
#[test]
fn late_byte_interface_completion_counts_spurious() {
    let mut r = rig(1, false);
    let qid = r.qids[0];
    r.driver.set_retry_policy(Some(RetryPolicy::default()));
    let bus = r.bus.clone();

    r.driver
        .submit(qid, &write_cmd(0, vec![3; 64]), TransferMethod::MmioByte)
        .unwrap();
    // Let the deadline lapse before the device runs: the poll reaps the
    // command as timed out.
    bus.clock
        .advance(RetryPolicy::default().timeout + bx_hostsim::Nanos::from_ms(1));
    let mut reaped = Vec::new();
    r.driver.poll_completions_into(qid, &mut reaped).unwrap();
    assert_eq!(reaped.len(), 1);
    assert!(!reaped[0].status.is_success());
    assert_eq!(r.driver.recovery_stats().timeouts, 1);

    // Now the device completes the original attempt; its status word is
    // late — consumed, counted as spurious.
    r.ctrl.process_available();
    let mut late = Vec::new();
    r.driver.poll_completions_into(qid, &mut late).unwrap();
    assert_eq!(late.len(), 1);
    assert_eq!(r.driver.recovery_stats().spurious_completions, 1);
}

/// Regression pin for per-queue trace attribution: the driver-side
/// `CompletionConsumed` and the controller-side `CqePost` for a
/// byte-interface command both carry the submitting queue's real id —
/// never the old hardcoded queue 0.
#[test]
fn trace_attribution_uses_real_qid() {
    let mut r = rig(3, true);
    let mut submitted: Vec<(u16, u16)> = Vec::new();
    for &qid in &r.qids.clone() {
        let sub = r
            .driver
            .submit(qid, &write_cmd(0, vec![9; 80]), TransferMethod::MmioByte)
            .unwrap();
        submitted.push((qid.0, sub.cid));
    }
    r.ctrl.process_available();
    for &qid in &r.qids.clone() {
        r.driver
            .poll_completions_into(qid, &mut Vec::new())
            .unwrap();
    }

    let events = r.trace.as_ref().unwrap().events();
    for &(qid, cid) in &submitted {
        assert!(qid != 0, "I/O queues are 1-based; 0 would be the old bug");
        let consumed = events.iter().any(|e| {
            matches!(e.kind, EventKind::CompletionConsumed { .. })
                && e.cmd.is_some_and(|k| k.qid == qid && k.cid == cid)
        });
        assert!(
            consumed,
            "driver CompletionConsumed must be keyed q{qid}/c{cid}"
        );
        let posted = events.iter().any(|e| {
            matches!(e.kind, EventKind::CqePost { .. })
                && e.cmd.is_some_and(|k| k.qid == qid && k.cid == cid)
        });
        assert!(posted, "controller CqePost must be keyed q{qid}/c{cid}");
    }
    // And none of this run's completion events may carry the hardcoded 0
    // (bring-up's own are the admin queue's: its posts count, none are
    // consumed through the I/O poll path).
    let keyed_to_zero = |want: fn(&EventKind) -> bool| {
        events
            .iter()
            .filter(|e| want(&e.kind) && e.cmd.is_some_and(|k| k.qid == 0))
            .count()
    };
    let admin_cmds = r.ctrl.stats().admin_commands as usize;
    assert_eq!(
        keyed_to_zero(|k| matches!(k, EventKind::CqePost { .. })),
        admin_cmds,
        "no I/O completion post may be keyed to queue 0"
    );
    assert_eq!(
        keyed_to_zero(|k| matches!(k, EventKind::CompletionConsumed { .. })),
        0,
        "no completion consumed may be keyed to queue 0"
    );
}
