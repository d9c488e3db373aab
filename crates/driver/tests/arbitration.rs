//! Controller-side SQ arbitration, observed through the flight recorder:
//! round-robin and weighted-round-robin fetch interleaving across queues,
//! including §3.3.2 reassembly-mode chunk interleaving.

use bx_driver::{NvmeDriver, TransferMethod};
use bx_nvme::{IoOpcode, PassthruCmd, QueueId};
use bx_pcie::LinkConfig;
use bx_ssd::{
    Arbitration, BlockFirmware, Controller, ControllerConfig, FetchPolicy, NandConfig, SystemBus,
};
use bx_trace::{EventKind, TraceSink};

struct Rig {
    sink: TraceSink,
    driver: NvmeDriver,
    ctrl: Controller,
    qa: QueueId,
    qb: QueueId,
}

fn rig(arb: Arbitration, reassembly: bool) -> Rig {
    let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let sink = bus.enable_trace();
    let cfg = ControllerConfig {
        nand: NandConfig::disabled(),
        fetch_policy: if reassembly {
            FetchPolicy::Reassembly
        } else {
            FetchPolicy::QueueLocal
        },
        arbitration: arb,
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, false))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qids = driver.initialize(&mut ctrl, &[64, 64]).unwrap();
    let (qa, qb) = (qids[0], qids[1]);
    Rig {
        sink,
        driver,
        ctrl,
        qa,
        qb,
    }
}

fn write_cmd(lba: u64, data: Vec<u8>) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

/// Queue ids of every SQE/chunk fetch, in fetch order.
fn fetch_qids(sink: &TraceSink) -> Vec<u16> {
    sink.events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SqeFetch { .. }))
        .map(|e| e.cmd.expect("fetch events are command-tagged").qid)
        .collect()
}

/// Arbiter grant log as (qid, served) pairs, in grant order.
fn grants(sink: &TraceSink) -> Vec<(u16, u16)> {
    sink.events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ArbiterGrant { qid, served } => Some((qid, served)),
            _ => None,
        })
        .collect()
}

/// Default round-robin at burst 1 fetches strictly alternately from two
/// equally loaded queues.
#[test]
fn round_robin_alternates_across_queues() {
    let mut r = rig(Arbitration::default(), false);
    for i in 0..6u64 {
        r.driver.submit_batch(
            r.qa,
            &[(write_cmd(i * 8, vec![1; 64]), TransferMethod::Prp)],
        );
        r.driver.submit_batch(
            r.qb,
            &[(write_cmd(i * 8, vec![2; 64]), TransferMethod::Prp)],
        );
    }
    r.sink.clear();
    r.ctrl.process_available();

    let qids = fetch_qids(&r.sink);
    assert_eq!(qids.len(), 12);
    let expected: Vec<u16> = (0..6).flat_map(|_| [r.qa.0, r.qb.0]).collect();
    assert_eq!(qids, expected, "burst-1 RR is a strict alternation");
}

/// Weighted round-robin at weights 3:1 grants the heavy queue three fetches
/// per round — the WRR interleave the acceptance criteria call for, pinned
/// against the trace.
#[test]
fn weighted_round_robin_interleaves_by_weight() {
    let mut r = rig(Arbitration::WeightedRoundRobin { burst: 1 }, false);
    r.ctrl.set_queue_weight(r.qa, 3);
    r.ctrl.set_queue_weight(r.qb, 1);
    let cmds_a: Vec<(PassthruCmd, TransferMethod)> = (0..12u64)
        .map(|i| (write_cmd(i * 8, vec![1; 64]), TransferMethod::Prp))
        .collect();
    let cmds_b: Vec<(PassthruCmd, TransferMethod)> = (0..12u64)
        .map(|i| (write_cmd(i * 8, vec![2; 64]), TransferMethod::Prp))
        .collect();
    assert!(r.driver.submit_batch(r.qa, &cmds_a).all_accepted());
    assert!(r.driver.submit_batch(r.qb, &cmds_b).all_accepted());

    r.sink.clear();
    r.ctrl.process_available();

    let qids = fetch_qids(&r.sink);
    assert_eq!(qids.len(), 24);
    // Four full rounds of [a, a, a, b] drain qa; qb's remaining eight
    // commands then go one per round.
    let mut expected = Vec::new();
    for _ in 0..4 {
        expected.extend([r.qa.0, r.qa.0, r.qa.0, r.qb.0]);
    }
    expected.extend(std::iter::repeat_n(r.qb.0, 8));
    assert_eq!(qids, expected, "weight-3 queue gets 3 fetches per round");

    // The grant log tells the same story.
    let g = grants(&r.sink);
    let mut expected_grants = Vec::new();
    for _ in 0..4 {
        expected_grants.extend([(r.qa.0, 3), (r.qb.0, 1)]);
    }
    expected_grants.extend(std::iter::repeat_n((r.qb.0, 1), 8));
    assert_eq!(g, expected_grants);

    // Both queues' commands all complete.
    r.ctrl.process_available();
    let (mut done_a, mut done_b) = (Vec::new(), Vec::new());
    r.driver.poll_completions_into(r.qa, &mut done_a).unwrap();
    r.driver.poll_completions_into(r.qb, &mut done_b).unwrap();
    assert_eq!(done_a.len(), 12);
    assert_eq!(done_b.len(), 12);
    assert!(done_a.iter().chain(&done_b).all(|c| c.status.is_success()));
}

/// §3.3.2 reassembly mode under WRR: chunk fetches from two queues
/// interleave (impossible in queue-local mode), and the heavier queue's
/// train finishes first. Out-of-order chunk arrival is reassembled
/// correctly — both commands complete successfully.
#[test]
fn wrr_interleaves_reassembly_chunks_across_queues() {
    let mut r = rig(Arbitration::WeightedRoundRobin { burst: 1 }, true);
    r.ctrl.set_queue_weight(r.qa, 2);
    r.ctrl.set_queue_weight(r.qb, 1);

    // 200 B in reassembly framing = 4 chunks + the command SQE = 5
    // scheduling units per train.
    let data_a: Vec<u8> = (0..200).map(|i| (i % 256) as u8).collect();
    let data_b: Vec<u8> = (0..200).map(|i| ((i * 3) % 256) as u8).collect();
    assert!(r
        .driver
        .submit_batch(
            r.qa,
            &[(write_cmd(0, data_a.clone()), TransferMethod::ByteExpress)]
        )
        .all_accepted());
    assert!(r
        .driver
        .submit_batch(
            r.qb,
            &[(write_cmd(8, data_b.clone()), TransferMethod::ByteExpress)]
        )
        .all_accepted());

    r.sink.clear();
    r.ctrl.process_available();

    // A reassembly-mode fetch unit is an SQE fetch or a chunk fetch (the
    // latter logged as ReassemblyAccept); both are command-tagged.
    let qids: Vec<u16> = r
        .sink
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::SqeFetch { .. } | EventKind::ReassemblyAccept { .. }
            )
        })
        .map(|e| e.cmd.expect("fetch events are command-tagged").qid)
        .collect();
    assert_eq!(qids.len(), 10, "2 SQEs + 8 chunks");
    let first_b = qids.iter().position(|&q| q == r.qb.0).unwrap();
    let last_a = qids.iter().rposition(|&q| q == r.qa.0).unwrap();
    let last_b = qids.iter().rposition(|&q| q == r.qb.0).unwrap();
    assert!(
        first_b < last_a,
        "qb fetches interleave inside qa's train: {qids:?}"
    );
    assert!(
        last_a < last_b,
        "the weight-2 queue drains its train first: {qids:?}"
    );

    let (mut done_a, mut done_b) = (Vec::new(), Vec::new());
    r.driver.poll_completions_into(r.qa, &mut done_a).unwrap();
    r.driver.poll_completions_into(r.qb, &mut done_b).unwrap();
    assert_eq!(done_a.len(), 1);
    assert_eq!(done_b.len(), 1);
    assert!(done_a[0].status.is_success(), "{:?}", done_a[0].status);
    assert!(done_b[0].status.is_success(), "{:?}", done_b[0].status);
}

/// Arbitration does not perturb single-queue semantics: burst-N round robin
/// on one queue fetches everything just like burst 1, in order.
#[test]
fn burst_on_single_queue_preserves_order() {
    let mut r = rig(Arbitration::RoundRobin { burst: 8 }, false);
    let cmds: Vec<(PassthruCmd, TransferMethod)> = (0..10u64)
        .map(|i| (write_cmd(i * 8, vec![4; 64]), TransferMethod::Prp))
        .collect();
    assert!(r.driver.submit_batch(r.qa, &cmds).all_accepted());
    r.sink.clear();
    r.ctrl.process_available();
    let qids = fetch_qids(&r.sink);
    assert_eq!(qids, vec![r.qa.0; 10]);
    // Grant log: one 8-credit grant, then the 2-command remainder.
    assert_eq!(grants(&r.sink), vec![(r.qa.0, 8), (r.qa.0, 2)]);
    let mut done = Vec::new();
    r.driver.poll_completions_into(r.qa, &mut done).unwrap();
    assert_eq!(done.len(), 10);
}
