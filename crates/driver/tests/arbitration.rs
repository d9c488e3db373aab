//! Controller-side SQ arbitration, observed through the flight recorder:
//! round-robin fetch interleaving across queues, including §3.3.2
//! reassembly-mode chunk interleaving.

use bx_driver::{NvmeDriver, TransferMethod};
use bx_nvme::{IoOpcode, PassthruCmd, QueueId};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, FetchPolicy, SystemBus};
use bx_trace::{EventKind, TraceSink};

struct Rig {
    sink: TraceSink,
    driver: NvmeDriver,
    ctrl: Controller,
    qa: QueueId,
    qb: QueueId,
}

/// Two queue pairs over a NAND-backed block device, so writes read back.
fn rig(fetch_policy: FetchPolicy) -> Rig {
    let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let sink = bus.enable_trace();
    let cfg = ControllerConfig {
        fetch_policy,
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, true))
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

/// Round-robin fetches strictly alternately from two equally loaded
/// queues, one unit per queue per pass.
#[test]
fn round_robin_alternates_across_queues() {
    let mut r = rig(FetchPolicy::QueueLocal);
    for i in 0..6u64 {
        let (a, b) = (write_cmd(i * 8, vec![1; 64]), write_cmd(i * 8, vec![2; 64]));
        r.driver.submit(r.qa, &a, TransferMethod::Prp).unwrap();
        r.driver.submit(r.qb, &b, TransferMethod::Prp).unwrap();
    }
    r.sink.clear();
    r.ctrl.process_available();

    let qids = fetch_qids(&r.sink);
    let expected: Vec<u16> = (0..6).flat_map(|_| [r.qa.0, r.qb.0]).collect();
    assert_eq!(qids, expected, "round-robin is a strict alternation");
    let expected_grants: Vec<(u16, u16)> = expected.iter().map(|&q| (q, 1)).collect();
    assert_eq!(grants(&r.sink), expected_grants);
}

/// §3.3.2 reassembly mode under round-robin: two trains' fetch units — the
/// command SQE, then one chunk per pass — alternate strictly between the
/// queues (impossible in queue-local mode), and the out-of-order chunk
/// arrival still reassembles both payloads intact.
#[test]
fn round_robin_interleaves_reassembly_chunks_across_queues() {
    let mut r = rig(FetchPolicy::Reassembly);

    // 200 B in reassembly framing = 4 chunks + the command SQE = 5
    // scheduling units per train.
    let data_a: Vec<u8> = (0..200).map(|i| (i % 256) as u8).collect();
    let data_b: Vec<u8> = (0..200).map(|i| ((i * 3) % 256) as u8).collect();
    for (q, lba, data) in [(r.qa, 0, &data_a), (r.qb, 8, &data_b)] {
        let cmd = write_cmd(lba, data.clone());
        r.driver
            .submit(q, &cmd, TransferMethod::ByteExpress)
            .unwrap();
    }

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
    let expected: Vec<u16> = (0..5).flat_map(|_| [r.qa.0, r.qb.0]).collect();
    assert_eq!(qids, expected, "2 SQEs + 8 chunks, strictly alternating");

    for (q, lba, data) in [(r.qa, 0u64, &data_a), (r.qb, 8, &data_b)] {
        let mut done = Vec::new();
        r.driver.poll_completions_into(q, &mut done).unwrap();
        assert_eq!(done.len(), 1);
        assert!(done[0].status.is_success(), "{:?}", done[0].status);

        let mut read = PassthruCmd::from_device(IoOpcode::Read, 1, data.len());
        read.cdw10_15[0] = lba as u32;
        r.driver.submit(q, &read, TransferMethod::Prp).unwrap();
        r.ctrl.process_available();
        done.clear();
        r.driver.poll_completions_into(q, &mut done).unwrap();
        assert_eq!(done[0].data.as_ref(), Some(data), "queue {q}");
    }
}
