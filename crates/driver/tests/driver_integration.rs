//! End-to-end driver↔controller tests: every transfer method, payload
//! integrity, traffic ordering, and error paths.

use bx_driver::{DriverError, NvmeDriver, TransferMethod};
use bx_hostsim::Nanos;
use bx_nvme::{IoOpcode, PassthruCmd, QueueId, Status};
use bx_pcie::{LinkConfig, TrafficClass};
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, FetchPolicy, NandConfig, SystemBus};

mod common;
use common::execute;

struct Rig {
    bus: SystemBus,
    driver: NvmeDriver,
    ctrl: Controller,
    qid: QueueId,
}

fn rig(nand_io: bool) -> Rig {
    let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let cfg = ControllerConfig {
        nand: if nand_io {
            NandConfig::small()
        } else {
            NandConfig::disabled()
        },
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, nand_io))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qid = driver.initialize(&mut ctrl, &[256]).unwrap()[0];
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

/// Write with each method, read back via PRP, and compare bytes.
#[test]
fn all_methods_round_trip_payload() {
    for method in [
        TransferMethod::Prp,
        TransferMethod::Sgl,
        TransferMethod::BandSlim { embed_first: true },
        TransferMethod::ByteExpress,
        TransferMethod::hybrid_default(),
    ] {
        let mut r = rig(true);
        for (lba, len) in [(0u64, 17usize), (1, 64), (2, 100), (3, 300), (4, 5000)] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let c = execute(
                &mut r.driver,
                r.qid,
                &mut r.ctrl,
                &write_cmd(lba * 8, data.clone()),
                method,
            )
            .unwrap();
            assert_eq!(c.status, Status::Success, "{method} write len {len}");

            let c = execute(
                &mut r.driver,
                r.qid,
                &mut r.ctrl,
                &read_cmd(lba * 8, len),
                TransferMethod::Prp,
            )
            .unwrap();
            assert_eq!(c.status, Status::Success);
            assert_eq!(c.data.unwrap(), data, "{method} integrity at len {len}");
        }
    }
}

/// Fig 5's headline: at 64 bytes, ByteExpress traffic is a tiny fraction of
/// PRP's, and lower than BandSlim's.
#[test]
fn traffic_ordering_at_64_bytes() {
    let measure = |method: TransferMethod| -> u64 {
        let mut r = rig(false);
        let before = r.bus.traffic();
        execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &write_cmd(0, vec![7; 64]),
            method,
        )
        .unwrap();
        r.bus.traffic().since(&before).total_bytes()
    };
    let prp = measure(TransferMethod::Prp);
    let bandslim = measure(TransferMethod::BandSlim { embed_first: true });
    let bx = measure(TransferMethod::ByteExpress);

    assert!(
        (1.0 - bx as f64 / prp as f64) > 0.9,
        "BX {bx} should be >90% below PRP {prp}"
    );
    assert!(bx < bandslim, "BX {bx} should undercut BandSlim {bandslim}");
}

/// Fig 5's latency shape: ByteExpress wins for small payloads, PRP wins for
/// page-scale payloads, BandSlim collapses as fragments multiply.
#[test]
fn latency_shape_across_sizes() {
    let measure = |method: TransferMethod, len: usize| -> u64 {
        let mut r = rig(false);
        let c = execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &write_cmd(0, vec![1; len]),
            method,
        )
        .unwrap();
        c.latency().as_ns()
    };

    // Small payloads: ByteExpress beats PRP by a wide margin (paper: ~40%).
    for len in [32usize, 64, 128] {
        let bx = measure(TransferMethod::ByteExpress, len);
        let prp = measure(TransferMethod::Prp, len);
        let cut = 1.0 - bx as f64 / prp as f64;
        assert!(
            cut > 0.20,
            "at {len} B ByteExpress should cut latency >20%, got {:.1}% ({bx} vs {prp})",
            cut * 100.0
        );
    }

    // Crossover: by 1 KiB, PRP is faster (paper: crossover around 256 B).
    let bx_1k = measure(TransferMethod::ByteExpress, 1024);
    let prp_1k = measure(TransferMethod::Prp, 1024);
    assert!(
        bx_1k > prp_1k,
        "PRP should win at 1 KiB: bx={bx_1k} prp={prp_1k}"
    );

    // BandSlim beyond 64 B: worse than ByteExpress (paper: 72% at 128 B).
    let bs_128 = measure(TransferMethod::BandSlim { embed_first: true }, 128);
    let bx_128 = measure(TransferMethod::ByteExpress, 128);
    assert!(
        (1.0 - bx_128 as f64 / bs_128 as f64) > 0.4,
        "BX should cut >40% vs BandSlim at 128 B: {bx_128} vs {bs_128}"
    );

    // BandSlim at/below 32 B fits one command and may beat ByteExpress.
    let bs_32 = measure(TransferMethod::BandSlim { embed_first: true }, 32);
    let bx_32 = measure(TransferMethod::ByteExpress, 32);
    assert!(bs_32 < bx_32, "single-CMD BandSlim should win at 32 B");
}

/// The hybrid engine switches exactly at its threshold.
#[test]
fn hybrid_switches_at_threshold() {
    let mut r = rig(false);
    let method = TransferMethod::Hybrid { threshold: 256 };

    execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(0, vec![1; 256]),
        method,
    )
    .unwrap();
    assert_eq!(r.ctrl.stats().inline_payload_bytes, 256);
    assert_eq!(r.ctrl.stats().prp_payload_bytes, 0);

    execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(0, vec![1; 257]),
        method,
    )
    .unwrap();
    assert_eq!(r.ctrl.stats().inline_payload_bytes, 256, "257 B goes PRP");
    assert_eq!(r.ctrl.stats().prp_payload_bytes, 257);
}

/// SGL is byte-granular at every size: 64 B move 64 B of `SglData`, and a
/// multi-page payload rides a chained descriptor segment.
#[test]
fn sgl_is_byte_granular() {
    let mut r = rig(false);
    let before = r.bus.traffic();
    execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(16, vec![3; 64]),
        TransferMethod::Sgl,
    )
    .unwrap();
    let delta = r.bus.traffic().since(&before);
    assert_eq!(delta.class(TrafficClass::SglData).payload_bytes, 64);
    assert!(
        delta.total_bytes() < 1024,
        "fine-grained SGL write should move far less than a page"
    );

    execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(8, vec![2; 40 * 1024]),
        TransferMethod::Sgl,
    )
    .unwrap();
    assert_eq!(r.ctrl.stats().sgl_payload_bytes, 64 + 40 * 1024);
    assert_eq!(r.ctrl.stats().prp_payload_bytes, 0);
}

/// ByteExpress doorbell economy: one ring per train; BandSlim rings per CMD.
#[test]
fn doorbell_counts_per_method() {
    // Deltas: bring-up rang the admin queue's doorbells.
    let mut r = rig(false);
    let bringup = r.driver.stats().doorbells;
    execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(0, vec![1; 256]),
        TransferMethod::ByteExpress,
    )
    .unwrap();
    // 1 SQ doorbell for the whole train + 1 CQ head doorbell.
    assert_eq!(r.driver.stats().doorbells - bringup, 2);
    assert_eq!(r.driver.stats().chunks_written, 4);

    let mut r = rig(false);
    execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(0, vec![1; 256]),
        TransferMethod::BandSlim { embed_first: true },
    )
    .unwrap();
    // Head + ceil((256-32)/48)=5 frags = 6 SQ doorbells + 1 CQ doorbell.
    assert_eq!(r.driver.stats().frags_issued, 5);
    assert_eq!(r.driver.stats().doorbells - bringup, 7);
}

/// Per-op latency matches Table 1's composition end to end.
#[test]
fn end_to_end_latency_composition() {
    let mut r = rig(false);
    let c64 = execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(0, vec![1; 64]),
        TransferMethod::ByteExpress,
    )
    .unwrap();
    let c128 = execute(
        &mut r.driver,
        r.qid,
        &mut r.ctrl,
        &write_cmd(0, vec![1; 128]),
        TransferMethod::ByteExpress,
    )
    .unwrap();
    // One more chunk: +28 ns submit, +440 ns controller fetch/land.
    assert_eq!(
        c128.latency().as_ns() - c64.latency().as_ns(),
        28 + 440,
        "marginal chunk cost"
    );
}

#[test]
fn empty_payload_rejected() {
    let mut r = rig(false);
    let err = r
        .driver
        .submit(r.qid, &write_cmd(0, vec![]), TransferMethod::ByteExpress)
        .unwrap_err();
    assert_eq!(err, DriverError::EmptyPayload);
}

#[test]
fn oversized_inline_payload_rejected() {
    let mut r = rig(false);
    // Queue depth 256 → at most 254 chunks → 16,256 bytes.
    let err = r
        .driver
        .submit(
            r.qid,
            &write_cmd(0, vec![0; 255 * 64]),
            TransferMethod::ByteExpress,
        )
        .unwrap_err();
    assert!(matches!(err, DriverError::PayloadTooLarge { .. }), "{err}");
}

/// Each ring-bounded method's size bound is exact: at depths 4, 5 and 256 a
/// write of the `max` its `PayloadTooLarge` reports is accepted and lands
/// its bytes, and one byte more is refused with that same `max`. ByteExpress
/// under both fetch policies, BandSlim with and without head embedding.
#[test]
fn ring_bounded_size_limits_are_exact() {
    let cases = [
        (FetchPolicy::QueueLocal, TransferMethod::ByteExpress),
        (FetchPolicy::Reassembly, TransferMethod::ByteExpress),
        (
            FetchPolicy::QueueLocal,
            TransferMethod::BandSlim { embed_first: true },
        ),
        (
            FetchPolicy::QueueLocal,
            TransferMethod::BandSlim { embed_first: false },
        ),
    ];
    for depth in [4u16, 5, 256] {
        for (fetch_policy, method) in cases {
            let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
            let cfg = ControllerConfig {
                fetch_policy,
                ..ControllerConfig::default()
            };
            let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
                Box::new(BlockFirmware::new(dram, true))
            });
            let mut driver = NvmeDriver::new(bus);
            let qid = driver.initialize(&mut ctrl, &[depth]).unwrap()[0];
            let case = format!("{method} {fetch_policy:?} depth {depth}");
            let max = match driver.submit(qid, &write_cmd(0, vec![0; 1 << 20]), method) {
                Err(DriverError::PayloadTooLarge { max, .. }) => max,
                other => panic!("{case}: expected PayloadTooLarge, got {other:?}"),
            };

            let data: Vec<u8> = (0..max).map(|i| (i * 7 + max) as u8).collect();
            let c = execute(
                &mut driver,
                qid,
                &mut ctrl,
                &write_cmd(8, data.clone()),
                method,
            )
            .unwrap();
            assert_eq!(c.status, Status::Success, "{case}: write of {max} B");
            let c = execute(
                &mut driver,
                qid,
                &mut ctrl,
                &read_cmd(8, max),
                TransferMethod::Prp,
            )
            .unwrap();
            assert_eq!(c.data.unwrap(), data, "{case}: {max} B landed");

            let err = driver
                .submit(qid, &write_cmd(8, vec![1; max + 1]), method)
                .unwrap_err();
            let refused = DriverError::PayloadTooLarge { len: max + 1, max };
            assert_eq!(err, refused, "{case}");
        }
    }
}

/// The byte interface posts one MMIO write per 64 B cacheline of the command
/// image and payload, the last one partial.
#[test]
fn mmio_posts_one_write_per_cacheline() {
    for len in [1usize, 64, 100, 1000] {
        let mut r = rig(false);
        let before = r.bus.traffic();
        let cmd = write_cmd(0, vec![3; len]);
        r.driver
            .submit(r.qid, &cmd, TransferMethod::MmioByte)
            .unwrap();
        let mmio = r.bus.traffic().since(&before).class(TrafficClass::Mmio);
        let total = 64 + len;
        let lines = total.div_ceil(64) as u64;
        assert_eq!(
            (mmio.tlps, mmio.payload_bytes),
            (lines, total as u64),
            "{len} B"
        );
    }
}

#[test]
fn unknown_queue_rejected() {
    let mut r = rig(false);
    let err = r
        .driver
        .submit(QueueId(9), &write_cmd(0, vec![1]), TransferMethod::Prp)
        .unwrap_err();
    assert_eq!(err, DriverError::UnknownQueue(QueueId(9)));
}

#[test]
fn queue_fills_without_completion_processing() {
    let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let mut ctrl = Controller::new(bus.clone(), ControllerConfig::default(), |dram| {
        Box::new(BlockFirmware::new(dram, false))
    });
    let mut driver = NvmeDriver::new(bus);
    let qid = driver.initialize(&mut ctrl, &[4]).unwrap()[0];
    // Depth 4 → 3 usable slots. A 16-byte inline train takes 2 (cmd+chunk):
    // the first fits, the second does not.
    driver
        .submit(qid, &write_cmd(0, vec![1; 16]), TransferMethod::ByteExpress)
        .unwrap();
    let err = driver
        .submit(qid, &write_cmd(0, vec![1; 64]), TransferMethod::ByteExpress)
        .unwrap_err();
    assert!(matches!(err, DriverError::QueueFull { .. }), "{err}");
    // After the controller drains and we poll, slots free up.
    ctrl.process_available();
    driver.poll_completions_into(qid, &mut Vec::new()).unwrap();
    driver
        .submit(qid, &write_cmd(0, vec![1; 64]), TransferMethod::ByteExpress)
        .unwrap();
}

/// Host pages are recycled: a long run of PRP ops does not leak memory.
#[test]
fn prp_pages_recycled_across_ops() {
    let mut r = rig(false);
    let free_before = r.bus.platform().borrow().mem.allocator().free_pages();
    for i in 0..200u64 {
        execute(
            &mut r.driver,
            r.qid,
            &mut r.ctrl,
            &write_cmd(i, vec![1; 4096]),
            TransferMethod::Prp,
        )
        .unwrap();
    }
    assert_eq!(
        r.bus.platform().borrow().mem.allocator().free_pages(),
        free_before
    );
}

/// NAND-on writes through ByteExpress cost NAND program time; NAND-off ones
/// do not (the paper's two measurement modes).
#[test]
fn nand_mode_affects_latency() {
    let mut on = rig(true);
    let mut off = rig(false);
    let cmd = write_cmd(0, vec![1; 64]);
    let t_on = execute(
        &mut on.driver,
        on.qid,
        &mut on.ctrl,
        &cmd,
        TransferMethod::ByteExpress,
    )
    .unwrap()
    .latency();
    let t_off = execute(
        &mut off.driver,
        off.qid,
        &mut off.ctrl,
        &cmd,
        TransferMethod::ByteExpress,
    )
    .unwrap()
    .latency();
    assert!(t_on > t_off + Nanos::from_us(100), "NAND program dominates");
}
