//! The single command engine's contracts: a rejected submit leaves nothing
//! behind (no page, no slot, no doorbell, no clock, no event), and a
//! completion lost to a power cut without a retry policy is an error, not a
//! panic.

use bx_driver::{DriverError, NvmeDriver, TransferMethod};
use bx_nvme::{IoOpcode, PassthruCmd, QueueId};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, NandConfig, SystemBus};
use bx_trace::{reconstruct_spans, MetricsRegistry};

mod common;
use common::execute;

/// A traced NAND-less device with one I/O queue of `depth` slots.
fn rig(depth: u16) -> (SystemBus, NvmeDriver, Controller, QueueId) {
    let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    bus.enable_trace();
    let cfg = ControllerConfig {
        nand: NandConfig::disabled(),
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, false))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qid = driver.initialize(&mut ctrl, &[depth]).unwrap()[0];
    (bus, driver, ctrl, qid)
}

fn write_cmd(lba: u64, data: Vec<u8>) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

fn free_pages(bus: &SystemBus) -> usize {
    bus.platform().borrow().mem.allocator().free_pages()
}

#[test]
fn rejected_submits_free_their_host_pages() {
    let (bus, mut driver, mut ctrl, qid) = rig(4);
    let idle = free_pages(&bus);

    // Fill the ring: depth 4 holds three entries.
    for i in 0..3 {
        driver
            .submit(qid, &write_cmd(i * 8, vec![0x11; 64]), TransferMethod::Prp)
            .unwrap();
    }
    let full = free_pages(&bus);
    assert!(full < idle, "the accepted writes hold their pages");

    // What a refusal must leave as it found it: the clock, the SQ tail the
    // device was rung with, the doorbell count, the free host pages and the
    // recorded events.
    let observe = |driver: &NvmeDriver| {
        let tail = bus.platform().borrow().doorbells.sq_tail(qid);
        let doorbells = driver.stats().doorbells;
        (
            bus.clock.now(),
            tail,
            doorbells,
            free_pages(&bus),
            bus.trace.len(),
        )
    };
    let before = observe(&driver);
    let read = PassthruCmd::from_device(IoOpcode::Read, 1, 4096);
    let bandslim = |embed_first| TransferMethod::BandSlim { embed_first };
    let rejected = [
        (write_cmd(64, vec![0x22; 8192]), TransferMethod::Prp),
        (write_cmd(64, vec![0x33; 8192]), TransferMethod::Sgl),
        (read, TransferMethod::Prp),
        (write_cmd(64, vec![0x44; 100]), TransferMethod::ByteExpress),
        (write_cmd(64, vec![0x55; 100]), bandslim(true)),
        (write_cmd(64, vec![0x66; 100]), bandslim(false)),
        // Trains no depth-4 ring can hold, full or empty.
        (write_cmd(64, vec![0x77; 1000]), TransferMethod::ByteExpress),
        (write_cmd(64, vec![0x88; 1000]), bandslim(true)),
        (write_cmd(64, vec![0x99; 1000]), bandslim(false)),
    ];
    for (cmd, method) in &rejected {
        for _ in 0..10 {
            let err = driver.submit(qid, cmd, *method).unwrap_err();
            assert!(
                matches!(
                    err,
                    DriverError::QueueFull { .. } | DriverError::PayloadTooLarge { .. }
                ),
                "{err}"
            );
            assert_eq!(
                observe(&driver),
                before,
                "{method:?}: a refusal touched state"
            );
        }
    }
    assert_eq!(driver.inflight_len(qid), 3);
    // Only the accepted commands opened spans.
    let events = bus.trace.events();
    assert_eq!(reconstruct_spans(&events).len(), 3);
    let submitted = MetricsRegistry::from_events(&events).counter_total("commands_submitted");
    assert_eq!(submitted, driver.stats().submissions);

    // The accepted commands complete and hand their pages back too.
    ctrl.process_available();
    let mut done = Vec::new();
    driver.poll_completions_into(qid, &mut done).unwrap();
    assert_eq!(done.len(), 3);
    assert_eq!(free_pages(&bus), idle);
    // No refusal moved the driver's tail: the next command takes the slot
    // after the three accepted ones, wrapping the tail to 0.
    driver
        .submit(qid, &write_cmd(0, vec![0x11; 64]), TransferMethod::Prp)
        .unwrap();
    assert_eq!(bus.platform().borrow().doorbells.sq_tail(qid), 0);
}

#[test]
fn lost_completion_without_policy_is_a_timeout_error() {
    let (_bus, mut driver, mut ctrl, qid) = rig(64);
    ctrl.force_power_cut();
    let cmd = write_cmd(0, vec![0x44; 64]);
    let err = execute(
        &mut driver,
        qid,
        &mut ctrl,
        &cmd,
        TransferMethod::ByteExpress,
    )
    .unwrap_err();
    match err {
        DriverError::Timeout { ctx, .. } => {
            assert_eq!(ctx.qid, qid);
            assert_eq!(ctx.opcode, IoOpcode::Write as u8);
        }
        other => panic!("expected Timeout, got {other}"),
    }
    // Nothing reaps without a policy: the command stays tracked until the
    // power cycle's reset, after which the queue works again.
    assert_eq!(driver.inflight_len(qid), 1);
    ctrl.power_cycle();
    driver.reset_after_power_cycle().unwrap();
    let qid = driver.initialize(&mut ctrl, &[64]).unwrap()[0];
    let next = execute(
        &mut driver,
        qid,
        &mut ctrl,
        &cmd,
        TransferMethod::ByteExpress,
    )
    .unwrap();
    assert!(next.status.is_success());
    assert_eq!(driver.inflight_len(qid), 0);
}
