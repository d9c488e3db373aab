//! The single command engine's contracts: a rejected submit leaves nothing
//! behind in host memory, and a lost completion without a retry policy is
//! an error, not a panic.

use bx_driver::{DriverError, NvmeDriver, TransferMethod};
use bx_hostsim::FaultConfig;
use bx_nvme::{IoOpcode, PassthruCmd, QueueId};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, NandConfig, SystemBus};

fn rig(depth: u16) -> (SystemBus, NvmeDriver, Controller, QueueId) {
    let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
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
    driver.set_sgl_threshold(4096);
    let idle = free_pages(&bus);

    // Fill the ring: depth 4 holds three entries.
    for i in 0..3 {
        driver
            .submit(qid, &write_cmd(i * 8, vec![0x11; 64]), TransferMethod::Prp)
            .unwrap();
    }
    let full = free_pages(&bus);
    assert!(full < idle, "the accepted writes hold their pages");

    let read = PassthruCmd::from_device(IoOpcode::Read, 1, 4096);
    let rejected = [
        (write_cmd(64, vec![0x22; 8192]), TransferMethod::Prp),
        (write_cmd(64, vec![0x33; 8192]), TransferMethod::Sgl),
        (read, TransferMethod::Prp),
    ];
    for (cmd, method) in &rejected {
        for _ in 0..10 {
            let err = driver.submit(qid, cmd, *method).unwrap_err();
            assert!(matches!(err, DriverError::QueueFull { .. }), "{err}");
            assert_eq!(free_pages(&bus), full, "{method:?}: rejected submit leaked");
        }
    }
    assert_eq!(driver.inflight_len(qid), 3);

    // The accepted commands complete and hand their pages back too.
    ctrl.process_available();
    let mut done = Vec::new();
    driver.poll_completions_into(qid, &mut done).unwrap();
    assert_eq!(done.len(), 3);
    assert_eq!(free_pages(&bus), idle);
}

#[test]
fn lost_completion_without_policy_is_a_timeout_error() {
    let (bus, mut driver, mut ctrl, qid) = rig(64);
    bus.install_faults(FaultConfig {
        drop_doorbell: 1.0,
        ..FaultConfig::disabled()
    });
    let cmd = write_cmd(0, vec![0x44; 64]);
    let err = driver
        .execute(qid, &mut ctrl, &cmd, TransferMethod::ByteExpress)
        .unwrap_err();
    match err {
        DriverError::Timeout { ctx, attempts, .. } => {
            assert_eq!(ctx.qid, qid);
            assert_eq!(ctx.opcode, IoOpcode::Write as u8);
            assert_eq!(attempts, 1);
        }
        other => panic!("expected Timeout, got {other}"),
    }
    // Nothing reaps without a policy: the command stays tracked, and once a
    // doorbell does get through its completion is consumed normally.
    assert_eq!(driver.inflight_len(qid), 1);
    bus.install_faults(FaultConfig::disabled());
    let next = driver
        .execute(qid, &mut ctrl, &cmd, TransferMethod::ByteExpress)
        .unwrap();
    assert!(next.status.is_success());
    assert_eq!(driver.inflight_len(qid), 0);
}
