//! The timeout→retry→backoff→fallback ladder, one decision point per test:
//! first retry, retry cap, the idempotence guard, degradation trigger, and
//! the re-promotion probe.

use bx_driver::{DriverError, NvmeDriver, RetryPolicy, TransferMethod};
use bx_hostsim::{FaultConfig, FaultInjector, Nanos};
use bx_nvme::{IoOpcode, PassthruCmd, QueueId, Status};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, FetchPolicy, NandConfig, SystemBus};

struct Rig {
    bus: SystemBus,
    driver: NvmeDriver,
    ctrl: Controller,
    qid: QueueId,
}

fn rig(policy: RetryPolicy, reassembly: bool) -> Rig {
    let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let cfg = ControllerConfig {
        // Real NAND I/O so acknowledged writes are durably stored and
        // read-back verification is meaningful.
        nand: NandConfig::small(),
        fetch_policy: if reassembly {
            FetchPolicy::Reassembly
        } else {
            FetchPolicy::QueueLocal
        },
        // Well below the driver timeout, so a stalled train resolves to a
        // DataTransferError CQE before the deadline fires.
        inline_stall_deadline: Nanos::from_us(200),
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, true))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    driver.set_retry_policy(Some(policy));
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

fn policy() -> RetryPolicy {
    RetryPolicy {
        timeout: Nanos::from_ms(2),
        poll_interval: Nanos::from_us(20),
        max_retries: 4,
        backoff_base: Nanos::from_us(50),
        backoff_cap: Nanos::from_us(800),
        fallback_after: 3,
        probe_after: 2,
    }
}

/// Finds a seed whose doorbell-drop draw sequence matches `pattern` at
/// probability `p` — the deterministic way to script "fail exactly once".
fn seed_with_doorbell_pattern(p: f64, pattern: &[bool]) -> u64 {
    'outer: for seed in 0..100_000u64 {
        let mut inj = FaultInjector::new(FaultConfig {
            seed,
            drop_doorbell: p,
            ..FaultConfig::disabled()
        });
        for &want in pattern {
            if inj.drop_doorbell() != want {
                continue 'outer;
            }
        }
        return seed;
    }
    panic!("no seed produces doorbell pattern {pattern:?}");
}

/// Decision point 1 — first retry: a single dropped doorbell costs one
/// timeout and one resubmission, then the command succeeds and the data
/// is durable.
#[test]
fn dropped_doorbell_recovers_on_first_retry() {
    let mut r = rig(policy(), false);
    let seed = seed_with_doorbell_pattern(0.5, &[true, false]);
    r.bus.install_faults(FaultConfig {
        seed,
        drop_doorbell: 0.5,
        ..FaultConfig::disabled()
    });

    let data = vec![0x5A; 256];
    let c = r
        .driver
        .execute(
            r.qid,
            &mut r.ctrl,
            &write_cmd(7, data.clone()),
            TransferMethod::Prp,
        )
        .unwrap();
    assert!(c.status.is_success());

    let rec = r.driver.recovery_stats();
    assert_eq!(rec.timeouts, 1, "one deadline expiry");
    assert_eq!(rec.retries, 1, "one resubmission");
    assert_eq!(rec.retries_exhausted, 0);
    assert_eq!(r.bus.fault_counters().doorbells_dropped, 1);

    // The acknowledged write must be readable after faults stop.
    r.bus.install_faults(FaultConfig::disabled());
    let back = r
        .driver
        .execute(r.qid, &mut r.ctrl, &read_cmd(7, 256), TransferMethod::Prp)
        .unwrap();
    assert_eq!(back.data.unwrap(), data);
}

/// Decision point 2 — the cap: when every attempt times out, the driver
/// stops at `max_retries` and surfaces `Timeout` with full command context
/// instead of hanging or panicking.
#[test]
fn unbroken_timeouts_exhaust_retries_with_context() {
    let p = RetryPolicy {
        max_retries: 2,
        ..policy()
    };
    let mut r = rig(p, false);
    r.bus.install_faults(FaultConfig {
        seed: 42,
        drop_doorbell: 1.0,
        ..FaultConfig::disabled()
    });

    let err = r
        .driver
        .execute(
            r.qid,
            &mut r.ctrl,
            &write_cmd(0, vec![1; 64]),
            TransferMethod::Prp,
        )
        .unwrap_err();
    match err {
        DriverError::Timeout {
            ctx,
            attempts,
            waited,
        } => {
            assert_eq!(ctx.qid, r.qid);
            assert_eq!(ctx.opcode, IoOpcode::Write as u8);
            assert_eq!(attempts, 3, "first attempt + two retries");
            assert!(waited >= Nanos::from_ms(2) * 3);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    let rec = r.driver.recovery_stats();
    assert_eq!(rec.timeouts, 3);
    assert_eq!(rec.retries, 2);
    assert_eq!(rec.retries_exhausted, 1);
}

/// Decision point 3 — the idempotence guard: a timed-out command whose
/// opcode is not safe to repeat is surfaced once (as CommandAborted), never
/// resubmitted.
#[test]
fn non_idempotent_opcode_is_never_retried() {
    let mut r = rig(policy(), false);
    r.bus.install_faults(FaultConfig {
        seed: 42,
        drop_doorbell: 1.0,
        ..FaultConfig::disabled()
    });

    let cmd = PassthruCmd::to_device(IoOpcode::CsdExec, 1, vec![0xEE; 64]);
    let c = r
        .driver
        .execute(r.qid, &mut r.ctrl, &cmd, TransferMethod::Prp)
        .unwrap();
    assert_eq!(c.status, Status::CommandAborted);
    let rec = r.driver.recovery_stats();
    assert_eq!(rec.timeouts, 1);
    assert_eq!(rec.retries, 0, "a CSD task must not be replayed");
}

/// A genuinely failed command with a non-retriable status (DNR semantics)
/// passes through the ladder untouched.
#[test]
fn non_retriable_status_is_not_retried() {
    let mut r = rig(policy(), false);
    // No faults at all: read of an unwritten LBA fails LbaOutOfRange.
    let c = r
        .driver
        .execute(r.qid, &mut r.ctrl, &read_cmd(999, 64), TransferMethod::Prp)
        .unwrap();
    assert_eq!(c.status, Status::LbaOutOfRange);
    assert!(r.driver.recovery_stats().is_quiet());
}

/// Decision points 4 and 5 — degradation and re-promotion: three
/// consecutive ByteExpress failures flip the queue to PRP mid-ladder (the
/// same logical write then succeeds over PRP), and once the fault clears a
/// scheduled probe re-promotes the queue to ByteExpress.
#[test]
fn bx_failures_degrade_then_probe_repromotes() {
    let mut r = rig(policy(), true);
    r.bus.install_faults(FaultConfig {
        seed: 7,
        truncate_train: 1.0,
        ..FaultConfig::disabled()
    });

    // ≥ 2 chunks so truncation applies: 120 B = 3 reassembly chunks.
    let data = vec![0xAB; 120];
    let c = r
        .driver
        .execute(
            r.qid,
            &mut r.ctrl,
            &write_cmd(3, data.clone()),
            TransferMethod::ByteExpress,
        )
        .unwrap();
    assert!(
        c.status.is_success(),
        "the ladder must land the write over PRP"
    );
    assert!(r.driver.is_degraded(r.qid));
    let rec = r.driver.recovery_stats();
    assert_eq!(rec.bx_failures, 3, "fallback_after failures trip the fuse");
    assert_eq!(rec.fallbacks, 1);
    assert!(r.bus.fault_counters().trains_truncated >= 3);

    // Fault clears. probe_after = 2: the first BX request is substituted
    // with PRP, the second goes out as a ByteExpress probe and re-promotes.
    r.bus.install_faults(FaultConfig::disabled());
    for lba in [10, 11] {
        let c = r
            .driver
            .execute(
                r.qid,
                &mut r.ctrl,
                &write_cmd(lba, data.clone()),
                TransferMethod::ByteExpress,
            )
            .unwrap();
        assert!(c.status.is_success());
    }
    assert!(!r.driver.is_degraded(r.qid), "probe success re-promotes");
    let rec = r.driver.recovery_stats();
    assert_eq!(rec.probes, 1);
    assert_eq!(rec.repromotions, 1);

    // Re-promoted queue uses ByteExpress again and data survives it all.
    let chunks_before = r.driver.stats().chunks_written;
    let c = r
        .driver
        .execute(
            r.qid,
            &mut r.ctrl,
            &write_cmd(12, data.clone()),
            TransferMethod::ByteExpress,
        )
        .unwrap();
    assert!(c.status.is_success());
    assert!(r.driver.stats().chunks_written > chunks_before);
    for lba in [3, 10, 11, 12] {
        let back = r
            .driver
            .execute(r.qid, &mut r.ctrl, &read_cmd(lba, 120), TransferMethod::Prp)
            .unwrap();
        assert_eq!(back.data.unwrap(), data, "lba {lba}");
    }
}

/// The ladder is inert without faults: a plain run with a policy installed
/// performs zero recovery actions.
#[test]
fn clean_run_touches_no_recovery_counters() {
    let mut r = rig(policy(), false);
    for lba in 0..8 {
        let c = r
            .driver
            .execute(
                r.qid,
                &mut r.ctrl,
                &write_cmd(lba, vec![lba as u8; 64]),
                TransferMethod::ByteExpress,
            )
            .unwrap();
        assert!(c.status.is_success());
    }
    assert!(r.driver.recovery_stats().is_quiet());
    assert_eq!(r.bus.fault_counters().distinct_classes(), 0);
}
