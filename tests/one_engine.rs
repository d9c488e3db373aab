//! `Device::write_batch` and `Device::write` share one submit-and-wait
//! engine (DESIGN.md §15), so they agree where the old hand-written loops
//! had drifted apart: a zero poll interval cannot hang a batch, a rejected
//! queue does not strand the queues rung before it, and a completion lost
//! to a power cut without a retry policy is an error rather than a panic.
//! A batch leaves the driver's staging setting as it found it.

use byteexpress::driver::DriverError;
use byteexpress::nvme::inline::MAX_INLINE_LEN;
use byteexpress::{
    Device, DeviceBuilder, DeviceError, IoOpcode, Nanos, PassthruCmd, QueueId, Reactor,
    ReactorConfig, RetryPolicy, Status, TransferMethod,
};

fn items(n: u64) -> Vec<(u64, Vec<u8>)> {
    (0..n).map(|i| (i * 8, vec![i as u8; 64])).collect()
}

#[test]
fn zero_poll_interval_batch_times_out_instead_of_hanging() {
    let timeout = Nanos::from_us(50);
    let mut dev = DeviceBuilder::new()
        .nand_io(false)
        .retry_policy(RetryPolicy {
            timeout,
            poll_interval: Nanos::ZERO,
        })
        .build();
    dev.force_power_cut();
    let q = dev.queues()[0];
    let t0 = dev.now();
    let err = dev
        .write_batch(&[(q, items(4))], TransferMethod::ByteExpress)
        .unwrap_err();
    // Every command was reaped at its deadline, one clamped poll step at a
    // time — the same rule `Device::write` waits by.
    assert_eq!(err, DeviceError::Command(Status::CommandAborted));
    assert!(
        dev.now() - t0 < timeout + timeout,
        "waited {}",
        dev.now() - t0
    );
    assert_eq!(dev.recovery_stats().timeouts, 4);
    assert_eq!(dev.driver_mut().inflight_len(q), 0);
}

#[test]
fn rejected_queue_does_not_strand_the_queues_before_it() {
    let mut dev = Device::builder().nand_io(false).queue_count(2).build();
    let (first, second) = (dev.queues()[0], dev.queues()[1]);
    let oversized = vec![(0u64, vec![0u8; MAX_INLINE_LEN + 1])];
    let completed_before = dev.controller().stats().commands_completed;
    let err = dev
        .write_batch(
            &[(first, items(4)), (second, oversized)],
            TransferMethod::ByteExpress,
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            DeviceError::Driver(DriverError::PayloadTooLarge { .. })
        ),
        "{err}"
    );
    // The first queue was already rung: its commands ran and were reaped
    // before the error came back.
    assert_eq!(dev.driver_mut().inflight_len(first), 0);
    assert_eq!(dev.driver_mut().inflight_len(second), 0);
    assert_eq!(
        dev.controller().stats().commands_completed - completed_before,
        4
    );
}

#[test]
fn lost_completion_without_policy_is_an_error_not_a_panic() {
    let mut dev = Device::builder().nand_io(false).build();
    dev.force_power_cut();
    let q = dev.queues()[0];
    let lost = |r: Result<(), DeviceError>| match r {
        Err(DeviceError::Driver(DriverError::Timeout { .. })) => {}
        other => panic!("expected a Timeout, got {other:?}"),
    };
    lost(
        dev.write(0, &[0xAB; 64], TransferMethod::ByteExpress)
            .map(|_| ()),
    );
    lost(
        dev.write_batch(&[(q, items(3))], TransferMethod::Prp)
            .map(|_| ()),
    );
}

/// A write whose doorbell is still staged when its deadline passes, on a
/// live device: the reaper leaves it alone — the device will still fetch
/// it, and its pages with it — so once a later write rings the doorbell
/// both complete and both LBAs read back their own bytes. A reaper that
/// freed the first write's page at the deadline would let the second
/// write's payload land in it, and LBA 0 would read back those bytes.
#[test]
fn a_staged_command_past_its_deadline_on_a_live_device_is_not_reaped() {
    for method in [TransferMethod::Prp, TransferMethod::Sgl] {
        let mut dev = Device::builder()
            .retry_policy(RetryPolicy {
                timeout: Nanos::from_us(5),
                ..RetryPolicy::default()
            })
            .build();
        dev.driver_mut().set_staged(true);
        let q = dev.queues()[0];
        let block = |lba: u64, fill: u8| {
            let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, vec![fill; 4096]);
            cmd.cdw10_15[0] = lba as u32;
            cmd
        };
        let (a, b) = (block(0, 0xA1), block(1, 0xB2));

        let mut out = Vec::new();
        dev.driver_mut().submit(q, &a, method).unwrap();
        for _ in 0..10 {
            dev.bus().clock.advance(Nanos::from_us(1));
            dev.controller_mut().process_available();
            dev.driver_mut().poll_completions_into(q, &mut out).unwrap();
        }
        dev.driver_mut().submit(q, &b, method).unwrap();
        dev.driver_mut().flush_sq(q).unwrap();
        dev.controller_mut().process_available();
        dev.driver_mut().poll_completions_into(q, &mut out).unwrap();

        assert_eq!(dev.read(0, 4096).unwrap(), a.data, "{method:?}: LBA 0");
        assert_eq!(dev.read(1, 4096).unwrap(), b.data, "{method:?}: LBA 1");
        let statuses: Vec<Status> = out.iter().map(|c| c.status).collect();
        assert_eq!(statuses, [Status::Success; 2], "{method:?}");
        assert_eq!(dev.recovery_stats().timeouts, 0, "{method:?}");
    }
}

/// Leaves a three-page PRP write (data pages plus a list page) and a read
/// (a response page) in flight on `q`: submitted, never processed.
fn strand_commands(dev: &mut Device, q: QueueId) {
    let write = PassthruCmd::to_device(IoOpcode::Write, 1, vec![0x3C; 3 * 4096]);
    let read = PassthruCmd::from_device(IoOpcode::Read, 1, 4096);
    for cmd in [&write, &read] {
        dev.driver_mut()
            .submit(q, cmd, TransferMethod::Prp)
            .expect("submit");
    }
}

#[test]
fn power_cycles_return_every_host_page() {
    let free_pages = |dev: &Device| dev.bus().platform().borrow().mem.allocator().free_pages();
    let mut dev = Device::builder().queue_count(2).queue_depth(64).build();
    let idle = free_pages(&dev);

    // Rings and the pages of commands in flight at the cut come back.
    let q = dev.queues()[0];
    strand_commands(&mut dev, q);
    assert_eq!(free_pages(&dev), idle - 5);
    dev.power_cycle().unwrap();
    assert_eq!(free_pages(&dev), idle, "a power cycle leaked host pages");
    for _ in 0..3 {
        dev.power_cycle().unwrap();
    }
    assert_eq!(free_pages(&dev), idle);

    let data = vec![0xA7; 512];
    dev.write(3, &data, TransferMethod::Prp).unwrap();
    assert_eq!(dev.read(3, data.len()).unwrap(), data);
    assert_eq!(free_pages(&dev), idle);
}

/// One way to make a queue: the reactor brings its stack up with the admin
/// commands `Device` brings up its own with — one Identify, then a
/// Create-IO-CQ/SQ pair per queue.
#[test]
fn reactor_and_device_bring_up_the_same_way() {
    let reactor = Reactor::new(ReactorConfig {
        shards: 4,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let dev = Device::builder().queue_count(4).build();
    let by_reactor = reactor.controller().borrow().stats().admin_commands;
    assert_eq!(by_reactor, 1 + 2 * 4);
    assert_eq!(by_reactor, dev.controller().stats().admin_commands);
}

/// `write_batch` stages each queue's batch whether or not the driver was
/// staging, rings once per queue, and leaves the setting it found in place:
/// after a full batch, and after one a refused member stopped, whether the
/// refusal is `QueueFull` or an oversize `PayloadTooLarge`.
#[test]
fn write_batch_leaves_the_flush_policy_as_it_found_it() {
    let oversized = (0u64, vec![0u8; MAX_INLINE_LEN + 1]);
    for found in [false, true] {
        // Depth 8: seven usable slots, three 64 B ByteExpress writes.
        let mut dev = Device::builder().nand_io(false).queue_depth(8).build();
        let q = dev.queues()[0];
        let batch = |dev: &mut Device, writes: Vec<(u64, Vec<u8>)>| {
            dev.driver_mut().set_staged(found);
            let before = dev.driver_mut().stats();
            let done = dev.write_batch(&[(q, writes)], TransferMethod::ByteExpress);
            let after = dev.driver_mut().stats();
            assert_eq!(dev.driver_mut().set_staged(false), found);
            assert_eq!(dev.driver_mut().inflight_len(q), 0);
            (done, after.batch_flushes - before.batch_flushes)
        };
        // Full: three writes, rung once by the final flush.
        let (done, flushes) = batch(&mut dev, items(3));
        assert_eq!(done.map(|d| d[0].len()), Ok(3), "{found:?}");
        assert_eq!(flushes, 1, "{found:?}");
        // Stopped by `QueueFull`: the fourth write needs two slots, one is
        // free; the three before it still ring and complete.
        let (done, flushes) = batch(&mut dev, items(4));
        let full = DeviceError::Driver(DriverError::QueueFull { needed: 2, free: 1 });
        assert_eq!(done.unwrap_err(), full, "{found:?}");
        assert_eq!(flushes, 1, "{found:?}");
        // Stopped by `PayloadTooLarge` after one write.
        let (done, flushes) = batch(&mut dev, vec![(8, vec![1; 64]), oversized.clone()]);
        assert!(
            matches!(
                done,
                Err(DeviceError::Driver(DriverError::PayloadTooLarge { .. }))
            ),
            "{found:?}: {done:?}"
        );
        assert_eq!(flushes, 1, "{found:?}");
    }
}
