//! The completion-driven async reactor: multi-shard correctness,
//! backpressure, byte-interface routing through the dispatcher, power-cut
//! surfacing, and determinism.

use bx_driver::reactor::{Reactor, ReactorConfig};
use bx_driver::{Completion, DriverError, FlushPolicy, NvmeDriver, RetryPolicy, TransferMethod};
use bx_hostsim::{FaultConfig, Nanos};
use bx_nvme::{IoOpcode, PassthruCmd};
use bx_pcie::LinkConfig;
use bx_ssd::{BlockFirmware, Controller, ControllerConfig, ExecutionModel, NandConfig, SystemBus};
use std::future::Future;
use std::pin::Pin;

mod common;
use common::execute;

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

type Task<T> = Pin<Box<dyn Future<Output = T>>>;

/// Many clients across 4 shards, each writing then reading back its own
/// payloads: every command completes successfully on its own shard, data
/// round-trips, and nothing is orphaned or reaped.
#[test]
fn multi_shard_clients_round_trip() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 4,
        nand_io: true,
        execution_model: ExecutionModel::Pipelined,
        retry_policy: Some(RetryPolicy::default()),
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    const CLIENTS_PER_SHARD: usize = 4;
    const WRITES_PER_CLIENT: u64 = 8;
    let mut tasks: Vec<Task<Result<(), String>>> = Vec::new();
    for shard in 0..reactor.shard_count() {
        for client in 0..CLIENTS_PER_SHARD {
            let handle = reactor.handle(shard);
            tasks.push(Box::pin(async move {
                for i in 0..WRITES_PER_CLIENT {
                    // Unique LBA per (shard, client, i) so read-back is
                    // unambiguous.
                    let lba = ((shard as u64 * CLIENTS_PER_SHARD as u64 + client as u64)
                        * WRITES_PER_CLIENT
                        + i)
                        * 8;
                    let fill = (shard as u8) << 4 | (client as u8) ^ (i as u8);
                    let data = vec![fill; 64 + i as usize];
                    let c = handle
                        .submit(write_cmd(lba, data.clone()), TransferMethod::ByteExpress)
                        .await
                        .map_err(|e| format!("write: {e:?}"))?;
                    if !c.status.is_success() {
                        return Err(format!("write status {:?}", c.status));
                    }
                    if c.latency() == Nanos::ZERO {
                        return Err("zero latency".into());
                    }
                    let c = handle
                        .submit(read_cmd(lba, data.len()), TransferMethod::Prp)
                        .await
                        .map_err(|e| format!("read: {e:?}"))?;
                    if c.data.as_deref() != Some(&data[..]) {
                        return Err(format!("read-back mismatch at lba {lba}"));
                    }
                }
                Ok(())
            }));
        }
    }
    let results = reactor.run(tasks);
    for r in &results {
        assert_eq!(*r, Ok(()));
    }
    let stats = reactor.stats();
    let expected = 4 * CLIENTS_PER_SHARD as u64 * WRITES_PER_CLIENT * 2;
    assert_eq!(stats.submitted, expected);
    assert_eq!(stats.completed, expected);
    assert_eq!(stats.orphaned, 0, "every completion must find its waiter");
    let rec = reactor.recovery_stats();
    assert_eq!(rec.timeouts, 0);
    assert_eq!(reactor.inflight(), 0);
}

/// More concurrent futures than the queue has slots: backpressure parks
/// them (Poll::Pending, not an error) and every one eventually completes.
#[test]
fn backpressure_parks_and_releases() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 1,
        queue_depth: 8,
        // One doorbell per submission: the SQ genuinely fills.
        flush_policy: None,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    // Queue depth 8 leaves 7 usable slots; ByteExpress trains take extra
    // slots, so 32 concurrent single-slot PRP writes overcommit heavily.
    let mut tasks: Vec<Task<Result<Completion, DriverError>>> = Vec::new();
    for i in 0..32u64 {
        let handle = reactor.handle(0);
        tasks.push(Box::pin(async move {
            handle
                .submit(write_cmd(i * 8, vec![i as u8; 64]), TransferMethod::Prp)
                .await
        }));
    }
    let results = reactor.run(tasks);
    assert_eq!(results.len(), 32);
    for r in results {
        let c = r.expect("backpressured write must eventually submit");
        assert!(c.status.is_success());
    }
    assert_eq!(reactor.stats().orphaned, 0);
}

/// Byte-interface commands through the reactor: the dispatcher routes each
/// BAR status word to the shard that submitted it — the cross-queue
/// misrouting this PR fixed would surface here as orphans on one shard and
/// timeouts on another.
#[test]
fn mmio_byte_routes_through_dispatcher() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 3,
        retry_policy: Some(RetryPolicy::default()),
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let mut tasks: Vec<Task<Result<Completion, DriverError>>> = Vec::new();
    for shard in 0..reactor.shard_count() {
        for i in 0..6u64 {
            let handle = reactor.handle(shard);
            tasks.push(Box::pin(async move {
                handle
                    .submit(
                        write_cmd(i * 8, vec![shard as u8; 72]),
                        TransferMethod::MmioByte,
                    )
                    .await
            }));
        }
    }
    let results = reactor.run(tasks);
    for r in results {
        let c = r.expect("byte-interface write must complete");
        assert!(c.status.is_success());
        assert!(c.latency().as_ns() > 0);
    }
    let stats = reactor.stats();
    assert_eq!(
        stats.orphaned, 0,
        "no status word may land on a foreign shard"
    );
    let rec = reactor.recovery_stats();
    assert_eq!(rec.timeouts, 0);
    assert_eq!(reactor.inflight(), 0);
}

/// The reactor earns its keep: 32 client futures on 4 shards finish 256
/// NAND-backed ByteExpress writes in at most two thirds of the virtual time
/// the synchronous QD-1 submit-and-wait loop needs for the same writes on an
/// identical single-queue platform — ≥ 1.5× the IOPS (measured ≈ 24×: QD 1
/// serializes every NAND program, concurrent futures overlap the dies).
#[test]
fn async_window_beats_sync_qd1() {
    const CLIENTS: u64 = 32;
    const PER_CLIENT: u64 = 8;
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 4,
        nand_io: true,
        retry_policy: Some(RetryPolicy::default()),
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let mut tasks: Vec<Task<Result<(), DriverError>>> = Vec::new();
    for client in 0..CLIENTS {
        let handle = reactor.handle(client as usize % 4);
        tasks.push(Box::pin(async move {
            for i in 0..PER_CLIENT {
                let cmd = write_cmd((client * PER_CLIENT + i) * 8, vec![client as u8; 64]);
                let c = handle.submit(cmd, TransferMethod::ByteExpress).await?;
                assert!(c.status.is_success());
            }
            Ok(())
        }));
    }
    for r in reactor.run(tasks) {
        r.expect("async write");
    }
    let async_ns = reactor.bus().clock.now().as_ns();

    let bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 2);
    let cfg = ControllerConfig {
        nand: NandConfig::small(),
        execution_model: ExecutionModel::Pipelined,
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, true))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qid = driver.initialize(&mut ctrl, &[256]).unwrap()[0];
    for i in 0..CLIENTS * PER_CLIENT {
        let cmd = write_cmd(i * 8, vec![i as u8; 64]);
        let c = execute(
            &mut driver,
            qid,
            &mut ctrl,
            &cmd,
            TransferMethod::ByteExpress,
        )
        .expect("sync write");
        assert!(c.status.is_success());
    }
    let sync_ns = bus.clock.now().as_ns();
    assert!(
        async_ns * 3 <= sync_ns * 2,
        "async window must reach 1.5x sync QD1 IOPS: async={async_ns}ns sync={sync_ns}ns"
    );
}

/// A command submitted to a dark device: with a retry policy installed the
/// future resolves with the reaper's synthetic aborted completion instead
/// of hanging the executor (idle advancement carries the clock to the
/// deadline).
#[test]
fn dark_device_command_surfaces_as_aborted_completion() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 1,
        retry_policy: Some(RetryPolicy::default()),
        flush_policy: None,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    reactor.controller().borrow_mut().force_power_cut();
    let handle = reactor.handle(0);
    let task: Task<Result<Completion, DriverError>> = Box::pin(async move {
        handle
            .submit(write_cmd(0, vec![1; 64]), TransferMethod::Prp)
            .await
    });
    let results = reactor.run(vec![task]);
    let c = results
        .into_iter()
        .next()
        .unwrap()
        .expect("resolves, not hangs");
    assert!(
        !c.status.is_success(),
        "a never-delivered command must resolve aborted, got {:?}",
        c.status
    );
    let stats = reactor.stats();
    assert!(
        stats.idle_advances > 0,
        "the stall is broken by idle advancement"
    );
    assert!(reactor.recovery_stats().timeouts > 0);
}

/// Zero shards is a configuration error, reported as one rather than
/// quietly built as a single shard.
#[test]
fn zero_shards_is_an_error() {
    let built = Reactor::new(ReactorConfig {
        shards: 0,
        ..ReactorConfig::default()
    });
    assert!(matches!(built, Err(DriverError::Unsupported(_))));
}

/// A power cut with no retry policy: the commands in flight have no
/// deadline and the dark device will never complete them, so each resolves
/// as `DriverError::Timeout` — what the synchronous wait returns there —
/// instead of the clock idle-advancing forever. Their pages stay with the
/// driver until a reset.
#[test]
fn dark_device_without_a_retry_policy_times_out() {
    let mut reactor = Reactor::new(ReactorConfig::default()).expect("reactor construction");
    reactor.bus().install_faults(FaultConfig {
        power_cut_after_events: Some(3),
    });
    let tasks: Vec<Task<Result<Completion, DriverError>>> = (0..4u64)
        .map(|i| {
            let handle = reactor.handle(i as usize % reactor.shard_count());
            let cmd = write_cmd(i * 8, vec![i as u8; 64]);
            Box::pin(async move { handle.submit(cmd, TransferMethod::ByteExpress).await }) as _
        })
        .collect();
    let results = reactor.run(tasks);
    assert!(
        reactor.controller().borrow().is_powered_off(),
        "the cut fired"
    );
    let timed_out = results
        .iter()
        .filter(|r| matches!(r, Err(DriverError::Timeout { .. })))
        .count();
    assert!(timed_out > 0, "{results:?}");
    for r in &results {
        match r {
            Ok(c) => assert!(c.status.is_success(), "{c:?}"),
            Err(e) => assert!(matches!(e, DriverError::Timeout { .. }), "{e}"),
        }
    }
    assert_eq!(reactor.inflight(), timed_out, "kept until a reset");
    assert_eq!(reactor.recovery_stats().timeouts, 0, "nothing was reaped");
}

/// A task awaiting something the reactor does not drive can never be
/// woken: `run` takes its deadlock panic instead of spinning.
#[test]
#[should_panic(expected = "reactor deadlock")]
fn a_task_the_reactor_does_not_drive_is_a_deadlock() {
    let mut reactor = Reactor::new(ReactorConfig::default()).expect("reactor construction");
    let task: Task<()> = Box::pin(std::future::pending());
    reactor.run(vec![task]);
}

/// Virtual time is deterministic: two identical multi-shard runs finish at
/// the same virtual instant with identical counters.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut reactor = Reactor::new(ReactorConfig {
            shards: 4,
            execution_model: ExecutionModel::Pipelined,
            flush_policy: Some(FlushPolicy::default()),
            ..ReactorConfig::default()
        })
        .expect("reactor construction");
        let mut tasks: Vec<Task<Result<Completion, DriverError>>> = Vec::new();
        for shard in 0..reactor.shard_count() {
            for i in 0..10u64 {
                let handle = reactor.handle(shard);
                let method = if i % 3 == 0 {
                    TransferMethod::Prp
                } else {
                    TransferMethod::ByteExpress
                };
                tasks.push(Box::pin(async move {
                    handle
                        .submit(write_cmd(i * 8, vec![i as u8; 100]), method)
                        .await
                }));
            }
        }
        let results = reactor.run(tasks);
        for r in results {
            assert!(r.unwrap().status.is_success());
        }
        (
            reactor.bus().clock.now(),
            reactor.stats(),
            reactor.driver_stats(),
            reactor.bus().traffic().total_bytes(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "final virtual clock must match");
    assert_eq!(a.1, b.1, "reactor counters must match");
    assert_eq!(a.2, b.2, "driver counters must match");
    assert_eq!(a.3, b.3, "wire traffic must match");
}

/// The reactor emits its own trace events: dispatch sweeps appear under the
/// `reactor` layer with per-shard completion counts.
#[test]
fn dispatch_events_are_traced() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 2,
        trace: true,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let mut tasks: Vec<Task<Result<Completion, DriverError>>> = Vec::new();
    for shard in 0..2 {
        let handle = reactor.handle(shard);
        tasks.push(Box::pin(async move {
            handle
                .submit(write_cmd(0, vec![5; 64]), TransferMethod::ByteExpress)
                .await
        }));
    }
    for r in reactor.run(tasks) {
        assert!(r.unwrap().status.is_success());
    }
    let events = reactor.trace().events();
    let dispatches: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, bx_trace::EventKind::ReactorDispatch { .. }))
        .collect();
    assert!(!dispatches.is_empty(), "dispatch sweeps must be recorded");
    assert!(dispatches.iter().all(|e| e.kind.layer() == "reactor"));
    let total: u64 = dispatches
        .iter()
        .map(|e| match e.kind {
            bx_trace::EventKind::ReactorDispatch { completions, .. } => completions as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(total, 2, "one dispatched completion per client");
}

/// A shard is an admin-created queue pair: bring-up is one Identify plus a
/// Create-IO-CQ/SQ pair per shard on the one admin queue, and everything a
/// shard's handle submits lands on that shard's one qid.
#[test]
fn a_shard_is_an_admin_created_queue_pair() {
    const SHARDS: usize = 4;
    let mut reactor = Reactor::new(ReactorConfig {
        shards: SHARDS,
        trace: true,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let admin_commands = reactor.controller().borrow().stats().admin_commands;
    assert_eq!(admin_commands, 1 + 2 * SHARDS as u64);

    for shard in 0..SHARDS {
        let seen = reactor.trace().events().len();
        let tasks: Vec<Task<Result<Completion, DriverError>>> = (0..3u64)
            .map(|i| {
                let handle = reactor.handle(shard);
                let cmd = write_cmd(i * 8, vec![shard as u8; 64]);
                Box::pin(async move { handle.submit(cmd, TransferMethod::ByteExpress).await }) as _
            })
            .collect();
        for done in reactor.run(tasks) {
            assert!(done.unwrap().status.is_success());
        }
        let inserted: Vec<u16> = reactor.trace().events()[seen..]
            .iter()
            .filter(|e| matches!(e.kind, bx_trace::EventKind::SqeInsert { .. }))
            .filter_map(|e| e.cmd.map(|key| key.qid))
            .collect();
        assert_eq!(inserted, [shard as u16 + 1; 3], "shard {shard}");
    }
}

/// One shard carries more clients at once than a fresh cid index has
/// entries (64), so the index its waiters and its commands share must
/// widen, and more commands than there are cids, so the cids wrap. Every
/// completion still reaches the future that submitted it: each write
/// succeeds with a nonzero latency, the last write to every LBA reads back,
/// and nothing is left orphaned or in flight.
#[test]
fn one_shard_widens_its_cid_index_and_wraps_its_cids() {
    use std::cell::Cell;
    use std::rc::Rc;

    const CLIENTS: u64 = 96;
    const PER_CLIENT: u64 = 700;
    const WINDOW: u64 = 8;
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 1,
        nand_io: true,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let lba = |client: u64, i: u64| (client * WINDOW + i % WINDOW) * 8;
    let payload = |client: u64, i: u64| {
        let mut data = vec![client as u8; 64];
        data[..8].copy_from_slice(&i.to_le_bytes());
        data
    };
    // Commands submitted and not yet resolved, across every client.
    let (open, peak) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
    let tasks: Vec<Task<Result<(), String>>> = (0..CLIENTS)
        .map(|client| {
            let handle = reactor.handle(0);
            let (open, peak) = (Rc::clone(&open), Rc::clone(&peak));
            Box::pin(async move {
                for i in 0..PER_CLIENT {
                    let write = handle.submit(
                        write_cmd(lba(client, i), payload(client, i)),
                        TransferMethod::ByteExpress,
                    );
                    open.set(open.get() + 1);
                    peak.set(peak.get().max(open.get()));
                    let c = write.await.map_err(|e| format!("write: {e:?}"))?;
                    open.set(open.get() - 1);
                    if !c.status.is_success() || c.latency() == Nanos::ZERO {
                        return Err(format!("client {client} write {i}: {c:?}"));
                    }
                }
                Ok(())
            }) as _
        })
        .collect();
    for r in reactor.run(tasks) {
        assert_eq!(r, Ok(()));
    }
    assert_eq!(
        peak.get(),
        CLIENTS,
        "every client had a command in flight at once"
    );

    let reads: Vec<Task<Result<(), String>>> = (0..CLIENTS)
        .map(|client| {
            let handle = reactor.handle(0);
            Box::pin(async move {
                for i in PER_CLIENT - WINDOW..PER_CLIENT {
                    let c = handle
                        .submit(read_cmd(lba(client, i), 64), TransferMethod::Prp)
                        .await
                        .map_err(|e| format!("read: {e:?}"))?;
                    if c.data != Some(payload(client, i)) {
                        return Err(format!("client {client}: write {i} did not read back"));
                    }
                }
                Ok(())
            }) as _
        })
        .collect();
    for r in reactor.run(reads) {
        assert_eq!(r, Ok(()));
    }
    let stats = reactor.stats();
    let expected = CLIENTS * (PER_CLIENT + WINDOW);
    assert!(expected > 1 << 16, "the cids wrapped");
    assert_eq!((stats.submitted, stats.completed), (expected, expected));
    assert_eq!(stats.orphaned, 0);
    assert_eq!(reactor.inflight(), 0);
}
