//! Entry-point census: every public entry point of the driver and the
//! controller, driven across the configuration product with tracing on.
//! The platform is one cell borrowed at the entry points
//! (`bx_ssd::bus`); a path that nested two borrows would panic here, in
//! whichever cell of the product reaches it.

use byteexpress::{
    Completion, Device, DeviceError, ExecutionModel, FetchPolicy, IoOpcode, PassthruCmd, QueueId,
    Reactor, ReactorConfig, RetryPolicy, Status, TransferMethod,
};
use std::future::Future;
use std::pin::Pin;

const METHODS: [TransferMethod; 6] = [
    TransferMethod::Prp,
    TransferMethod::Sgl,
    TransferMethod::BandSlim { embed_first: true },
    TransferMethod::ByteExpress,
    TransferMethod::Hybrid { threshold: 256 },
    TransferMethod::MmioByte,
];

/// One chunk, one page, and a PRP list. The longest train is BandSlim's 188
/// commands; the ring holds two.
const SIZES: [usize; 3] = [64, 1000, 9000];
const DEPTH: u16 = 512;

fn payload(lba: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (lba as usize * 31 + i) as u8).collect()
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

type Task = Pin<Box<dyn Future<Output = Result<(), String>>>>;

/// One cell of the product. Fetch policy, execution model and NAND I/O are
/// fixed when a device is built; the rest is set per cell on that
/// device, so the product costs eight builds and eight power cycles, not
/// 192 — and each cell runs on a device with a history (the queues and
/// mapped pages the cells before it left), which a fresh device per cell
/// would not have.
#[derive(Debug, Clone, Copy)]
struct Cell {
    fetch: FetchPolicy,
    model: ExecutionModel,
    /// NAND I/O on: bytes are stored and read back. Off is transfer-cost
    /// mode, which stores nothing.
    nand: bool,
    method: TransferMethod,
    /// Doorbell staging on: `submit` leaves its tail for `flush_sq`.
    staged: bool,
    /// Retry policy on: every command carries a deadline, which on a live
    /// device never reaps it.
    deadline: bool,
}

impl Cell {
    fn build(&self) -> Device {
        Device::builder()
            .nand_io(self.nand)
            .queue_count(2)
            .queue_depth(DEPTH)
            .fetch_policy(self.fetch)
            .execution_model(self.model)
            .trace(true)
            .build()
    }

    /// A completion is a success.
    fn check(&self, what: &str, done: Result<Completion, DeviceError>) {
        match done {
            Ok(c) => assert_eq!(c.status, Status::Success, "{what} in {self:?}"),
            Err(e) => panic!("{what} in {self:?}: {e}"),
        }
    }

    fn run(&self, dev: &mut Device, seed: u64) {
        let driver = dev.driver_mut();
        driver.set_staged(self.staged);
        driver.set_retry_policy(self.deadline.then(RetryPolicy::default));
        let (q0, q1) = (dev.queues()[0], dev.queues()[1]);

        // `Device::write` (submit, `flush_sq`, `wait_for`): writes at three
        // sizes, read back where stored.
        for (i, len) in SIZES.into_iter().enumerate() {
            let lba = i as u64 * 8;
            let data = payload(lba + seed, len);
            self.check("write", dev.write(lba, &data, self.method));
            if self.nand {
                assert_eq!(dev.read(lba, len).unwrap(), data, "{self:?}");
            }
        }

        // A `submit` loop and one `flush_sq` per queue, then `wait_for`,
        // across both queues.
        let batch = |q: QueueId| (q, (0..4).map(|i| (40 + i, payload(i, 200))).collect());
        match dev.write_batch(&[batch(q0), batch(q1)], self.method) {
            Ok(done) => assert_eq!(done.iter().map(Vec::len).sum::<usize>(), 8),
            Err(e) => panic!("batch in {self:?}: {e}"),
        }

        // The calls a caller pumps by hand (and the reactor makes).
        let cmd = write_cmd(80, payload(80, 300));
        let mut polled = Vec::new();
        dev.driver_mut().submit(q1, &cmd, self.method).unwrap();
        dev.driver_mut().flush_sq(q1).unwrap();
        dev.controller_mut().process_available();
        dev.driver_mut()
            .poll_completions_into(q1, &mut polled)
            .unwrap();
        assert!(polled.iter().all(|c| c.status.is_success()), "{self:?}");
        assert_eq!(dev.driver_mut().inflight_len(q1), 0, "{self:?}");
    }

    /// A cut with a command of every method in flight, then the full
    /// bring-up; what was acked before the cut is still there.
    fn cut_and_cycle(&self, dev: &mut Device) {
        dev.driver_mut().set_staged(false);
        dev.driver_mut().set_retry_policy(None);
        let acked = payload(5, SIZES[2]);
        self.check("write", dev.write(24, &acked, TransferMethod::ByteExpress));
        let q0 = dev.queues()[0];
        for method in METHODS {
            let cmd = write_cmd(80, payload(80, 300));
            dev.driver_mut().submit(q0, &cmd, method).unwrap();
        }
        dev.force_power_cut();
        dev.power_cycle().unwrap();
        let data = payload(3, SIZES[1]);
        let wrote = dev.write(3, &data, TransferMethod::ByteExpress);
        self.check("write after the cycle", wrote);
        if self.nand {
            assert_eq!(dev.read(3, data.len()).unwrap(), data, "{self:?}");
            assert_eq!(dev.read(24, acked.len()).unwrap(), acked, "{self:?}");
        }
    }
}

#[test]
fn every_entry_point_across_the_configuration_product() {
    let mut seed = 0;
    for fetch in [FetchPolicy::QueueLocal, FetchPolicy::Reassembly] {
        for model in [ExecutionModel::Serial, ExecutionModel::Pipelined] {
            for nand in [true, false] {
                let mut cell = Cell {
                    fetch,
                    model,
                    nand,
                    method: METHODS[0],
                    staged: false,
                    deadline: false,
                };
                let mut dev = cell.build();
                dev.reset_measurements();
                for method in METHODS {
                    for (staged, deadline) in
                        [(false, false), (true, false), (false, true), (true, true)]
                    {
                        (cell.method, cell.staged, cell.deadline) = (method, staged, deadline);
                        seed += 1;
                        cell.run(&mut dev, seed);
                    }
                }
                cell.cut_and_cycle(&mut dev);
                assert!(dev.traffic().total_bytes() > 0);
                assert!(!dev.trace_events().is_empty());
            }
        }
    }
}

/// The same entry points as the reactor reaches them: two shards, each a
/// queue pair of the one driver, driver and controller each behind a cell.
#[test]
fn two_shard_reactor_run() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: 2,
        nand_io: true,
        retry_policy: Some(RetryPolicy::default()),
        trace: true,
        ..ReactorConfig::default()
    })
    .expect("reactor construction");
    let mut tasks: Vec<Task> = Vec::new();
    for shard in 0..reactor.shard_count() {
        for (client, method) in METHODS.into_iter().enumerate() {
            let handle = reactor.handle(shard);
            tasks.push(Box::pin(async move {
                let lba = (shard * METHODS.len() + client) as u64 * 8;
                let data = payload(lba, 64 + 100 * client);
                let wrote = handle.submit(write_cmd(lba, data.clone()), method).await;
                let wrote = wrote.map_err(|e| format!("write: {e}"))?;
                if !wrote.status.is_success() {
                    return Err(format!("write status {}", wrote.status));
                }
                let read = handle.submit(read_cmd(lba, data.len()), TransferMethod::Prp);
                let read = read.await.map_err(|e| format!("read: {e}"))?;
                if read.data.as_deref() != Some(&data[..]) {
                    return Err(format!("read-back mismatch at lba {lba}"));
                }
                Ok(())
            }));
        }
    }
    for done in reactor.run(tasks) {
        assert_eq!(done, Ok(()));
    }
    assert_eq!(reactor.inflight(), 0);
    assert_eq!(reactor.stats().orphaned, 0);
    assert!(reactor.bus().traffic().total_bytes() > 0);
    assert!(!reactor.trace().events().is_empty());
}
