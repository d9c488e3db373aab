//! Async reactor: many concurrent clients over sharded NVMe queues.
//!
//! Builds a 4-shard [`Reactor`] (one driver on one simulated device, each
//! shard owning one of its SQ/CQ pairs), spawns a handful of client futures
//! per shard, and lets each one await a stream of small ByteExpress writes
//! through the command-future API. Completions are routed back to the
//! submitting shard's waiter, found by the cid the device echoes — including the
//! byte-interface BAR status words, which carry their queue id on the wire.
//!
//! For contrast, the same command count then runs through the synchronous
//! QD1 `execute` loop; with pipelined execution the concurrent window
//! finishes at a fraction of the virtual time.
//!
//! Run with: `cargo run --example async_reactor --release`

use byteexpress::driver::reactor::ReactorConfig;
use byteexpress::ssd::ExecutionModel;
use byteexpress::{Completion, DriverError, Reactor, RetryPolicy, TransferMethod};
use byteexpress::{IoOpcode, PassthruCmd};
use std::future::Future;
use std::pin::Pin;

const SHARDS: usize = 4;
const CLIENTS_PER_SHARD: usize = 4;
const WRITES_PER_CLIENT: u64 = 16;
const PAYLOAD: usize = 64;

fn write_cmd(lba: u64) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, vec![0xb5; PAYLOAD]);
    cmd.cdw10_15[0] = lba as u32;
    cmd
}

fn main() {
    let mut reactor = Reactor::new(ReactorConfig {
        shards: SHARDS,
        nand_io: true,
        execution_model: ExecutionModel::Pipelined,
        retry_policy: Some(RetryPolicy::default()),
        ..ReactorConfig::default()
    })
    .expect("reactor construction: config is static and valid");

    type Task = Pin<Box<dyn Future<Output = Result<u64, DriverError>>>>;
    let mut tasks: Vec<Task> = Vec::new();
    for shard in 0..reactor.shard_count() {
        for client in 0..CLIENTS_PER_SHARD {
            let handle = reactor.handle(shard);
            tasks.push(Box::pin(async move {
                let base = (shard * CLIENTS_PER_SHARD + client) as u64 * WRITES_PER_CLIENT;
                let mut latency_ns = 0u64;
                for i in 0..WRITES_PER_CLIENT {
                    let c: Completion = handle
                        .submit(write_cmd((base + i) * 8), TransferMethod::ByteExpress)
                        .await?;
                    assert!(c.status.is_success(), "write failed: {:?}", c.status);
                    latency_ns += c.latency().as_ns();
                }
                Ok(latency_ns / WRITES_PER_CLIENT)
            }));
        }
    }

    let clients = tasks.len();
    let results = reactor.run(tasks);
    let mean_ns: u64 = results
        .iter()
        .map(|r| r.as_ref().expect("client"))
        .sum::<u64>()
        / clients as u64;
    let stats = reactor.stats();
    let async_virt = reactor.bus().clock.now();

    println!(
        "{clients} clients x {WRITES_PER_CLIENT} ByteExpress writes on {SHARDS} shards: \
         {} submitted, {} completed, {} orphaned",
        stats.submitted, stats.completed, stats.orphaned
    );
    println!("  finished at {async_virt} virtual, mean per-command latency {mean_ns} ns");

    // The same command count, one at a time, through the synchronous API.
    let mut dev = byteexpress::Device::builder()
        .execution_model(ExecutionModel::Pipelined)
        .build();
    let total = clients as u64 * WRITES_PER_CLIENT;
    let payload = vec![0xb5u8; PAYLOAD];
    for i in 0..total {
        dev.write(i * 8, &payload, TransferMethod::ByteExpress)
            .expect("sync write");
    }
    let sync_virt = dev.now();
    let speedup = sync_virt.as_ns() as f64 / async_virt.as_ns().max(1) as f64;
    println!("\nsync QD1 on one queue finished the same {total} writes at {sync_virt} virtual");
    println!("concurrent window speedup: {speedup:.1}x");
}
