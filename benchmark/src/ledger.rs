//! The isolated ledger (`[L]`): each layer's public entry point called in a
//! tight loop on its own, median of five batches, ns per call — and the
//! reconciliation of those figures against one end-to-end number.

use crate::adapter::{ledger_items, BlockDev, Method, StageExtractor};
use crate::harness::{RefKernel, REF_NOMINAL_NS};
use crate::metrics::{median, Metric};
use crate::workloads::fig5_qd1::byteexpress_64b_loop;
use std::time::Instant;

const BATCHES: u64 = 5;

/// Median ns per call of `run` over [`BATCHES`] batches of `calls / BATCHES`
/// calls, after one untimed warm-up batch. Each batch is bracketed by
/// reference readings and scaled to the reference clock, like every other
/// host time here.
fn time_item(calls: u64, run: &mut dyn FnMut(u64)) -> f64 {
    const READS: usize = 8;
    let mut kernel = RefKernel::new();
    let per_batch = (calls / BATCHES).max(1);
    run(per_batch);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let before = kernel.read(READS);
            let t = Instant::now();
            run(per_batch);
            let ns = t.elapsed().as_nanos() as f64 / per_batch as f64;
            ns * REF_NOMINAL_NS / ((before + kernel.read(READS)) / 2.0)
        })
        .collect();
    median(&samples)
}

/// Recorder events per 64 B ByteExpress write: how many `emit` call sites
/// one op passes through, enabled or not.
fn events_per_byteexpress_64b_op() -> f64 {
    const OPS: u64 = 1024;
    let mut dev = BlockDev::build(false, true);
    for i in 0..OPS {
        dev.write(i % 512 * 8, &[0xA5; 64], Method::ByteExpress)
            .expect("ledger write");
    }
    let mut stages = StageExtractor::new();
    dev.drain_events(&mut stages);
    stages.events as f64 / OPS as f64
}

/// Every `[L]` metric, then `ledger.glue_ns`.
pub fn run() -> Vec<Metric> {
    let mut out: Vec<Metric> = ledger_items()
        .into_iter()
        .map(|mut item| {
            let ns = time_item(item.calls, &mut *item.run);
            let value = if item.unit == "ms" { ns / 1e6 } else { ns };
            Metric::new(item.name, value, item.unit)
        })
        .collect();
    let ns_of = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);

    // The end-to-end figure: a 64 B ByteExpress QD-1 write through
    // `Device::write`, and what the public counters say one such op does.
    const CALLS: u64 = 1_000_000;
    let (mut run_loop, counters) = byteexpress_64b_loop();
    let measured = time_item(CALLS, &mut run_loop);
    let ops = (CALLS / BATCHES * (BATCHES + 1)) as f64;
    let c = counters();
    let per_op = |n: u64| n as f64 / ops;
    let fetched = per_op(c.ctrl_sqes + c.ctrl_chunks);
    let placed = per_op(c.drv_submissions + c.drv_chunks);
    let completed = per_op(c.ctrl_completed);
    let explained = ns_of("nvme.sqe.encode_ns") * per_op(c.drv_submissions)
        + ns_of("nvme.sqe.decode_ns") * per_op(c.ctrl_sqes)
        + ns_of("nvme.cqe.codec_ns") * completed
        + ns_of("nvme.sqring.push_pop_ns") * placed
        // A DMA read is two segmentations inside `device_read`; the posted
        // writes (doorbells, CQE, MSI) are one each.
        + ns_of("pcie.link.device_read64_ns") * fetched
        + ns_of("pcie.tlp.segment_ns") / 3.0 * (per_op(c.link_tlps) - 2.0 * fetched)
        + ns_of("hostsim.mem.write64_ns") * (placed + completed)
        + ns_of("hostsim.mem.read64_ns") * (fetched + completed)
        + ns_of("trace.emit_disabled_ns") * events_per_byteexpress_64b_op();
    out.push(Metric::new(
        "ledger.byteexpress_64b.host_ns_per_op",
        measured,
        "ns",
    ));
    out.push(Metric::new("ledger.explained_ns", explained, "ns"));
    out.push(Metric::new("ledger.glue_ns", measured - explained, "ns"));
    out
}
