//! micro — wall-clock microbenchmark baseline for the allocation-free hot
//! paths, emitted as `BENCH_micro.json` and gated in CI via `bx-report
//! --diff` (with a generous tolerance; these are host wall-clock figures,
//! not virtual-time ones).
//!
//! Three windows, all steady-state (warmup excluded from the timed region):
//!
//! * **pipelined window** — 10k ByteExpress writes across 4 queues under
//!   `ExecutionModel::Pipelined`, NAND off, batched at QD 8 per queue. This
//!   is the same loop the counting-allocator test pins as zero-allocation,
//!   so its ops/sec figure tracks the hot path the tentpole optimized.
//! * **submit→complete** — single-command round trips (QD 1), the latency
//!   path.
//! * **reassembly accept** — out-of-order 4-chunk trains through
//!   `ReassemblyEngine::accept_at` with buffer recycling.
//!
//! `cargo run -p bx-bench --release --bin micro [-- ops] [--json]`

use bx_bench::{bench_args, section, JsonReport};
use bx_ssd::ReassemblyEngine;
use byteexpress::{nvme, Device, ExecutionModel, Nanos, QueueBatch, QueueId, TransferMethod};
use serde::Value;
use std::time::Instant;

/// Queues for the pipelined window.
const QUEUES: usize = 4;
/// Commands per queue per `write_batch` round.
const ROUND_QD: usize = 8;

fn window_value(ops: u64, wall_ms: f64, rate_key: &'static str, rate: f64) -> Value {
    Value::object([
        ("ops", Value::U64(ops)),
        ("wall_ms", Value::F64(wall_ms)),
        (rate_key, Value::F64(rate)),
    ])
}

/// 10k-command pipelined steady-state window: rounds of 32 ByteExpress
/// writes (4 queues × QD 8), NAND off. Returns (ops, wall_ms, ops_per_sec).
fn pipelined_window(total_cmds: usize) -> (u64, f64, f64) {
    let mut dev = Device::builder()
        .nand_io(false)
        .queue_count(QUEUES)
        .queue_depth(64)
        .execution_model(ExecutionModel::Pipelined)
        .build();
    let queues: Vec<QueueId> = dev.queues().to_vec();
    let data = vec![0x5Au8; 64];
    let batches: Vec<QueueBatch> = queues
        .iter()
        .map(|&qid| {
            (
                qid,
                (0..ROUND_QD as u64)
                    .map(|i| (i * 8, data.clone()))
                    .collect(),
            )
        })
        .collect();
    let per_round = QUEUES * ROUND_QD;
    let rounds = total_cmds.div_ceil(per_round);

    // Warmup: fill every pool (scratch payload, spare buffers, ring state)
    // so the timed region is the allocation-free steady state.
    for _ in 0..16 {
        dev.write_batch(&batches, TransferMethod::ByteExpress)
            .expect("warmup writes must succeed");
    }

    let t0 = Instant::now();
    for _ in 0..rounds {
        dev.write_batch(&batches, TransferMethod::ByteExpress)
            .expect("pipelined writes must succeed");
    }
    let wall = t0.elapsed();
    let ops = (rounds * per_round) as u64;
    let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    (ops, wall.as_secs_f64() * 1e3, ops as f64 / secs)
}

/// Single-command submit→complete round trips at QD 1, NAND off.
fn submit_complete_window(total_cmds: usize) -> (u64, f64, f64) {
    let mut dev = Device::builder().nand_io(false).build();
    let data = vec![0xA5u8; 64];
    for i in 0..64u64 {
        dev.write(i * 8, &data, TransferMethod::ByteExpress)
            .expect("warmup write must succeed");
    }
    let t0 = Instant::now();
    for i in 0..total_cmds as u64 {
        dev.write((i % 512) * 8, &data, TransferMethod::ByteExpress)
            .expect("write must succeed");
    }
    let wall = t0.elapsed();
    let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    (
        total_cmds as u64,
        wall.as_secs_f64() * 1e3,
        total_cmds as f64 / secs,
    )
}

/// Out-of-order 4-chunk trains through the reassembly engine, recycling the
/// completion buffer each train. Returns (chunks, wall_ms, chunks/sec).
fn reassembly_window(total_trains: usize) -> (u64, f64, f64) {
    const TOTAL: u16 = 4;
    let mut engine = ReassemblyEngine::new(1 << 20);
    let chunk = [0xC3u8; nvme::inline::REASSEMBLY_CHUNK_PAYLOAD];
    let mut id = 0u32;
    let run = |engine: &mut ReassemblyEngine, id: &mut u32| {
        *id = id.wrapping_add(1).max(1);
        let mut done = None;
        for chunk_no in (0..TOTAL).rev() {
            let hdr = nvme::inline::ChunkHeader {
                payload_id: *id,
                chunk_no,
                total: TOTAL,
            };
            done = engine
                .accept_at(hdr, &chunk, Nanos::ZERO)
                .expect("accept must succeed");
        }
        let payload = done.expect("train must complete");
        engine.recycle(payload.data);
    };
    for _ in 0..256 {
        run(&mut engine, &mut id);
    }
    let t0 = Instant::now();
    for _ in 0..total_trains {
        run(&mut engine, &mut id);
    }
    let wall = t0.elapsed();
    let chunks = (total_trains * TOTAL as usize) as u64;
    let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    (chunks, wall.as_secs_f64() * 1e3, chunks as f64 / secs)
}

fn main() {
    let args = bench_args();
    let n = args.ops.unwrap_or(10_000).max(QUEUES * ROUND_QD);
    let mut report = JsonReport::new("micro");
    let mut failures = 0usize;

    section(&format!(
        "pipelined steady-state window ({n} ByteExpress writes, {QUEUES} queues, NAND off)"
    ));
    let (p_ops, p_ms, p_rate) = pipelined_window(n);
    println!("  {p_ops} commands in {p_ms:.2} ms wall = {p_rate:.0} ops/sec");
    if p_rate < 1_000_000.0 {
        // The tentpole target: a million-IOPS wall-clock engine.
        eprintln!("FAIL: pipelined window must sustain >= 1M ops/sec, got {p_rate:.0}");
        failures += 1;
    }
    report.push(
        "pipelined_window",
        window_value(p_ops, p_ms, "ops_per_sec", p_rate),
    );

    section(&format!(
        "submit -> complete round trips ({n} commands, QD 1)"
    ));
    let (s_ops, s_ms, s_rate) = submit_complete_window(n);
    println!("  {s_ops} commands in {s_ms:.2} ms wall = {s_rate:.0} ops/sec");
    report.push(
        "submit_complete",
        window_value(s_ops, s_ms, "ops_per_sec", s_rate),
    );

    section(&format!(
        "reassembly accept ({n} out-of-order 4-chunk trains)"
    ));
    let (r_chunks, r_ms, r_rate) = reassembly_window(n);
    println!("  {r_chunks} chunks in {r_ms:.2} ms wall = {r_rate:.0} chunks/sec");
    report.push(
        "reassembly_accept",
        window_value(r_chunks, r_ms, "chunk_throughput", r_rate),
    );

    report.push("failures", Value::U64(failures as u64));
    if failures == 0 {
        println!("\nOK: micro windows sustained {p_rate:.0} pipelined ops/sec wall-clock");
    }
    // The JSON document is always the final stdout line (CI tails it).
    report.finish(args.json);
    if failures > 0 {
        eprintln!("micro validation FAILED with {failures} error(s)");
        std::process::exit(1);
    }
}
