//! Event-driven pipelined execution (DESIGN.md §10): commands on different
//! queues and NAND dies overlap in virtual time, completions post at their
//! own `complete_at`, and the whole thing stays deterministic.

use byteexpress::{Device, DeviceBuilder, EventKind, ExecutionModel, TransferMethod};

/// Deterministic payload for op `n`.
fn payload(n: u64) -> Vec<u8> {
    let len = 32 + ((n * 53) % 193) as usize;
    (0..len)
        .map(|j| ((3 * n as usize + j) % 256) as u8)
        .collect()
}

/// Four queues × `qd` commands each, distinct LBAs.
fn batches(queues: &[byteexpress::QueueId], qd: u64) -> Vec<byteexpress::QueueBatch> {
    queues
        .iter()
        .enumerate()
        .map(|(q, &qid)| {
            let items = (0..qd)
                .map(|i| {
                    let n = q as u64 * qd + i;
                    (n * 8, payload(n))
                })
                .collect();
            (qid, items)
        })
        .collect()
}

fn rig(model: ExecutionModel, trace: bool) -> Device {
    DeviceBuilder::new()
        .nand_io(true)
        .queue_count(4)
        .queue_depth(64)
        .execution_model(model)
        .trace(trace)
        .build()
}

/// Runs the fixed 4-queue workload; returns (elapsed ns, non-doorbell wire
/// bytes, trace fingerprint over the event byte stream).
fn run(model: ExecutionModel, qd: u64, trace: bool) -> (u64, u64, u64) {
    let mut dev = rig(model, trace);
    let queues: Vec<_> = dev.queues().to_vec();
    let t0 = dev.now();
    let before = dev.traffic();
    dev.write_batch(&batches(&queues, qd), TransferMethod::ByteExpress)
        .expect("writes succeed");
    let elapsed = (dev.now() - t0).as_ns();
    let wire = dev.traffic().since(&before).non_doorbell_wire_bytes();

    // Integrity: everything acked must read back.
    for n in 0..(queues.len() as u64 * qd) {
        let expect = payload(n);
        assert_eq!(dev.read(n * 8, expect.len()).unwrap(), expect, "op {n}");
    }

    // Fingerprint the rendered event stream (timestamps + full event text),
    // FNV-1a — the "trace byte stream" determinism witness.
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    for e in dev.trace_events() {
        for b in format!("{}|{:?}|{}", e.at, e.cmd, e.kind).bytes() {
            fp ^= b as u64;
            fp = fp.wrapping_mul(0x100_0000_01b3);
        }
    }
    (elapsed, wire, fp)
}

#[test]
fn pipelined_overlaps_nand_time_across_queues() {
    let (serial, serial_wire, _) = run(ExecutionModel::Serial, 8, false);
    let (pipelined, pipelined_wire, _) = run(ExecutionModel::Pipelined, 8, false);
    // 32 writes whose ~300 µs NAND programs land on distinct dies: serial
    // accounting sums them, pipelined overlaps them. Demand a ≥2× margin
    // (actual is ≈ 23×; `ablation` prints the QD sweep).
    assert!(
        pipelined * 2 <= serial,
        "pipelined must be at least 2x faster: serial={serial}ns pipelined={pipelined}ns"
    );
    // Overlap changes *when*, never *what*: byte-identical non-doorbell
    // wire traffic.
    assert_eq!(serial_wire, pipelined_wire);
}

#[test]
fn every_sweep_depth_reads_back_under_both_models() {
    // `run` reads every acked payload back; QD 8 is covered above, these
    // are the other depths `ablation`'s Serial/Pipelined table prints.
    for qd in [1, 2, 4, 16] {
        let (_, serial_wire, _) = run(ExecutionModel::Serial, qd, false);
        let (_, pipelined_wire, _) = run(ExecutionModel::Pipelined, qd, false);
        assert_eq!(serial_wire, pipelined_wire, "QD {qd}");
    }
}

#[test]
fn pipelined_single_command_latency_matches_serial() {
    // At QD 1 there is nothing to overlap: the pipelined event queue must
    // charge the same fetch + media + completion costs as serial accounting.
    let mean = |model| {
        rig(model, false)
            .measure_writes(16, 64, TransferMethod::ByteExpress)
            .unwrap()
            .latencies
            .mean()
            .as_ns()
    };
    let serial = mean(ExecutionModel::Serial);
    let pipelined = mean(ExecutionModel::Pipelined);
    let diff = serial.abs_diff(pipelined) as f64 / serial as f64;
    assert!(
        diff <= 0.05,
        "QD1 mean latency must stay within 5%: serial={serial}ns pipelined={pipelined}ns"
    );
}

#[test]
fn pipelined_run_is_deterministic() {
    // Same seed + same schedule → identical pop order out of the event
    // queue, hence an identical trace byte stream and identical timing.
    assert_eq!(
        run(ExecutionModel::Pipelined, 8, true),
        run(ExecutionModel::Pipelined, 8, true)
    );
}

#[test]
fn pipelined_trace_proves_nand_fetch_overlap() {
    let mut dev = rig(ExecutionModel::Pipelined, true);
    let queues: Vec<_> = dev.queues().to_vec();
    dev.write_batch(&batches(&queues, 8), TransferMethod::ByteExpress)
        .expect("writes succeed");
    let events = dev.trace_events();

    // At least one NAND busy window [start, start+busy] must contain a
    // *later-emitted* SQE fetch: the controller kept fetching while the die
    // was programming — the tentpole's overlap, visible per-stage.
    let mut overlaps = 0usize;
    for (i, e) in events.iter().enumerate() {
        let EventKind::NandOp { start, busy, .. } = e.kind else {
            continue;
        };
        let (s, d) = (start, start + busy);
        overlaps += events[i + 1..]
            .iter()
            .filter(|f| matches!(f.kind, EventKind::SqeFetch { .. }) && f.at > s && f.at < d)
            .count();
    }
    assert!(
        overlaps > 0,
        "no SQE fetch landed inside any NAND busy window"
    );

    // Dispatch→completion decoupling is also explicit in the stream: every
    // deferred CQE resolves, and CQEs post in nondecreasing virtual time
    // (the event queue's delivery order).
    let deferred = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CqeDeferred { .. }))
        .count();
    // Admin bring-up CQEs ride queue id 0; only I/O completions count.
    let posts: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CqePost { .. }))
        .filter(|e| e.cmd.is_some_and(|c| c.qid != 0))
        .map(|e| e.at.as_ns())
        .collect();
    assert_eq!(deferred, 32, "every write dispatch defers its completion");
    assert_eq!(posts.len(), 32);
    assert!(posts.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn pipelined_completions_cross_submission_order() {
    // A big write (many pages → long program chain) submitted before small
    // writes on other queues completes *after* them in virtual time — the
    // out-of-order completion regime the driver's cid map must tolerate.
    let mut dev = rig(ExecutionModel::Pipelined, true);
    let queues: Vec<_> = dev.queues().to_vec();
    let work = vec![
        (queues[0], vec![(0u64, vec![0xAA; 16 << 10])]),
        (queues[1], vec![(64u64, vec![0xBB; 64])]),
        (queues[2], vec![(128u64, vec![0xCC; 64])]),
    ];
    dev.write_batch(&work, TransferMethod::Prp)
        .expect("writes succeed");
    let posts: Vec<u16> = dev
        .trace_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CqePost { .. }))
        .filter_map(|e| e.cmd.map(|c| c.qid))
        .filter(|&qid| qid != 0)
        .collect();
    assert_eq!(posts.len(), 3);
    assert_eq!(
        posts.last(),
        Some(&queues[0].0),
        "the multi-page write must complete last despite first submission: {posts:?}"
    );
    assert_eq!(dev.read(0, 16 << 10).unwrap(), vec![0xAA; 16 << 10]);
}
