//! Pins the default `Serial` execution model to its exact pre-pipelining
//! behavior.
//!
//! The pipelined execution work (DESIGN.md §10) rebuilt the controller's
//! completion path around a deferred-event queue. `Serial` mode must remain
//! bit-identical to the historical behavior: same wire bytes, same virtual
//! timestamps, same trace event stream for the same workload. The constants
//! below were captured from the tree *before* the pipelining change landed;
//! any drift here means the refactor altered the calibrated Serial timing
//! model and every Table 1 / figure number with it.

use byteexpress::{Device, TransferMethod};

/// FNV-1a over an arbitrary byte stream.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Deterministic payload for op `n`: 16..=240 bytes, contents derived from
/// the index.
fn payload(n: u64) -> Vec<u8> {
    let len = 16 + ((n * 37) % 225) as usize;
    (0..len).map(|j| ((n as usize + j) % 256) as u8).collect()
}

/// One fixed mixed-method, two-queue workload; returns
/// `(total_wire_bytes, non_doorbell_wire_bytes, elapsed_ns, trace_events,
/// trace_fingerprint)`.
fn golden_run() -> (u64, u64, u64, u64, u64) {
    let mut dev = Device::builder()
        .nand_io(true)
        .queue_count(2)
        .queue_depth(64)
        .trace(true)
        .build();
    let queues = [dev.queues()[0], dev.queues()[1]];

    let t0 = dev.now();
    let before = dev.traffic();
    let methods = [
        TransferMethod::ByteExpress,
        TransferMethod::Prp,
        TransferMethod::BandSlim { embed_first: true },
    ];
    for round in 0..4u64 {
        for (g, &method) in methods.iter().enumerate() {
            let batch: Vec<(u64, Vec<u8>)> = (0..4u64)
                .map(|i| {
                    let n = round * 12 + g as u64 * 4 + i;
                    (n * 8, payload(n))
                })
                .collect();
            dev.write_batch(&[(queues[(round as usize + g) % 2], batch)], method)
                .expect("golden writes must succeed");
        }
    }
    for n in 0..48u64 {
        let expect = payload(n);
        let got = dev.read(n * 8, expect.len()).expect("golden reads succeed");
        assert_eq!(got, expect, "payload {n} corrupted");
    }
    let traffic = dev.traffic().since(&before);
    let elapsed = (dev.now() - t0).as_ns();

    // Fingerprint the trace stream: timestamp + event name + command tag of
    // every event, in emission order. Event *args* are deliberately excluded
    // so richer payloads on an existing event kind (more fields) don't count
    // as drift — count, order, and timing do.
    let events = dev.trace_events();
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    for e in &events {
        fnv1a(&mut fp, &e.at.as_ns().to_le_bytes());
        fnv1a(&mut fp, e.kind.name().as_bytes());
        if let Some(key) = e.cmd {
            fnv1a(&mut fp, &key.qid.to_le_bytes());
            fnv1a(&mut fp, &key.cid.to_le_bytes());
        }
    }
    (
        traffic.total_bytes(),
        traffic.non_doorbell_wire_bytes(),
        elapsed,
        events.len() as u64,
        fp,
    )
}

#[test]
fn serial_mode_is_bit_identical_to_the_pre_pipelining_baseline() {
    // Captured from commit 905e6d4 (the last tree without the pipelined
    // execution model), stable across queue-depth overrides.
    assert_eq!(
        golden_run(),
        (109_515, 106_155, 18_253_029, 1530, 587_745_366_101_034_826),
        "Serial execution drifted from the pre-pipelining baseline \
         (wire bytes / timestamps / trace stream)"
    );
}

#[test]
fn serial_golden_run_is_deterministic() {
    assert_eq!(golden_run(), golden_run());
}
