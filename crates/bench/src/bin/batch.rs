//! batch — doorbell-coalesced batched submission, measured and self-checked.
//!
//! Runs one fixed-seed multi-queue ByteExpress workload twice over two
//! queues: once submitting command-at-a-time (one SQ doorbell per command,
//! naive per-CQE head updates) and once in batches of 8 (one SQ doorbell
//! per batch, CQ head coalesced). Verifies the tentpole contract before
//! exiting:
//!
//! * doorbell MMIOs per command drop strictly under batching (driver
//!   counter **and** PCIe TLP counter agree),
//! * every non-doorbell wire byte is identical between the two runs —
//!   batching changes *when* the bell rings, never what crosses the wire,
//! * all payloads read back intact in both runs,
//! * weighted-round-robin arbitration demonstrably interleaves SQE fetches
//!   across two queues (3:1 grant pattern in the trace).
//!
//! Any violation exits nonzero, making this the CI self-check for the
//! batching subsystem.
//!
//! `cargo run -p bx-bench --release --bin batch [-- n_ops] [--json]`

use bx_bench::{bench_args, fmt_bytes, section, JsonReport};
use byteexpress::{
    derive_timeseries, sparkline, Arbitration, Device, Event, EventKind, FlushPolicy, Nanos,
    TrafficCounters, TransferMethod,
};
use serde::Value;

/// Deterministic payload schedule: (lba, bytes) per op, identical across
/// runs. Sizes walk 16..=256 B — 1 to 4 ByteExpress chunks.
fn schedule(n: usize) -> Vec<(u64, Vec<u8>)> {
    let mut seed: u64 = 0xB1E55ED;
    (0..n)
        .map(|i| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = 16 + (seed >> 33) as usize % 241;
            let data = (0..len)
                .map(|j| ((seed as usize + j) % 256) as u8)
                .collect();
            (i as u64 * 8, data)
        })
        .collect()
}

struct RunStats {
    sq_doorbells: u64,
    driver_doorbells: u64,
    traffic: TrafficCounters,
    read_back_failures: usize,
}

/// Runs the schedule over two queues in groups of `group` commands per
/// batch; `group == 1` is the unbatched baseline.
fn run(ops: &[(u64, Vec<u8>)], group: usize, cq_coalesce: u16) -> RunStats {
    let mut dev = Device::builder()
        .nand_io(true)
        .queue_count(2)
        .cq_coalesce(cq_coalesce)
        .flush_policy(FlushPolicy {
            max_batch: group.min(u16::MAX as usize) as u16,
            max_delay: Nanos::from_ms(1),
        })
        .build();
    let queues = [dev.queues()[0], dev.queues()[1]];

    let before = dev.traffic();
    let db_before = dev.driver_mut().stats().doorbells;
    for (g, batch) in ops.chunks(group).enumerate() {
        let qid = queues[g % 2];
        let completions = dev
            .write_batch(&[(qid, batch.to_vec())], TransferMethod::ByteExpress)
            .expect("batched writes must succeed");
        assert_eq!(completions[0].len(), batch.len());
    }
    let traffic = dev.traffic().since(&before);
    let driver_doorbells = dev.driver_mut().stats().doorbells - db_before;

    // Read-back verification happens outside the measured window.
    let read_back_failures = ops
        .iter()
        .filter(|(lba, data)| dev.read(*lba, data.len()).as_deref() != Ok(data))
        .count();

    RunStats {
        sq_doorbells: traffic.doorbell_tlps(),
        driver_doorbells,
        traffic,
        read_back_failures,
    }
}

/// Demonstrates 3:1 weighted-round-robin fetch interleaving across two
/// queues against the flight recorder (gauges on, so the drain shows up in
/// the derived time series); returns (grant pattern ok, per-queue grant
/// counts) plus the recorded event stream.
fn wrr_demo() -> ((bool, u64, u64), Vec<Event>) {
    use byteexpress::driver::NvmeDriver;
    use byteexpress::ssd::{BlockFirmware, Controller, ControllerConfig, NandConfig, SystemBus};
    use byteexpress::{LinkConfig, PassthruCmd};

    let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 64 << 20, 8);
    let sink = bus.enable_trace();
    sink.enable_gauges();
    let cfg = ControllerConfig {
        nand: NandConfig::disabled(),
        arbitration: Arbitration::WeightedRoundRobin { burst: 1 },
        ..ControllerConfig::default()
    };
    let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
        Box::new(BlockFirmware::new(dram, false))
    });
    let mut driver = NvmeDriver::new(bus.clone());
    let qa = driver.create_io_queue(&mut ctrl, 64).unwrap();
    let qb = driver.create_io_queue(&mut ctrl, 64).unwrap();
    ctrl.set_queue_weight(qa, 3);
    ctrl.set_queue_weight(qb, 1);

    let mk = |lba: u64| {
        let mut cmd =
            PassthruCmd::to_device(byteexpress::IoOpcode::Write, 1, vec![(lba % 256) as u8; 64]);
        cmd.cdw10_15[0] = lba as u32;
        (cmd, TransferMethod::Prp)
    };
    let cmds_a: Vec<_> = (0..12).map(|i| mk(i * 8)).collect();
    let cmds_b: Vec<_> = (0..12).map(|i| mk(1000 + i * 8)).collect();
    assert!(driver.submit_batch(qa, &cmds_a).all_accepted());
    assert!(driver.submit_batch(qb, &cmds_b).all_accepted());

    sink.clear();
    ctrl.process_available();

    let fetch_qids: Vec<u16> = sink
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SqeFetch { .. }))
        .map(|e| e.cmd.expect("fetches are command-tagged").qid)
        .collect();
    // Four rounds of [a, a, a, b], then qb's remaining eight one per round.
    let mut expected = Vec::new();
    for _ in 0..4 {
        expected.extend([qa.0, qa.0, qa.0, qb.0]);
    }
    expected.extend(std::iter::repeat_n(qb.0, 8));
    let ok = fetch_qids == expected;
    if !ok {
        eprintln!("FAIL [wrr]: fetch order {fetch_qids:?}, expected {expected:?}");
    }
    let served = |q: u16| -> u64 {
        sink.events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ArbiterGrant { qid, served } if qid == q => Some(served as u64),
                _ => None,
            })
            .sum()
    };
    ((ok, served(qa.0), served(qb.0)), sink.events())
}

fn main() {
    let args = bench_args();
    let n = args.ops.unwrap_or(128);
    let ops = schedule(n);
    let mut report = JsonReport::new("batch");
    let mut failures = 0usize;

    section(&format!(
        "{n} fixed-seed ByteExpress writes over 2 queues, unbatched vs batches of 8"
    ));
    let unbatched = run(&ops, 1, 1);
    let batched = run(&ops, 8, 8);

    for (label, r) in [("unbatched", &unbatched), ("batched", &batched)] {
        println!(
            "  {label:<10} sq+cq doorbell TLPs={:<6} ({:.2}/cmd)  non-doorbell wire={} B",
            r.sq_doorbells,
            r.sq_doorbells as f64 / n as f64,
            fmt_bytes(r.traffic.non_doorbell_wire_bytes()),
        );
        if r.read_back_failures > 0 {
            eprintln!(
                "FAIL [{label}]: {} payloads corrupted",
                r.read_back_failures
            );
            failures += 1;
        }
    }

    if batched.sq_doorbells >= unbatched.sq_doorbells {
        eprintln!(
            "FAIL: batching must strictly cut doorbell TLPs ({} -> {})",
            unbatched.sq_doorbells, batched.sq_doorbells
        );
        failures += 1;
    }
    if batched.driver_doorbells >= unbatched.driver_doorbells {
        eprintln!(
            "FAIL: driver doorbell counter must drop ({} -> {})",
            unbatched.driver_doorbells, batched.driver_doorbells
        );
        failures += 1;
    }
    if batched.traffic.non_doorbell_wire_bytes() != unbatched.traffic.non_doorbell_wire_bytes() {
        eprintln!(
            "FAIL: non-doorbell wire bytes must be byte-identical ({} vs {})",
            unbatched.traffic.non_doorbell_wire_bytes(),
            batched.traffic.non_doorbell_wire_bytes()
        );
        failures += 1;
    }

    section("weighted round-robin arbitration (weights 3:1, burst 1)");
    let ((wrr_ok, grants_a, grants_b), wrr_events) = wrr_demo();
    println!(
        "  fetch interleave {} — {} units to the weight-3 queue, {} to the weight-1 queue",
        if wrr_ok { "OK" } else { "FAILED" },
        grants_a,
        grants_b
    );
    if !wrr_ok {
        failures += 1;
    }

    let run_value = |r: &RunStats| {
        Value::object([
            ("ops", Value::U64(n as u64)),
            ("doorbell_tlps", Value::U64(r.sq_doorbells)),
            ("driver_doorbells", Value::U64(r.driver_doorbells)),
            (
                "doorbells_per_cmd",
                Value::F64(r.sq_doorbells as f64 / n as f64),
            ),
            (
                "non_doorbell_wire_bytes",
                Value::U64(r.traffic.non_doorbell_wire_bytes()),
            ),
            (
                "control_wire_bytes",
                Value::U64(r.traffic.control_wire_bytes()),
            ),
            ("total_wire_bytes", Value::U64(r.traffic.total_bytes())),
            (
                "read_back_failures",
                Value::U64(r.read_back_failures as u64),
            ),
        ])
    };
    report.push("unbatched", run_value(&unbatched));
    report.push("batched", run_value(&batched));
    report.push(
        "wrr",
        Value::object([
            ("interleave_ok", Value::Bool(wrr_ok)),
            ("grants_weight3", Value::U64(grants_a)),
            ("grants_weight1", Value::U64(grants_b)),
        ]),
    );

    // The WRR drain as a virtual-time series: the weight-3 queue's backlog
    // should collapse ~3x faster than the weight-1 queue's.
    section("telemetry: WRR drain time series");
    let span = wrr_events.last().map(|e| e.at.as_ns()).unwrap_or(0);
    let ts = derive_timeseries(&wrr_events, Nanos::from_ns((span / 24).max(100)));
    let peak = |metric: &str, scope: &str| ts.get(metric, scope).map(|s| s.peak()).unwrap_or(0.0);
    for scope in ["1", "2"] {
        if let Some(s) = ts.get("ctrl_sq_backlog", scope) {
            println!(
                "  ctrl_sq_backlog[{scope}] {} peak={:.0}",
                sparkline(&s.points),
                s.peak()
            );
        }
    }
    report.push(
        "wrr_timeseries",
        Value::object([
            ("buckets", Value::U64(ts.buckets as u64)),
            ("series", Value::U64(ts.series.len() as u64)),
            ("q1_backlog_peak", Value::F64(peak("ctrl_sq_backlog", "1"))),
            ("q2_backlog_peak", Value::F64(peak("ctrl_sq_backlog", "2"))),
        ]),
    );
    report.set_trace_stats(wrr_events.len(), (grants_a + grants_b).max(1));

    report.push("failures", Value::U64(failures as u64));

    if failures == 0 {
        println!(
            "\nOK: batching cut doorbells/cmd {:.2} -> {:.2} with byte-identical payload traffic",
            unbatched.sq_doorbells as f64 / n as f64,
            batched.sq_doorbells as f64 / n as f64
        );
    }
    // The JSON document is always the final stdout line (CI tails it).
    report.finish(args.json);
    if failures > 0 {
        eprintln!("batch validation FAILED with {failures} error(s)");
        std::process::exit(1);
    }
}
