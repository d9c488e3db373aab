//! pipeline — event-driven pipelined execution, measured and self-checked.
//!
//! Runs one fixed-seed multi-queue ByteExpress workload twice — once under
//! the default `Serial` execution model (the controller clock stalls through
//! every NAND program) and once under `Pipelined` (dispatch frees the
//! controller; CQEs post at their own `complete_at` via the deferred event
//! queue). Verifies the tentpole contract before exiting:
//!
//! * `Pipelined` at 4 SQs / QD 8 delivers **≥ 2×** the window IOPS of
//!   `Serial` on the same schedule (`throughput_over_window`, not the
//!   serialized 1/latency figure),
//! * every non-doorbell wire byte is identical between the two runs —
//!   overlap changes *when*, never *what* crosses the wire,
//! * mean single-command latency at QD 1 stays within 5% of `Serial`
//!   (nothing to overlap → same per-op cost),
//! * the pipelined trace proves the overlap per-stage: at least one NAND
//!   busy window `[start, start+busy]` contains a later SQE fetch, and every
//!   dispatch defers exactly one CQE that posts in nondecreasing time,
//! * all payloads read back intact in both runs.
//!
//! A QD × execution-model sweep (window IOPS + p99 latency) follows the
//! self-check; with `--json` it lands in `BENCH_pipeline.json` as the perf
//! trajectory's first data point. Any violation exits nonzero, making this
//! the CI self-check for the pipelined execution subsystem.
//!
//! `cargo run -p bx-bench --release --bin pipeline [-- qd] [--json]`

use bx_bench::{bench_args, fmt_bytes, json_of, section, JsonReport};
use byteexpress::{
    derive_timeseries, openmetrics, sparkline, validate_openmetrics, Device, Event, EventKind,
    ExecutionModel, LatencySamples, MetricsRegistry, Nanos, QueueBatch, QueueId, TransferMethod,
};
use serde::Value;

/// Submission queues for the headline comparison and the sweep.
const QUEUES: usize = 4;

/// Deterministic payload schedule: (lba, bytes) per op, identical across
/// runs and models. Sizes walk 16..=256 B — 1 to 4 ByteExpress chunks.
fn schedule(n: usize) -> Vec<(u64, Vec<u8>)> {
    let mut seed: u64 = 0xB1E55ED;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let len = 16 + (seed >> 33) as usize % 241;
        let data = (0..len)
            .map(|j| ((seed as usize + j) % 256) as u8)
            .collect();
        ops.push((i as u64 * 8, data));
    }
    ops
}

/// Splits the schedule round-robin-free: queue `q` gets ops `q·qd..(q+1)·qd`.
fn split(queues: &[QueueId], ops: &[(u64, Vec<u8>)], qd: usize) -> Vec<QueueBatch> {
    queues
        .iter()
        .enumerate()
        .map(|(q, &qid)| (qid, ops[q * qd..(q + 1) * qd].to_vec()))
        .collect()
}

fn build(model: ExecutionModel) -> Device {
    Device::builder()
        .nand_io(true)
        .queue_count(QUEUES)
        .queue_depth(64)
        .execution_model(model)
        .build()
}

struct RunStats {
    elapsed: Nanos,
    window_iops: f64,
    wire: u64,
    latencies: LatencySamples,
    read_back_failures: usize,
}

/// Runs `qd` commands on each of the 4 queues (all submitted before any
/// drain, so overlap is possible) and measures the completion window.
fn run(model: ExecutionModel, qd: usize) -> RunStats {
    let mut dev = build(model);
    let queues: Vec<QueueId> = dev.queues().to_vec();
    let ops = schedule(QUEUES * qd);
    let batches = split(&queues, &ops, qd);

    let before = dev.traffic();
    let t0 = dev.now();
    let completions = dev
        .write_batch(&batches, TransferMethod::ByteExpress)
        .expect("pipelined writes must succeed");
    let elapsed = dev.now() - t0;
    let wire = dev.traffic().since(&before).non_doorbell_wire_bytes();

    let all: Vec<_> = completions.into_iter().flatten().collect();
    let first_submit = all.iter().map(|c| c.submitted_at).min().unwrap_or(t0);
    let last_complete = all.iter().map(|c| c.completed_at).max().unwrap_or(t0);
    let latencies: LatencySamples = all.iter().map(|c| c.latency()).collect();
    let window_iops = latencies.throughput_over_window(first_submit, last_complete);

    // Read-back verification happens outside the measured window.
    let read_back_failures = ops
        .iter()
        .filter(|(lba, data)| dev.read(*lba, data.len()).as_deref() != Ok(data))
        .count();

    RunStats {
        elapsed,
        window_iops,
        wire,
        latencies,
        read_back_failures,
    }
}

/// Replays the headline workload traced (with utilization gauges) under
/// `Pipelined`, returning the raw event stream for the telemetry sections
/// alongside the per-stage overlap evidence: (NAND-busy windows containing
/// a later SQE fetch, deferred-CQE count, I/O CQE posts, posts
/// nondecreasing in time).
fn overlap_evidence(qd: usize) -> (Vec<Event>, (usize, usize, usize, bool)) {
    let mut dev = Device::builder()
        .nand_io(true)
        .queue_count(QUEUES)
        .queue_depth(64)
        .execution_model(ExecutionModel::Pipelined)
        .trace_gauges(true)
        .build();
    let queues: Vec<QueueId> = dev.queues().to_vec();
    let ops = schedule(QUEUES * qd);
    let batches = split(&queues, &ops, qd);
    dev.write_batch(&batches, TransferMethod::ByteExpress)
        .expect("traced run must succeed");

    let events = dev.trace_events();
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
    let deferred = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CqeDeferred { .. }))
        .count();
    // Admin bring-up CQEs ride queue id 0; only I/O completions count.
    let posts: Vec<Nanos> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CqePost { .. }))
        .filter(|e| e.cmd.is_some_and(|c| c.qid != 0))
        .map(|e| e.at)
        .collect();
    let ordered = posts.windows(2).all(|w| w[0] <= w[1]);
    let evidence = (overlaps, deferred, posts.len(), ordered);
    (events, evidence)
}

/// Steady-state profile window: one traced `Pipelined` device driven for
/// `rounds` rounds of `qd` commands per queue, NAND I/O off so the window
/// exercises the submission/completion engine rather than simulated NAND
/// latency. Returns (trace events, commands issued); the pair feeds the
/// report's `self_profile` so `events_per_sec` reflects sustained hot-path
/// throughput instead of bring-up cost.
fn steady_state_window(rounds: usize, qd: usize) -> (usize, u64) {
    let mut dev = Device::builder()
        .nand_io(false)
        .queue_count(QUEUES)
        .queue_depth(64)
        .execution_model(ExecutionModel::Pipelined)
        .trace(true)
        .build();
    let queues: Vec<QueueId> = dev.queues().to_vec();
    let ops = schedule(QUEUES * qd);
    let batches = split(&queues, &ops, qd);
    let mut commands = 0u64;
    for _ in 0..rounds {
        dev.write_batch(&batches, TransferMethod::ByteExpress)
            .expect("steady-state writes must succeed");
        commands += (QUEUES * qd) as u64;
    }
    (dev.trace_events().len(), commands)
}

/// Mean single-command write latency at QD 1 under `model`.
fn qd1_mean(model: ExecutionModel) -> Nanos {
    build(model)
        .measure_writes(32, 64, TransferMethod::ByteExpress)
        .expect("QD1 writes must succeed")
        .latencies
        .mean()
}

fn run_value(n: usize, r: &RunStats) -> Value {
    Value::object([
        ("ops", Value::U64(n as u64)),
        ("elapsed_ns", Value::U64(r.elapsed.as_ns())),
        ("window_iops", Value::F64(r.window_iops)),
        ("non_doorbell_wire_bytes", Value::U64(r.wire)),
        ("mean_ns", Value::U64(r.latencies.mean().as_ns())),
        ("p99_ns", Value::U64(r.latencies.percentile(99.0).as_ns())),
        (
            "read_back_failures",
            Value::U64(r.read_back_failures as u64),
        ),
    ])
}

fn main() {
    let args = bench_args();
    let qd = args.ops.unwrap_or(8).max(1);
    let n = QUEUES * qd;
    let mut report = JsonReport::new("pipeline");
    let mut failures = 0usize;

    section(&format!(
        "{n} fixed-seed ByteExpress writes over {QUEUES} queues at QD {qd}, Serial vs Pipelined"
    ));
    let serial = run(ExecutionModel::Serial, qd);
    let pipelined = run(ExecutionModel::Pipelined, qd);
    for (label, r) in [("serial", &serial), ("pipelined", &pipelined)] {
        println!(
            "  {label:<10} elapsed={:>12} ns  window IOPS={:<12.0} p99={} ns  non-doorbell wire={} B",
            r.elapsed.as_ns(),
            r.window_iops,
            r.latencies.percentile(99.0).as_ns(),
            fmt_bytes(r.wire),
        );
        if r.read_back_failures > 0 {
            eprintln!(
                "FAIL [{label}]: {} payloads corrupted",
                r.read_back_failures
            );
            failures += 1;
        }
    }

    let speedup = pipelined.window_iops / serial.window_iops.max(f64::MIN_POSITIVE);
    println!("  pipelined/serial IOPS: {speedup:.2}x");
    if qd >= 8 && speedup < 2.0 {
        eprintln!("FAIL: Pipelined must deliver >= 2x Serial IOPS at QD {qd}, got {speedup:.2}x");
        failures += 1;
    }
    if serial.wire != pipelined.wire {
        eprintln!(
            "FAIL: non-doorbell wire bytes must be byte-identical ({} vs {})",
            serial.wire, pipelined.wire
        );
        failures += 1;
    }

    section("QD 1 single-command latency (nothing to overlap)");
    let (s1, p1) = (
        qd1_mean(ExecutionModel::Serial),
        qd1_mean(ExecutionModel::Pipelined),
    );
    let qd1_diff = s1.as_ns().abs_diff(p1.as_ns()) as f64 / s1.as_ns().max(1) as f64;
    println!(
        "  serial mean={} ns  pipelined mean={} ns  diff={:.2}%",
        s1.as_ns(),
        p1.as_ns(),
        qd1_diff * 100.0
    );
    if qd1_diff > 0.05 {
        eprintln!(
            "FAIL: QD1 mean latency must stay within 5% of Serial, got {:.2}%",
            qd1_diff * 100.0
        );
        failures += 1;
    }

    section("per-stage overlap evidence (pipelined trace)");
    let (events, (overlaps, deferred, posts, ordered)) = overlap_evidence(qd);
    println!(
        "  SQE fetches inside NAND busy windows: {overlaps}   deferred CQEs: {deferred}/{n}   I/O CQE posts: {posts}/{n} ({})",
        if ordered { "nondecreasing" } else { "OUT OF ORDER" }
    );
    if overlaps == 0 {
        eprintln!("FAIL: no SQE fetch landed inside any NAND busy window");
        failures += 1;
    }
    if deferred != n || posts != n || !ordered {
        eprintln!("FAIL: every dispatch must defer exactly one CQE that posts in time order");
        failures += 1;
    }

    section("steady-state profile window (pipelined, NAND off)");
    let (profile_events, profile_cmds) = steady_state_window(320, qd);
    println!("  {profile_cmds} commands traced in steady state, {profile_events} trace events");
    if profile_events == 0 {
        eprintln!("FAIL: steady-state window produced no trace events");
        failures += 1;
    }

    section("QD sweep, window IOPS + p99 (4 queues)");
    println!(
        "{:>6} {:>16} {:>16} {:>9} {:>14} {:>14}",
        "QD", "serial IOPS", "pipelined IOPS", "speedup", "serial p99", "pipelined p99"
    );
    let mut sweep = Vec::new();
    for sweep_qd in [1usize, 2, 4, 8, 16] {
        let s = run(ExecutionModel::Serial, sweep_qd);
        let p = run(ExecutionModel::Pipelined, sweep_qd);
        println!(
            "{:>6} {:>16.0} {:>16.0} {:>8.2}x {:>11} ns {:>11} ns",
            sweep_qd,
            s.window_iops,
            p.window_iops,
            p.window_iops / s.window_iops.max(f64::MIN_POSITIVE),
            s.latencies.percentile(99.0).as_ns(),
            p.latencies.percentile(99.0).as_ns(),
        );
        failures += s.read_back_failures + p.read_back_failures;
        sweep.push(Value::object([
            ("qd", Value::U64(sweep_qd as u64)),
            ("queues", Value::U64(QUEUES as u64)),
            ("serial_iops", Value::F64(s.window_iops)),
            ("pipelined_iops", Value::F64(p.window_iops)),
            (
                "serial_p99_ns",
                Value::U64(s.latencies.percentile(99.0).as_ns()),
            ),
            (
                "pipelined_p99_ns",
                Value::U64(p.latencies.percentile(99.0).as_ns()),
            ),
        ]));
    }

    report.push("serial", run_value(n, &serial));
    report.push("pipelined", run_value(n, &pipelined));
    report.push("iops_speedup", Value::F64(speedup));
    report.push(
        "qd1_latency",
        Value::object([
            ("serial_mean_ns", Value::U64(s1.as_ns())),
            ("pipelined_mean_ns", Value::U64(p1.as_ns())),
            ("diff_fraction", Value::F64(qd1_diff)),
        ]),
    );
    report.push(
        "overlap",
        Value::object([
            (
                "nand_window_sqe_fetch_overlaps",
                Value::U64(overlaps as u64),
            ),
            ("cqe_deferred", Value::U64(deferred as u64)),
            ("io_cqe_posts", Value::U64(posts as u64)),
            ("posts_nondecreasing", Value::Bool(ordered)),
        ]),
    );
    report.push("qd_sweep", Value::Array(sweep));
    report.push(
        "steady_state",
        Value::object([
            ("commands", Value::U64(profile_cmds)),
            ("trace_events", Value::U64(profile_events as u64)),
        ]),
    );

    // ---- continuous telemetry from the traced (gauged) run -------------
    section("telemetry: virtual-time series (pipelined, gauges on)");
    let span = events.last().map(|e| e.at.as_ns()).unwrap_or(0);
    let interval = Nanos::from_ns((span / 32).max(1_000));
    let ts = derive_timeseries(&events, interval);
    println!(
        "  {} series over {} buckets of {} ns",
        ts.series.len(),
        ts.buckets,
        ts.interval.as_ns()
    );
    for (metric, scope) in [
        ("wire_bytes", ""),
        ("doorbells", ""),
        ("inflight_cmds", "1"),
        ("completions_in_flight", "0"),
        ("ftl_journal_depth", "0"),
    ] {
        if let Some(s) = ts.get(metric, scope) {
            let name = if scope.is_empty() {
                metric.to_string()
            } else {
                format!("{metric}[{scope}]")
            };
            println!("  {name:<24} {} peak={:.0}", sparkline(&s.points), s.peak());
        }
    }
    let gauge_series = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::GaugeSample { .. }))
        .count();
    if gauge_series == 0 {
        eprintln!("FAIL: gauged trace produced no GaugeSample events");
        failures += 1;
    }

    section("telemetry: OpenMetrics exposition + totals agreement");
    let registry = MetricsRegistry::from_events(&events);
    let exposition = openmetrics(&registry);
    let om = match validate_openmetrics(&exposition) {
        Ok(summary) => {
            let mut mismatched = 0usize;
            for (name, total) in &summary.counter_totals {
                if registry.counter_total(name) != *total {
                    eprintln!(
                        "FAIL: OpenMetrics total for {name} = {total} disagrees with registry {}",
                        registry.counter_total(name)
                    );
                    mismatched += 1;
                }
            }
            println!(
                "  {} bytes, {} counter families, {} histogram families, {} gauge families — \
                 validated, totals {}",
                exposition.len(),
                summary.counter_totals.len(),
                summary.histogram_counts.len(),
                summary.gauge_scopes.len(),
                if mismatched == 0 { "agree" } else { "DISAGREE" }
            );
            if mismatched > 0 || summary.counter_totals.is_empty() {
                eprintln!("FAIL: OpenMetrics exposition must carry agreeing counter totals");
                failures += 1;
            }
            Value::object([
                ("bytes", Value::U64(exposition.len() as u64)),
                (
                    "counter_families",
                    Value::U64(summary.counter_totals.len() as u64),
                ),
                (
                    "histogram_families",
                    Value::U64(summary.histogram_counts.len() as u64),
                ),
                ("totals_agree", Value::Bool(mismatched == 0)),
            ])
        }
        Err(e) => {
            eprintln!("FAIL: OpenMetrics exposition did not validate: {e}");
            failures += 1;
            Value::object([("error", Value::Str(e))])
        }
    };
    report.push("timeseries", json_of(&ts));
    report.push("openmetrics", om);
    report.set_trace_stats(profile_events, profile_cmds);

    report.push("failures", Value::U64(failures as u64));

    if failures == 0 {
        println!(
            "\nOK: pipelined execution delivered {speedup:.2}x serial IOPS with byte-identical \
             payload traffic and QD1 latency within {:.2}%",
            qd1_diff * 100.0
        );
    }
    // The JSON document is always the final stdout line (CI tails it).
    report.finish(args.json);
    if failures > 0 {
        eprintln!("pipeline validation FAILED with {failures} error(s)");
        std::process::exit(1);
    }
}
