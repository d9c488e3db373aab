//! `bxperf` — the repo's benchmark.
//!
//! ```text
//! bxperf run    --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! bxperf trace  --workload <name> [--seed N] [--seconds S]
//! bxperf all    [--seed N] [--seconds S]
//! bxperf ledger
//! ```
//!
//! Two clocks, always labelled: `host_*` is wall/CPU time of the simulator
//! on this machine, `sim_*` is virtual time and counts of the modelled
//! device. Every command prints its metrics by name with unit, verifies its
//! outputs, and ends with one JSON line; any failed op or check makes the
//! exit code non-zero after the metrics are printed. See `README.md`.

mod adapter;
mod harness;
mod inputs;
mod ledger;
mod manifest;
mod metrics;
mod paper;
mod procfs;
mod span;
mod workloads;

use harness::{layer_counts, stage_metrics, Outcome, RunArgs, Traced, DEFAULT_SECONDS};
use manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use metrics::{final_json, print_metrics, sim_fingerprint, Metric};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: bxperf <run|trace|all|ledger> [--workload <name>] [--seed N] \
                     [--seconds S] [--trace 0|1]";

struct Cli {
    command: String,
    workload: Option<String>,
    args: RunArgs,
    trace: bool,
}

fn parse_cli(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let command = argv.next().ok_or(USAGE)?;
    let mut cli = Cli {
        trace: command == "trace",
        command,
        workload: None,
        args: RunArgs {
            seed: 1,
            seconds: DEFAULT_SECONDS,
        },
    };
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value),
            "--seed" => cli.args.seed = number()?,
            "--seconds" => match number()? {
                s @ 1..=60 => cli.args.seconds = s,
                s => return Err(format!("--seconds {s}: must be 1..=60")),
            },
            "--trace" => match value.as_str() {
                "0" | "1" => cli.trace |= value == "1",
                _ => return Err(format!("--trace {value}: must be 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, args: RunArgs) -> Result<Outcome, String> {
    match name {
        "fig5_qd1" => Ok(workloads::fig5_qd1::run(args)),
        "kv_mixed" => workloads::kv_mixed::run(args),
        "mq_reactor" => workloads::mq_reactor::run(args, false),
        "mq_reactor_nand" => workloads::mq_reactor::run(args, true),
        "crash_rebuild" => Ok(workloads::crash_rebuild::run(args)),
        _ => Err(unknown_workload(name)),
    }
}

fn trace_workload(name: &str, args: RunArgs) -> Result<(Outcome, Traced), String> {
    match name {
        "fig5_qd1" => Ok(workloads::fig5_qd1::trace(args)),
        "kv_mixed" => workloads::kv_mixed::trace(args),
        "mq_reactor" => workloads::mq_reactor::trace(args, false),
        "mq_reactor_nand" => workloads::mq_reactor::trace(args, true),
        "crash_rebuild" => Ok(workloads::crash_rebuild::trace(args)),
        _ => Err(unknown_workload(name)),
    }
}

fn unknown_workload(name: &str) -> String {
    format!("unknown workload {name:?}; one of {WORKLOADS:?}")
}

/// Prints what every pass prints: host diagnostics, the simulated
/// end-to-end metrics, the `[C]` counts, paper rows, and the fingerprint.
fn print_outcome(title: &str, out: &Outcome) {
    print_metrics(
        &format!("{title}: host clock (this machine)"),
        &out.host_diagnostics(),
    );
    if !out.extra.is_empty() {
        print_metrics(&format!("{title}: host clock, per method"), &out.extra);
    }
    let mut sim = out.sim_metrics();
    print_metrics(
        &format!("{title}: simulated clock (deterministic per seed)"),
        &sim,
    );
    if out.sim.nand_write_amp.is_none() {
        println!("# sim_nand_write_amp: absent (this workload programs no NAND)");
    }
    match &out.sim.paper {
        Some(p) => {
            for (id, ours, paper, err) in &p.rows {
                println!("paper {id} reproduced={ours} paper={paper} err_pct={err}");
            }
        }
        None => println!(
            "# sim_paper_err_pct: absent (no paper reference; the model is unvalidated here)"
        ),
    }
    let counts = layer_counts(out);
    print_metrics(&format!("{title}: per-layer counts [C]"), &counts);
    sim.extend(counts);
    println!("sim_fingerprint {:016x}", sim_fingerprint(&sim));
    for f in &out.failures {
        println!("FAIL {f}");
    }
}

/// Picks `names` out of `have`, in `names` order; a metric a workload does
/// not produce reads 0 (the contract wants every listed metric on every
/// workload, and 0 is outside every one of these metrics' live ranges).
fn select(names: &[(&str, &'static str, &str)], have: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|(name, unit, _)| {
            let value = have
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            Metric::new(*name, value, unit)
        })
        .collect()
}

fn finish(out: &Outcome, metrics: &[Metric], extra_failed: u64) -> ExitCode {
    let failed = out.failed + extra_failed;
    println!(
        "{}",
        final_json(failed == 0, out.ops.max(1), failed, metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_run(name: &str, args: RunArgs) -> Result<ExitCode, String> {
    let out = run_workload(name, args)?;
    println!(
        "# bxperf run: workload={name} seed={} seconds={} ops={}",
        args.seed, args.seconds, out.ops
    );
    let host = out.host_metrics();
    print_metrics(
        "end to end: host clock (this machine, on the reference clock)",
        &host,
    );
    println!(
        "# setup_s samples (raw s, calibrated s): {:?}",
        out.setup_samples
    );
    print_outcome("run", &out);
    Ok(finish(&out, &select(END_TO_END, &host), 0))
}

/// `[H]` metrics from harness spans: mean self time per span, by name.
fn span_metrics(t: &Traced, timer_ns: f64) -> Vec<Metric> {
    // Span times are raw; the traced pass's slowdown puts them on the
    // reference clock like every other host time.
    let slowdown = t.outcome.slowdown();
    let mean = |name: &str| {
        t.spans
            .agg(name)
            .map_or(0.0, |a| a.mean_self_ns() / slowdown)
    };
    let ns = |metric: &str, span: &str| Metric::new(metric, mean(span), "ns");
    let ms = |metric: &str, span: &str| Metric::new(metric, mean(span) / 1e6, "ms");
    let submit_spans = [
        "driver.submit.prp",
        "driver.submit.bandslim",
        "driver.submit.byteexpress",
    ];
    let (submit_ns, submit_n) = submit_spans
        .iter()
        .filter_map(|n| t.spans.agg(n))
        .fold((0u64, 0u64), |(ns, n), a| (ns + a.self_ns, n + a.count));
    // The root span of the taken-apart `Device::write`: what is left once
    // its four children are subtracted is command construction, completion
    // matching, and two clock reads per child that land outside the child.
    let write_glue = t.spans.agg("core.device.write").map_or(0.0, |a| {
        ((a.mean_self_ns() - 2.0 * 4.0 * timer_ns) / slowdown).max(0.0)
    });
    vec![
        Metric::new(
            "driver.submit.host_ns",
            submit_ns as f64 / slowdown / submit_n.max(1) as f64,
            "ns",
        ),
        ns("driver.submit.prp.host_ns", "driver.submit.prp"),
        ns("driver.submit.bandslim.host_ns", "driver.submit.bandslim"),
        ns(
            "driver.submit.byteexpress.host_ns",
            "driver.submit.byteexpress",
        ),
        ns("driver.flush_sq.host_ns", "driver.flush_sq"),
        ns("driver.poll.host_ns", "driver.poll"),
        ns("driver.reactor.turn.host_ns", "driver.reactor.turn"),
        ns("driver.reactor.poll_tasks.host_ns", "reactor.poll_tasks"),
        ns("ssd.controller.process.host_ns", "ssd.controller.process"),
        ms("ssd.power_cycle.host_ms", "ssd.power_cycle"),
        Metric::new("core.device.write.self_ns", write_glue, "ns"),
        ms("core.device.build.host_ms", "core.device.build"),
        ns("kvssd.put.host_ns", "kvssd.put"),
        ns("kvssd.get.host_ns", "kvssd.get"),
        ms("kvssd.open.host_ms", "kvssd.open"),
    ]
}

/// The traced run's own checks; each failure is reported and counted.
fn trace_checks(plain: &Outcome, t: &Traced) -> Vec<String> {
    let mut bad = Vec::new();
    // Tracing must be inert: same simulated results as the plain pass.
    let (a, b) = (plain.sim_metrics(), t.outcome.sim_metrics());
    for (p, q) in a.iter().zip(&b) {
        // The paper figures come from the plain pass's verification only.
        if p.name != "sim_paper_err_pct" && p != q {
            bad.push(format!(
                "traced {} = {} but plain = {}",
                q.name, q.value, p.value
            ));
        }
    }
    if layer_counts(plain) != layer_counts(&t.outcome) {
        bad.push("traced per-layer counts differ from the plain pass".to_string());
    }
    // The stages must add up to the latency the harness itself observed.
    if t.checked_stages.count != t.checked_count {
        bad.push(format!(
            "recorder closed {} commands, the harness timed {}",
            t.checked_stages.count, t.checked_count
        ));
    } else if t.checked_count > 0 {
        let n = t.checked_count as f64;
        let (stages, seen) = (
            t.checked_stages.latency_ns() as f64 / n,
            t.checked_latency_ns as f64 / n,
        );
        if (stages - seen).abs() > 1.0 {
            bad.push(format!(
                "stage sum {stages} ns differs from mean latency {seen} ns"
            ));
        }
    }
    bad
}

fn cmd_trace(name: &str, args: RunArgs) -> Result<ExitCode, String> {
    let (plain, traced) = trace_workload(name, args)?;
    println!(
        "# bxperf trace: workload={name} seed={} seconds={} ops={} (first 1/{} of the run's stream, \
         replayed plain then traced)",
        args.seed,
        args.seconds,
        plain.ops,
        harness::TRACE_FRACTION
    );
    print_outcome("plain pass", &plain);
    print_outcome("traced pass", &traced.outcome);

    let mut layer = plain.sim_metrics();
    if plain.sim.nand_write_amp.is_none() {
        // Kept out of the printed metrics above; the JSON line needs a number.
        layer.push(Metric::new("sim_nand_write_amp", 0.0, "ratio"));
    }
    layer.extend(layer_counts(&plain));
    layer.extend(plain.extra.iter().cloned());

    let timer_ns = span::timer_ns();
    let spans = span_metrics(&traced, timer_ns);
    print_metrics("per-layer host self-time from harness spans [H]", &spans);
    println!("# span aggregates (count, mean self ns, p50 self ns, mean total ns):");
    for (span, a) in traced.spans.aggregates() {
        println!(
            "span {span} count={} mean_self_ns={} p50_self_ns={} mean_total_ns={}",
            a.count,
            a.mean_self_ns(),
            a.self_tally.percentile(50.0),
            a.mean_total_ns()
        );
    }
    layer.extend(spans);

    let all = traced.stages.total(|_| true);
    let mut stages = stage_metrics(&all);
    stages.push(Metric::new("sim.stage.commands", all.count as f64, "count"));
    stages.extend(traced.extra.iter().cloned());
    print_metrics(
        "virtual-time stages per command, from the built-in recorder [V]",
        &stages,
    );
    layer.extend(stages);

    let ops = traced.outcome.ops as f64;
    let overhead = vec![
        Metric::new(
            "trace.overhead_pct",
            100.0 * (traced.outcome.block_time_ns().1 / plain.block_time_ns().1 - 1.0),
            "%",
        ),
        Metric::new(
            "trace.events_per_op",
            traced.stages.events as f64 / ops,
            "count",
        ),
        Metric::new(
            "trace.recorder_bytes_per_op",
            traced.stages.events as f64 * adapter::recorder_event_bytes() as f64 / ops,
            "B",
        ),
        Metric::new("harness.timer_ns", timer_ns, "ns"),
    ];
    print_metrics(
        "tracing overhead (traced pass vs plain pass, same ops)",
        &overhead,
    );
    layer.extend(overhead);

    let ledger = ledger::run();
    print_metrics(
        "isolated ledger [L] (median of 5 batches, ns per call)",
        &ledger,
    );
    layer.extend(ledger);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace_{name}.json"));
    match traced.spans.write_chrome_trace(&path) {
        Ok(()) => println!(
            "# chrome trace: {} ({} spans of the first {} ops)",
            path.display(),
            traced.spans.raw().len(),
            span::RAW_OPS
        ),
        Err(e) => return Err(format!("writing {}: {e}", path.display())),
    }

    let bad = trace_checks(&plain, &traced);
    for b in &bad {
        println!("FAIL trace check: {b}");
    }
    let mut both = plain.clone();
    both.failed += traced.outcome.failed;
    Ok(finish(&both, &select(PER_LAYER, &layer), bad.len() as u64))
}

fn cmd_ledger() -> ExitCode {
    println!("# bxperf ledger: each layer's public entry point alone, >= 1 M calls after warm-up");
    let ledger = ledger::run();
    print_metrics(
        "isolated ledger [L] (median of 5 batches, ns per call)",
        &ledger,
    );
    println!("{}", final_json(true, ledger.len() as u64, 0, &ledger));
    ExitCode::SUCCESS
}

/// Runs every workload in its own process (peak RSS is per process), then
/// prints one JSON line keyed by workload.
fn cmd_all(args: RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let output = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .output()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or("null");
        lines.push(format!("\"{name}\":{last}"));
    }
    println!("{{{}}}", lines.join(","));
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_cli(std::env::args().skip(1)).and_then(|cli| {
        let workload = || {
            cli.workload
                .as_deref()
                .ok_or(format!("--workload is required\n{USAGE}"))
        };
        match (cli.command.as_str(), cli.trace) {
            ("run" | "trace", true) => cmd_trace(workload()?, cli.args),
            ("run", false) => cmd_run(workload()?, cli.args),
            ("all", _) => cmd_all(cli.args),
            ("ledger", _) => Ok(cmd_ledger()),
            (other, _) => Err(format!("unknown command {other:?}\n{USAGE}")),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("bxperf: {e}");
        ExitCode::from(2)
    })
}
