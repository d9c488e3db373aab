//! `crash_rebuild` — the device life-cycle, the unit the test suite and the
//! crash sweep pay per case. One op is one cycle: open a durable-PUT
//! `KvStore` → 12 PUTs with a power cut armed at a swept event index
//! (alternating Serial/queue-local and Pipelined/reassembly) → hard power
//! cycle → GET all 5 keys → durable-linearizability check.
//!
//! Chosen because it is construction- and recovery-bound: `DeviceBuilder`,
//! host-memory allocation and zeroing, FTL recovery and journal replay, the
//! KV index rebuild. The steady-state submit path is negligible here, and
//! this is where eager `vec![0; cap]` allocation shows (as sys time).

use crate::adapter::{Counters, Kv, KvCfg, Method, StageExtractor, OPCODE_KV_PUT};
use crate::harness::{
    nand_write_amp, repeat_setup, BlockTimer, Outcome, RunArgs, Stopwatch, Traced, TRACE_FRACTION,
};
use crate::inputs::{CrashCycle, CrashInputs, CRASH_KEYS, CRASH_PUTS};
use crate::span::{maybe_scope, Spans};

/// Timed cycles per `--seconds`: the issue's 800 for a ≈20 s region.
const CYCLES_PER_S: u64 = 40;
const WARMUP_CYCLES: usize = 4;
const SETUP_REPEATS: usize = 5;

fn key(i: usize) -> [u8; 12] {
    let mut k = *b"crash-key-00";
    k[11] = b'0' + (i % CRASH_KEYS) as u8;
    k
}

/// What one cycle left behind, for the sums the harness keeps.
struct CycleResult {
    counters: Counters,
    reassembly_peak: u64,
    put_latencies: Vec<u64>,
    failures: Vec<String>,
}

/// One full life-cycle. `spans`, when given, gets a `crash.cycle` root with
/// `kvssd.open`, `kvssd.put`, `ssd.power_cycle`, `kvssd.get` children.
fn run_cycle(
    pool: &[u8],
    cycle: &CrashCycle,
    id: u64,
    trace: bool,
    mut spans: Option<&mut Spans>,
    stages: Option<&mut StageExtractor>,
) -> CycleResult {
    macro_rules! span {
        ($name:expr, $body:expr) => {
            maybe_scope(spans.as_deref_mut(), $name, id, || $body)
        };
    }
    let mut failures = Vec::new();
    if let Some(s) = spans.as_deref_mut() {
        s.enter("crash.cycle", id);
    }
    let cfg = KvCfg {
        method: Method::ByteExpress,
        crash: true,
        pipelined: cycle.pipelined,
    };
    let mut kv = span!("kvssd.open", Kv::open(cfg, trace));
    kv.arm_power_cut(cycle.cut_after);

    // The crash sweep's bookkeeping: the last acked value per key, and the
    // PUT that was in flight when the lights went out (if any).
    let mut acked: [Option<&[u8]>; CRASH_KEYS] = [None; CRASH_KEYS];
    let mut in_flight: Option<(usize, &[u8])> = None;
    let mut put_latencies = Vec::with_capacity(CRASH_PUTS);
    for (i, &(off, len)) in cycle.values.iter().enumerate() {
        let value = &pool[off as usize..off as usize + len as usize];
        match span!("kvssd.put", kv.put(&key(i), value)) {
            Ok(lat) => {
                put_latencies.push(lat);
                acked[i % CRASH_KEYS] = Some(value);
            }
            Err(_) => {
                in_flight = Some((i % CRASH_KEYS, value));
                break;
            }
        }
    }
    let cut_fired = kv.disarm_power_cut();
    if in_flight.is_some() && !cut_fired {
        failures.push(format!("cycle {id}: a PUT failed without a power cut"));
    }
    let replayed = match span!("ssd.power_cycle", kv.hard_power_cycle()) {
        Ok(r) => r,
        Err(e) => {
            failures.push(format!("cycle {id}: bring-up after the cut failed: {e}"));
            0
        }
    };
    // Durable linearizability: an acked PUT reads back bit-exact; the key of
    // the in-flight PUT holds its old or its new value (or, if never acked,
    // nothing) but never a torn one.
    for (k, acked) in acked.iter().enumerate() {
        let got = match span!("kvssd.get", kv.get(&key(k))) {
            Ok(g) => g,
            Err(e) => {
                failures.push(format!("cycle {id}: post-recovery GET failed: {e}"));
                continue;
            }
        };
        let got = got.as_deref();
        let new = in_flight.filter(|(ik, _)| *ik == k).map(|(_, v)| v);
        if got != *acked && (new.is_none() || got != new) {
            failures.push(format!(
                "cycle {id} (cut {}, {}): key {k} lost, corrupted or torn",
                cycle.cut_after,
                if cycle.pipelined {
                    "pipelined"
                } else {
                    "serial"
                }
            ));
        }
    }
    let mut counters = kv.counters();
    counters.journal_replayed = replayed;
    let reassembly_peak = kv.reassembly_peak_inflight();
    if let Some(st) = stages {
        kv.drain_events(st);
    }
    drop(kv);
    if let Some(s) = spans {
        s.exit();
    }
    CycleResult {
        counters,
        reassembly_peak,
        put_latencies,
        failures,
    }
}

/// `cycles` life-cycles back to back, starting at input index `from`.
/// Returns the outcome and the summed PUT latency for the trace check.
fn drive(
    inp: &CrashInputs,
    from: usize,
    cycles: usize,
    trace: bool,
    mut spans: Option<&mut Spans>,
    mut stages: Option<&mut StageExtractor>,
) -> Outcome {
    // One block per cycle: a cycle is ~20 ms, and clock levels move on
    // that scale.
    let mut out = Outcome {
        block_ops: 1,
        ..Outcome::default()
    };
    let watch = Stopwatch::start();
    let mut blocks = BlockTimer::start();
    for (i, cycle) in inp.cycles[from..from + cycles].iter().enumerate() {
        let r = run_cycle(
            &inp.pool,
            cycle,
            i as u64,
            trace,
            spans.as_deref_mut(),
            stages.as_deref_mut(),
        );
        out.ops += 1;
        out.counts.add(&r.counters);
        out.reassembly_peak_inflight = out.reassembly_peak_inflight.max(r.reassembly_peak);
        for lat in r.put_latencies {
            out.sim.lat.record(lat);
        }
        if !r.failures.is_empty() {
            out.failed += 1;
            out.failures.extend(r.failures);
            out.failures.truncate(8);
        }
        blocks.lap(1);
    }
    out.set_timed(watch.stop());
    out.blocks = blocks.blocks;
    // Each cycle's clock starts at zero, so the sum of the per-cycle totals
    // is the virtual time of the whole region.
    out.sim.virt_ns = out.counts.virt_ns;
    out.sim.nand_write_amp = nand_write_amp(&out.counts);
    out
}

fn cycles_for(seconds: u64) -> usize {
    (CYCLES_PER_S * seconds) as usize
}

/// Set-up: the cycle schedule, plus a few untimed cycles so the allocator
/// and page cache have seen a device come and go.
fn setup(seed: u64, cycles: usize) -> CrashInputs {
    let inp = CrashInputs::generate(seed, WARMUP_CYCLES + cycles);
    let warm = drive(&inp, 0, WARMUP_CYCLES, false, None, None);
    assert_eq!(warm.failed, 0, "warm-up cycle failed: {:?}", warm.failures);
    inp
}

pub fn run(args: RunArgs) -> Outcome {
    let cycles = cycles_for(args.seconds);
    let (inp, setup_s, samples) = repeat_setup(SETUP_REPEATS, || setup(args.seed, cycles));
    let mut out = drive(&inp, WARMUP_CYCLES, cycles, false, None, None);
    out.setup_s = setup_s;
    out.setup_samples = samples;
    out
}

pub fn trace(args: RunArgs) -> (Outcome, Traced) {
    let cycles = (cycles_for(args.seconds) / TRACE_FRACTION as usize).max(8);
    let inp = setup(args.seed, cycles);
    let plain = drive(&inp, WARMUP_CYCLES, cycles, false, None, None);

    let mut spans = Spans::new();
    let mut stages = StageExtractor::new();
    let outcome = drive(
        &inp,
        WARMUP_CYCLES,
        cycles,
        true,
        Some(&mut spans),
        Some(&mut stages),
    );
    // The acked PUTs are the commands the harness has exact latencies for;
    // a PUT cut down in flight never reaches `CompletionConsumed`.
    let traced = Traced {
        checked_stages: stages.total(|opcode| opcode == OPCODE_KV_PUT),
        checked_latency_ns: outcome.sim.lat.sum(),
        checked_count: outcome.sim.lat.count(),
        outcome,
        spans,
        stages,
        extra: Vec::new(),
    };
    (plain, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_the_crash_sweeps_five() {
        assert_eq!(&key(0), b"crash-key-00");
        assert_eq!(&key(4), b"crash-key-04");
        assert_eq!(key(5), key(0));
    }
}
