//! `kv_mixed` — the paper's Fig. 6 application: a `KvStore` (ByteExpress,
//! NAND on, hash-log engine, `Serial`) preloaded with 200 000 MixGraph keys,
//! then 50 % PUT (MixGraph value sizes) / 50 % GET with Zipf(0.99) keys.
//!
//! Chosen because it is the only workload with reads and with `kvssd`:
//! store, firmware, FTL/journal/NAND through page packing. It bypasses the
//! reactor, batching, and the PRP/BandSlim submit engines.

use crate::adapter::{fig6_replay, Kv, KvCfg, Method, StageExtractor, OPCODE_KV_PUT};
use crate::harness::{
    nand_write_amp, repeat_setup, BlockTimer, Outcome, PaperError, RunArgs, Stopwatch, Traced,
    TRACE_FRACTION,
};
use crate::inputs::{KvInputs, KvOp, BLOCK_OPS};
use crate::paper;
use crate::span::{maybe_scope, Spans};
use std::time::{Duration, Instant};

/// Timed ops per `--seconds`: the issue's 12 M for a ≈20 s region.
const OPS_PER_S: u64 = 600_000;
/// The value log holds 98 304 pages; at ~77 entries a page this many ops
/// (half of them PUTs) plus the preload still fit with a margin.
const MAX_OPS: u64 = 13_000_000;
const SETUP_REPEATS: usize = 3;
/// PUTs per method in the untimed Fig. 6(a) replay.
const FIG6_PUTS: usize = 50_000;

const CFG: KvCfg = KvCfg {
    method: Method::ByteExpress,
    crash: false,
    pipelined: false,
};

pub fn ops_for(seconds: u64) -> Result<u64, String> {
    let ops = OPS_PER_S * seconds / BLOCK_OPS as u64 * BLOCK_OPS as u64;
    if ops > MAX_OPS {
        return Err(format!(
            "kv_mixed: --seconds {seconds} asks for {ops} ops, more than the value log holds ({MAX_OPS})"
        ));
    }
    Ok(ops.max(BLOCK_OPS as u64))
}

struct State {
    kv: Kv,
    inp: KvInputs,
    /// Host-side shadow: the (pool offset, length) each key last stored.
    shadow: Vec<KvOp>,
}

fn setup_with(seed: u64, ops: u64, open: impl FnOnce() -> Kv) -> State {
    let inp = KvInputs::generate(seed, ops as usize);
    let mut kv = open();
    for op in &inp.preload {
        kv.put(
            &inp.keys[op.key()],
            &inp.pool[op.off()..op.off() + op.len()],
        )
        .expect("preload PUT");
    }
    State {
        kv,
        shadow: inp.preload.clone(),
        inp,
    }
}

/// The op stream, `n` ops from the start. `spans` turns each op into a
/// `kvssd.put` / `kvssd.get` span; `block_end` runs between blocks outside
/// their timing. Returns the outcome and, for the trace check, the summed
/// latency of the PUTs.
fn drive(
    st: &mut State,
    n: u64,
    mut spans: Option<&mut Spans>,
    mut block_end: impl FnMut(&mut Kv) -> Duration,
) -> (Outcome, u128, u64) {
    let mut out = Outcome {
        block_ops: BLOCK_OPS as u64,
        ..Outcome::default()
    };
    let (mut put_lat_sum, mut puts) = (0u128, 0u64);
    let start = st.kv.counters();
    let mut paused = Duration::ZERO;
    let watch = Stopwatch::start();
    let mut blocks = BlockTimer::start();
    for block in st.inp.ops[..n as usize].chunks(BLOCK_OPS) {
        for &op in block {
            let key = &st.inp.keys[op.key()];
            let id = out.ops;
            out.ops += 1;
            if op.is_put() {
                let value = &st.inp.pool[op.off()..op.off() + op.len()];
                let done = maybe_scope(spans.as_deref_mut(), "kvssd.put", id, || {
                    st.kv.put(key, value)
                });
                match done {
                    Ok(lat) => {
                        out.sim.lat.record(lat);
                        put_lat_sum += lat as u128;
                        puts += 1;
                        st.shadow[op.key()] = op;
                    }
                    Err(e) => out.fail(1, || format!("PUT #{id}: {e}")),
                }
            } else {
                // `KvStore::get` returns the value, not the completion, so
                // a GET's latency is the virtual clock across the call —
                // which also covers the CQ-head doorbell after completion.
                let t0 = st.kv.now_ns();
                let got = maybe_scope(spans.as_deref_mut(), "kvssd.get", id, || st.kv.get(key));
                out.sim.lat.record(st.kv.now_ns() - t0);
                let want = st.shadow[op.key()];
                let want = &st.inp.pool[want.off()..want.off() + want.len()];
                match got {
                    Ok(Some(v)) if v == want => {}
                    Ok(_) => out.fail(1, || {
                        format!("GET #{id}: value differs from the shadow map")
                    }),
                    Err(e) => out.fail(1, || format!("GET #{id}: {e}")),
                }
            }
        }
        blocks.lap(block.len() as u64);
        paused += block_end(&mut st.kv);
        blocks.skip();
    }
    let mut timed = watch.stop();
    timed.wall -= paused;
    out.set_timed(timed);
    out.blocks = blocks.blocks;
    out.counts = st.kv.counters().since(&start);
    out.sim.virt_ns = out.counts.virt_ns;
    out.sim.nand_write_amp = nand_write_amp(&out.counts);
    (out, put_lat_sum, puts)
}

/// Fig. 6(a): the same MixGraph PUT replay through BandSlim and ByteExpress
/// on fresh stores; traffic ratio and throughput gain against the paper's.
fn paper_figures(seed: u64, out: &mut Outcome) {
    let mut p = PaperError::default();
    match (
        fig6_replay(seed, FIG6_PUTS, Method::BandSlim),
        fig6_replay(seed, FIG6_PUTS, Method::ByteExpress),
    ) {
        (Ok((bs_wire, bs_ns)), Ok((bx_wire, bx_ns))) => {
            let id = "fig6a.byteexpress_over_bandslim_traffic_ratio";
            p.push(id, bx_wire as f64 / bs_wire as f64, paper::claim(id));
            let id = "fig6a.byteexpress_over_bandslim_throughput_gain_pct";
            // Same PUT count both ways, so the throughput ratio is the
            // inverse ratio of virtual time.
            p.push(
                id,
                100.0 * (bs_ns as f64 / bx_ns as f64 - 1.0),
                paper::claim(id),
            );
        }
        (a, b) => out.fail(1, || {
            format!("Fig. 6(a) replay failed: {:?} / {:?}", a.err(), b.err())
        }),
    }
    out.sim.paper = Some(p);
}

pub fn run(args: RunArgs) -> Result<Outcome, String> {
    let ops = ops_for(args.seconds)?;
    let (mut st, setup_s, samples) = repeat_setup(SETUP_REPEATS, || {
        setup_with(args.seed, ops, || Kv::open(CFG, false))
    });
    let (mut out, _, _) = drive(&mut st, ops, None, |_| Duration::ZERO);
    out.setup_s = setup_s;
    out.setup_samples = samples;
    drop(st);
    paper_figures(args.seed, &mut out);
    Ok(out)
}

pub fn trace(args: RunArgs) -> Result<(Outcome, Traced), String> {
    let ops = ops_for(args.seconds)?;
    let n = (ops / TRACE_FRACTION).max(BLOCK_OPS as u64);
    // Both passes generate the full stream and replay its first 1/64, so
    // the prefix is the one `run` executes.
    let mut plain_st = setup_with(args.seed, ops, || Kv::open(CFG, false));
    let (mut plain, _, _) = drive(&mut plain_st, n, None, |_| Duration::ZERO);
    drop(plain_st);
    paper_figures(args.seed, &mut plain);

    let mut spans = Spans::new();
    let mut stages = StageExtractor::new();
    let mut st = setup_with(args.seed, ops, || {
        spans.scope("kvssd.open", u64::MAX, || Kv::open(CFG, true))
    });
    // The preload's events belong to no timed op.
    st.kv.drain_events(&mut StageExtractor::new());
    let (outcome, put_lat_sum, puts) = drive(&mut st, n, Some(&mut spans), |kv| {
        let t = Instant::now();
        kv.drain_events(&mut stages);
        t.elapsed()
    });
    let traced = Traced {
        checked_stages: stages.total(|opcode| opcode == OPCODE_KV_PUT),
        checked_latency_ns: put_lat_sum,
        checked_count: puts,
        outcome,
        spans,
        stages,
        extra: Vec::new(),
    };
    Ok((plain, traced))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_are_whole_blocks_and_bounded() {
        assert_eq!(ops_for(12).unwrap() % BLOCK_OPS as u64, 0);
        assert!(ops_for(12).unwrap() <= 600_000 * 12);
        assert!(ops_for(20).is_ok());
        assert!(ops_for(60).is_err());
    }
}
