//! `mq_reactor` and `mq_reactor_nand` — the same driver layer used the
//! other way: the async `Reactor`, 4 shards × 8 client futures, `Pipelined`,
//! ByteExpress writes cycling {64,64,128,64,256,64,512,128} B inside each
//! client's 256-LBA window.
//!
//! The pair runs one client program and differs only in the NAND switch.
//! NAND off exercises the executor, waker dispatch, backpressure, doorbell
//! batching, the arbiter, the event queue and the pipelined controller, and
//! bypasses NAND/FTL and the synchronous path. NAND on adds one out-of-place
//! page program per write with GC at steady state, which is ~90 % of its
//! host time — so the pair isolates what NAND/FTL/journal cost the host.

use crate::adapter::{Mq, MqClient, StageExtractor, Task};
use crate::harness::{
    nand_write_amp, repeat_setup, BlockTimer, Outcome, RunArgs, Stopwatch, Traced, TRACE_FRACTION,
};
use crate::inputs::{byte_pool, mq_op, BLOCK_OPS, MQ_CLIENTS_PER_SHARD, MQ_SHARDS, MQ_WINDOW};
use crate::span::Spans;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

const CLIENTS: usize = MQ_SHARDS * MQ_CLIENTS_PER_SHARD;

/// Timed ops per `--seconds`: the issue's 40 M (NAND off) and 3.5 M (NAND
/// on) for ≈20 s regions.
const OPS_PER_S: u64 = 2_000_000;
const OPS_PER_S_NAND: u64 = 175_000;
/// Warm-up writes. NAND on: enough out-of-place writes to fill the array
/// (131 072 pages) so GC is already cycling when timing starts.
const WARMUP_OPS: u64 = 131_072;
const WARMUP_OPS_NAND: u64 = 147_456;
const SETUP_REPEATS: usize = 5;
const SETUP_REPEATS_NAND: usize = 3;
/// LBAs per client read back after a NAND-on run.
const READBACK_PER_CLIENT: u64 = 8;

fn per_client(total: u64) -> u64 {
    (total / CLIENTS as u64).max(1)
}

/// What the client futures share with the harness.
#[derive(Default)]
struct Shared {
    out: Outcome,
    blocks: Option<BlockTimer>,
    in_block: u64,
}

struct State {
    mq: Mq,
    pool: Rc<Vec<u8>>,
    /// Writes each client has issued so far (warm-up included).
    issued: u64,
}

/// One client: `count` sequential awaited writes starting at index `from`.
fn client_task(
    client: MqClient,
    id: usize,
    pool: Rc<Vec<u8>>,
    shared: Rc<RefCell<Shared>>,
    from: u64,
    count: u64,
) -> Task<()> {
    Box::pin(async move {
        for i in from..from + count {
            let (lba, off, len) = mq_op(id, i);
            let done = client.write(lba, &pool[off..off + len]).await;
            let mut sh = shared.borrow_mut();
            let sh = &mut *sh;
            sh.out.ops += 1;
            match done {
                Ok(lat) => sh.out.sim.lat.record(lat),
                Err(e) => sh.out.fail(1, || format!("client {id} write #{i}: {e}")),
            }
            sh.in_block += 1;
            if sh.in_block == BLOCK_OPS as u64 {
                sh.in_block = 0;
                if let Some(b) = sh.blocks.as_mut() {
                    b.lap(BLOCK_OPS as u64);
                }
            }
        }
    })
}

fn tasks(st: &State, shared: &Rc<RefCell<Shared>>, count: u64) -> Vec<Task<()>> {
    (0..CLIENTS)
        .map(|id| {
            client_task(
                st.mq.client(id / MQ_CLIENTS_PER_SHARD),
                id,
                Rc::clone(&st.pool),
                Rc::clone(shared),
                st.issued,
                count,
            )
        })
        .collect()
}

fn setup(seed: u64, nand: bool, trace: bool) -> Result<State, String> {
    let mut st = State {
        mq: Mq::build(MQ_SHARDS, nand, trace)?,
        pool: Rc::new(byte_pool(seed)),
        issued: 0,
    };
    let warm = per_client(if nand { WARMUP_OPS_NAND } else { WARMUP_OPS });
    let shared = Rc::new(RefCell::new(Shared::default()));
    st.mq.run(tasks(&st, &shared, warm));
    st.issued = warm;
    let warmed = shared.borrow();
    if warmed.out.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warmed.out.failures));
    }
    Ok(st)
}

/// Reads back the last `READBACK_PER_CLIENT` LBAs each client wrote and
/// compares them with what its program put there last.
fn verify_readback(st: &mut State, out: &mut Outcome) {
    let issued = st.issued;
    let reads: Vec<Task<Vec<String>>> = (0..CLIENTS)
        .map(|id| {
            let client = st.mq.client(id / MQ_CLIENTS_PER_SHARD);
            let pool = Rc::clone(&st.pool);
            Box::pin(async move {
                let mut bad = Vec::new();
                for i in issued.saturating_sub(READBACK_PER_CLIENT)..issued {
                    // Every LBA of the window was last written by the final
                    // pass over it, i.e. by write `i` itself here.
                    debug_assert!(issued - i <= MQ_WINDOW);
                    let (lba, off, len) = mq_op(id, i);
                    match client.read(lba, len).await {
                        Ok(got) if got == pool[off..off + len] => {}
                        Ok(_) => bad.push(format!("client {id}: LBA {lba} read back differs")),
                        Err(e) => bad.push(format!("client {id}: read of LBA {lba}: {e}")),
                    }
                }
                bad
            }) as Task<Vec<String>>
        })
        .collect();
    for msg in st.mq.run(reads).into_iter().flatten() {
        out.fail(1, || msg);
    }
}

/// The reactor's own conservation laws, counted as failures when broken.
fn verify_conservation(st: &State, out: &mut Outcome, expected_ops: u64) {
    let c = out.counts;
    let inflight = st.mq.inflight();
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.fail(1, || what);
        }
    };
    check(
        c.reactor_orphaned == 0,
        format!("{} orphaned completion(s)", c.reactor_orphaned),
    );
    check(
        inflight == 0,
        format!("{inflight} command(s) still in flight"),
    );
    check(
        c.reactor_submitted == expected_ops && c.reactor_completed == expected_ops,
        format!(
            "submitted {} / completed {} / expected {expected_ops}",
            c.reactor_submitted, c.reactor_completed
        ),
    );
}

/// The timed region: every client issues `count` more writes. With `spans`
/// the harness runs the executor loop itself, one span per iteration.
fn drive(
    st: &mut State,
    count: u64,
    nand: bool,
    traced: Option<(&mut Spans, &mut StageExtractor)>,
) -> Outcome {
    let shared = Rc::new(RefCell::new(Shared {
        out: Outcome {
            block_ops: BLOCK_OPS as u64,
            ..Outcome::default()
        },
        ..Shared::default()
    }));
    let tasks = tasks(st, &shared, count);
    let start = st.mq.counters();
    let watch = Stopwatch::start();
    shared.borrow_mut().blocks = Some(BlockTimer::start());
    let paused = match traced {
        None => {
            st.mq.run(tasks);
            Duration::ZERO
        }
        Some((spans, stages)) => st.mq.run_spanned(tasks, spans, stages).1,
    };
    let mut timed = watch.stop();
    timed.wall -= paused;
    st.issued += count;
    let shared = Rc::try_unwrap(shared)
        .unwrap_or_else(|_| panic!("client futures outlived the run"))
        .into_inner();
    let mut out = shared.out;
    out.set_timed(timed);
    let mut blocks = shared.blocks.expect("installed before the run");
    if shared.in_block > 0 {
        blocks.lap(shared.in_block);
    }
    out.blocks = blocks.blocks;
    out.counts = st.mq.counters().since(&start);
    out.sim.virt_ns = out.counts.virt_ns;
    if nand {
        out.sim.nand_write_amp = nand_write_amp(&out.counts);
    }
    verify_conservation(st, &mut out, count * CLIENTS as u64);
    out
}

fn total_ops(seconds: u64, nand: bool) -> u64 {
    seconds * if nand { OPS_PER_S_NAND } else { OPS_PER_S }
}

pub fn run(args: RunArgs, nand: bool) -> Result<Outcome, String> {
    let repeats = if nand {
        SETUP_REPEATS_NAND
    } else {
        SETUP_REPEATS
    };
    let (st, setup_s, samples) = repeat_setup(repeats, || setup(args.seed, nand, false));
    let mut st = st?;
    let mut out = drive(
        &mut st,
        per_client(total_ops(args.seconds, nand)),
        nand,
        None,
    );
    out.setup_s = setup_s;
    out.setup_samples = samples;
    if nand {
        verify_readback(&mut st, &mut out);
    }
    Ok(out)
}

pub fn trace(args: RunArgs, nand: bool) -> Result<(Outcome, Traced), String> {
    let count = per_client(total_ops(args.seconds, nand) / TRACE_FRACTION);
    let mut plain_st = setup(args.seed, nand, false)?;
    let mut plain = drive(&mut plain_st, count, nand, None);
    if nand {
        verify_readback(&mut plain_st, &mut plain);
    }
    drop(plain_st);

    let mut spans = Spans::new();
    let mut stages = StageExtractor::new();
    let mut st = setup(args.seed, nand, true)?;
    // The warm-up's recorder events belong to no timed op, and it left
    // nothing in flight, so the extractor starts clean.
    st.mq.drain_events(&mut StageExtractor::new());
    let outcome = drive(&mut st, count, nand, Some((&mut spans, &mut stages)));
    // Every command is a harness write with an exact latency.
    let traced = Traced {
        checked_stages: stages.total(|_| true),
        checked_latency_ns: outcome.sim.lat.sum(),
        checked_count: outcome.sim.lat.count(),
        outcome,
        spans,
        stages,
        extra: Vec::new(),
    };
    Ok((plain, traced))
}
