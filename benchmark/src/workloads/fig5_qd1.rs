//! `fig5_qd1` — the paper's own microbenchmark (Fig. 5 + Table 1 shape):
//! synchronous QD-1 block writes, NAND off, `Serial`, over the cells
//! {32…1024 B} × {PRP, BandSlim, ByteExpress, Hybrid(256 B)}.
//!
//! Chosen because it is the hot path ROADMAP items 2–3 restructure: driver
//! submit engines, NVMe codec and rings, TLP accounting, host memory and
//! clock, controller fetch, `Device` glue. It bypasses NAND/FTL, `kvssd`,
//! the reactor and the event queue.

use crate::adapter::{BlockDev, Counters, Method, StageExtractor, StageSums, OPCODE_READ};
use crate::harness::{
    calibrated_ns, closed_form_wire_bytes, repeat_setup, BlockTimer, Outcome, PaperError, RunArgs,
    Stopwatch, Traced, TRACE_FRACTION,
};
use crate::inputs::{Fig5Inputs, BLOCK_OPS};
use crate::metrics::Metric;
use crate::paper;
use crate::span::Spans;
use std::time::{Duration, Instant};

/// Payload sizes of the timed cells.
pub const SIZES: [usize; 6] = [32, 64, 128, 256, 512, 1024];
/// The two sizes the paper's 64 B–4 KB claims also need; run untimed.
const VERIFY_SIZES: [usize; 2] = [2048, 4096];
const VERIFY_OPS: usize = 10_000;

/// Timed ops per cell per `--seconds`: the issue's 1 250 000 per cell for a
/// ≈20 s region, i.e. what this box does at the seed commit's speed.
const OPS_PER_CELL_PER_S: u64 = 62_500;
const SETUP_REPEATS: usize = 5;
/// Two blocks per cell: long enough that set-up time tracks the simulator's
/// speed instead of timer noise.
const WARMUP_OPS_PER_CELL: usize = 2 * BLOCK_OPS;

/// Rounds of one 4096-op block per cell.
fn rounds(seconds: u64) -> u64 {
    (OPS_PER_CELL_PER_S * seconds / BLOCK_OPS as u64).max(1)
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    size: usize,
    method: Method,
    ops: u64,
    lat_sum_ns: u64,
    wire_bytes: u64,
}

impl Cell {
    fn new(size: usize, method: Method) -> Self {
        Cell {
            size,
            method,
            ops: 0,
            lat_sum_ns: 0,
            wire_bytes: 0,
        }
    }
    fn wire_per_op(&self) -> f64 {
        self.wire_bytes as f64 / self.ops as f64
    }
    fn mean_lat_ns(&self) -> f64 {
        self.lat_sum_ns as f64 / self.ops as f64
    }
}

fn timed_cells() -> Vec<Cell> {
    SIZES
        .iter()
        .flat_map(|&s| Method::ALL.map(|m| Cell::new(s, m)))
        .collect()
}

struct State {
    dev: BlockDev,
    inp: Fig5Inputs,
}

/// Generates inputs, builds the device with `build`, and warms every cell.
fn setup_with(seed: u64, build: impl FnOnce() -> BlockDev) -> State {
    let inp = Fig5Inputs::generate(seed);
    let mut dev = build();
    for cell in timed_cells() {
        for i in (0..WARMUP_OPS_PER_CELL).map(|i| i % BLOCK_OPS) {
            let off = inp.offs[i] as usize;
            dev.write(
                inp.lbas[i] as u64,
                &inp.pool[off..off + cell.size],
                cell.method,
            )
            .expect("warm-up write");
        }
    }
    State { dev, inp }
}

fn setup(seed: u64) -> State {
    setup_with(seed, || BlockDev::build(false, false))
}

/// One block of `cell` through `write`; accounts latency, wire bytes and
/// failures. Returns the counters after the block.
fn run_block(
    st: &mut State,
    cell: &mut Cell,
    out: &mut Outcome,
    op0: u64,
    n: usize,
    write: &mut impl FnMut(&mut BlockDev, u64, &[u8], Method, u64) -> Result<u64, String>,
) {
    let before = st.dev.counters();
    for i in 0..n {
        let j = i % BLOCK_OPS;
        let off = st.inp.offs[j] as usize;
        let data = &st.inp.pool[off..off + cell.size];
        match write(
            &mut st.dev,
            st.inp.lbas[j] as u64,
            data,
            cell.method,
            op0 + i as u64,
        ) {
            Ok(lat) => {
                out.sim.lat.record(lat);
                cell.lat_sum_ns += lat;
            }
            Err(e) => out.fail(1, || {
                format!("{} {} B: {e}", cell.method.label(), cell.size)
            }),
        }
    }
    cell.ops += n as u64;
    cell.wire_bytes += st.dev.counters().since(&before).link_bytes;
}

/// Holds a cell to the closed-form TLP arithmetic; every op of the cell
/// moved the same bytes, so a mismatch fails all of them.
fn check_wire(cell: &Cell, out: &mut Outcome) {
    let want = closed_form_wire_bytes(cell.method, cell.size) * cell.ops;
    if cell.wire_bytes != want {
        out.fail(cell.ops, || {
            format!(
                "{} {} B: {} wire bytes/op, closed form says {}",
                cell.method.label(),
                cell.size,
                cell.wire_per_op(),
                closed_form_wire_bytes(cell.method, cell.size)
            )
        });
    }
}

/// The timed region: `rounds` rounds of one block per cell, interleaved.
/// `block_end` runs after each block outside the block's own timing and
/// returns how long it took, so a traced pass can drain its recorder there.
fn drive(
    st: &mut State,
    rounds: u64,
    mut write: impl FnMut(&mut BlockDev, u64, &[u8], Method, u64) -> Result<u64, String>,
    mut block_end: impl FnMut(&mut BlockDev) -> Duration,
) -> (Outcome, Vec<Cell>) {
    let mut out = Outcome {
        block_ops: BLOCK_OPS as u64,
        ..Outcome::default()
    };
    let mut cells = timed_cells();
    let start = st.dev.counters();
    let mut paused = Duration::ZERO;
    let watch = Stopwatch::start();
    let mut blocks = BlockTimer::start();
    for _ in 0..rounds {
        for cell in cells.iter_mut() {
            let op0 = out.ops;
            run_block(st, cell, &mut out, op0, BLOCK_OPS, &mut write);
            out.ops += BLOCK_OPS as u64;
            blocks.lap(BLOCK_OPS as u64);
            paused += block_end(&mut st.dev);
            blocks.skip();
        }
    }
    let mut timed = watch.stop();
    timed.wall -= paused;
    out.set_timed(timed);
    out.blocks = blocks.blocks;
    out.counts = st.dev.counters().since(&start);
    out.sim.virt_ns = out.counts.virt_ns;
    for cell in &cells {
        check_wire(cell, &mut out);
    }
    out.extra = method_rates(&out, &cells);
    (out, cells)
}

/// Host ns/op per method on the reference clock, over that method's six
/// cells. Block `i` of the region ran cell `i % cells`.
fn method_rates(out: &Outcome, cells: &[Cell]) -> Vec<Metric> {
    let per_block = calibrated_ns(&out.blocks);
    Method::ALL
        .iter()
        .map(|&m| {
            let (ns, blocks) = per_block
                .iter()
                .enumerate()
                .filter(|(i, _)| cells[i % cells.len()].method == m)
                .fold((0.0, 0u64), |(ns, n), (_, b)| (ns + b, n + 1));
            Metric::new(
                format!("fig5.{}.host_ns_per_op", m.label()),
                ns / (blocks * BLOCK_OPS as u64) as f64,
                "ns",
            )
        })
        .collect()
}

/// Writes every method × size to a NAND-backed device and reads the bytes
/// back, then a sample of the schedule's LBAs.
fn verify_readback(st: &State, out: &mut Outcome) {
    let mut dev = BlockDev::build(true, false);
    let mut check = |dev: &mut BlockDev, lba: u64, data: &[u8], m: Method| {
        let ok = dev.write(lba, data, m).is_ok()
            && dev.read(lba, data.len()).is_ok_and(|got| got == data);
        if !ok {
            out.fail(1, || {
                format!(
                    "read-back of {} B via {} at LBA {lba} differs",
                    data.len(),
                    m.label()
                )
            });
        }
    };
    let mut lba = 0;
    for &size in SIZES.iter().chain(&VERIFY_SIZES) {
        for m in Method::ALL {
            let off = st.inp.offs[lba as usize] as usize;
            check(&mut dev, lba, &st.inp.pool[off..off + size], m);
            lba += 1;
        }
    }
    for i in (0..BLOCK_OPS).step_by(BLOCK_OPS / 64) {
        let off = st.inp.offs[i] as usize;
        let m = Method::ALL[i / 64 % 4];
        check(
            &mut dev,
            st.inp.lbas[i] as u64,
            &st.inp.pool[off..off + 200],
            m,
        );
    }
}

/// Table 1's eight values from recorder stages: driver submit is the
/// `driver_submit` stage; controller fetch is `sqe_fetch`, plus the chunk
/// gather (`data_fetch`) for ByteExpress.
///
/// The PRP row's submit value is taken from PRP *reads*: Table 1 counts the
/// SQE insert alone, and a PRP write's submit stage also holds the host-side
/// page mapping (`prp_setup`), which no recorder event separates out.
fn table1(stages: &StageExtractor, paper_err: &mut PaperError) {
    let mut push = |id: &str, submit: f64, fetch: f64| {
        let submit_id = format!("{id}.driver_submit_ns");
        let fetch_id = format!("{id}.controller_fetch_ns");
        paper_err.push(&submit_id, submit, paper::claim(&submit_id));
        paper_err.push(&fetch_id, fetch, paper::claim(&fetch_id));
    };
    let prp_read = stages.total(|opcode| opcode == OPCODE_READ);
    push(
        "table1.prp",
        prp_read.mean(0),
        stages.write_cell(Method::Prp, 64).mean(2),
    );
    for size in [64, 128, 256] {
        let s: StageSums = stages.write_cell(Method::ByteExpress, size);
        push(
            &format!("table1.byteexpress_{size}b"),
            s.mean(0),
            s.mean(2) + s.mean(3),
        );
    }
}

/// Ops per Table 1 cell in a traced replay.
const TABLE1_OPS: usize = 256;

/// Replays the Table 1 cells — PRP and ByteExpress 64/128/256 B writes,
/// plus PRP reads — into `stages`.
fn table1_replay(dev: &mut BlockDev, inp: &Fig5Inputs, stages: &mut StageExtractor) {
    for (method, size) in [
        (Method::Prp, 64),
        (Method::ByteExpress, 64),
        (Method::ByteExpress, 128),
        (Method::ByteExpress, 256),
    ] {
        for i in 0..TABLE1_OPS {
            let off = inp.offs[i] as usize;
            dev.write(inp.lbas[i] as u64, &inp.pool[off..off + size], method)
                .expect("table-1 replay write");
        }
    }
    for i in 0..TABLE1_OPS {
        dev.read(inp.lbas[i] as u64, 64)
            .expect("table-1 replay read");
    }
    dev.drain_events(stages);
}

/// The verification pass: read-back, the untimed 2 KB / 4 KB cells, and
/// this workload's paper figures.
fn verify(st: &mut State, cells: &[Cell], out: &mut Outcome) {
    verify_readback(st, out);

    let mut all = cells.to_vec();
    for &size in &VERIFY_SIZES {
        for m in [Method::Prp, Method::BandSlim, Method::ByteExpress] {
            let mut cell = Cell::new(size, m);
            // Scored against the closed form, but not part of the timed
            // region's latency tally or op count.
            let mut scratch = Outcome::default();
            run_block(
                st,
                &mut cell,
                &mut scratch,
                0,
                VERIFY_OPS,
                &mut |d, l, b, m, _| d.write(l, b, m),
            );
            check_wire(&cell, &mut scratch);
            out.failed += scratch.failed;
            out.failures.extend(scratch.failures);
            all.push(cell);
        }
    }
    let cell = |m: Method, size: usize| {
        *all.iter()
            .find(|c| c.method == m && c.size == size)
            .expect("cell was run")
    };
    let cut = |ours: f64, base: f64| 100.0 * (1.0 - ours / base);

    let mut p = PaperError::default();
    let id = "fig5.traffic_cut_vs_prp_64b_pct";
    p.push(
        id,
        cut(
            cell(Method::ByteExpress, 64).wire_per_op(),
            cell(Method::Prp, 64).wire_per_op(),
        ),
        paper::claim(id),
    );
    let id = "fig5.max_traffic_cut_vs_bandslim_64b_4kb_pct";
    let best = [64, 128, 256, 512, 1024, 2048, 4096]
        .iter()
        .map(|&s| {
            cut(
                cell(Method::ByteExpress, s).wire_per_op(),
                cell(Method::BandSlim, s).wire_per_op(),
            )
        })
        .fold(f64::MIN, f64::max);
    p.push(id, best, paper::claim(id));
    let id = "fig5.max_latency_cut_vs_prp_32_128b_pct";
    let best = [32, 64, 128]
        .iter()
        .map(|&s| {
            cut(
                cell(Method::ByteExpress, s).mean_lat_ns(),
                cell(Method::Prp, s).mean_lat_ns(),
            )
        })
        .fold(f64::MIN, f64::max);
    p.push(id, best, paper::claim(id));
    let id = "fig5.latency_cut_vs_bandslim_128b_pct";
    p.push(
        id,
        cut(
            cell(Method::ByteExpress, 128).mean_lat_ns(),
            cell(Method::BandSlim, 128).mean_lat_ns(),
        ),
        paper::claim(id),
    );
    let mut stages = StageExtractor::new();
    table1_replay(&mut BlockDev::build(false, true), &st.inp, &mut stages);
    table1(&stages, &mut p);
    out.sim.paper = Some(p);
}

pub fn run(args: RunArgs) -> Outcome {
    let (mut st, setup_s, samples) = repeat_setup(SETUP_REPEATS, || setup(args.seed));
    let (mut out, cells) = drive(
        &mut st,
        rounds(args.seconds),
        |d, l, b, m, _| d.write(l, b, m),
        |_| Duration::ZERO,
    );
    out.setup_s = setup_s;
    out.setup_samples = samples;
    verify(&mut st, &cells, &mut out);
    out
}

pub fn trace(args: RunArgs) -> (Outcome, Traced) {
    let rounds = (rounds(args.seconds) / TRACE_FRACTION).max(1);
    let mut plain_st = setup(args.seed);
    let (mut plain, cells) = drive(
        &mut plain_st,
        rounds,
        |d, l, b, m, _| d.write(l, b, m),
        |_| Duration::ZERO,
    );
    verify(&mut plain_st, &cells, &mut plain);
    drop(plain_st);

    let mut spans = Spans::new();
    let mut stages = StageExtractor::new();
    let mut st = setup_with(args.seed, || {
        spans.scope("core.device.build", u64::MAX, || {
            BlockDev::build(false, true)
        })
    });
    // The warm-up's events belong to no timed op.
    st.dev.drain_events(&mut StageExtractor::new());
    let (outcome, _) = drive(
        &mut st,
        rounds,
        |d, l, b, m, op| d.write_spanned(l, b, m, op, &mut spans),
        |d| {
            let t = Instant::now();
            d.drain_events(&mut stages);
            t.elapsed()
        },
    );
    // Every command of the timed region is a harness op with an exact
    // latency. Table 1's rows come from a replay after it, so that the
    // check below and the stage means cover the timed ops only.
    let checked_stages = stages.total(|_| true);
    let mut table1_stages = StageExtractor::new();
    table1_replay(&mut st.dev, &st.inp, &mut table1_stages);
    let mut p = PaperError::default();
    table1(&table1_stages, &mut p);
    let traced = Traced {
        checked_latency_ns: outcome.sim.lat.sum(),
        checked_count: outcome.sim.lat.count(),
        checked_stages,
        outcome,
        spans,
        stages,
        // The worst Table 1 row as the traced device reproduces it.
        extra: vec![Metric::new("sim.table1.err_pct", p.max_pct(), "%")],
    };
    (plain, traced)
}

/// A 64 B ByteExpress QD-1 loop on its own device: the end-to-end figure
/// the ledger reconciles against. Returns the counters per op alongside.
pub fn byteexpress_64b_loop() -> (impl FnMut(u64), impl FnOnce() -> Counters) {
    use std::cell::RefCell;
    use std::rc::Rc;
    let dev = Rc::new(RefCell::new(BlockDev::build(false, false)));
    let data = [0xA5u8; 64];
    let d = Rc::clone(&dev);
    let run = move |n: u64| {
        let mut dev = d.borrow_mut();
        for i in 0..n {
            dev.write(i % 512 * 8, &data, Method::ByteExpress)
                .expect("ledger write");
        }
    };
    (run, move || dev.borrow_mut().counters())
}
