//! What the five workloads share: the timed region (wall + CPU), per-block
//! timing, repeated set-up, the run outcome, and the derivation of the
//! per-layer `[C]` metrics from a [`Counters`] delta.

use crate::adapter::{Counters, Method, StageExtractor, StageSums, STAGE_NAMES};
use crate::metrics::{median, percentile, Metric, Tally};
use crate::procfs::{self, CpuTime};
use crate::span::Spans;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `--seconds` when the command line does not give one; matches
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;

/// The traced run replays this fraction of the op stream.
pub const TRACE_FRACTION: u64 = 64;

/// What a `run` or `trace` invocation was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    pub seed: u64,
    /// Scales every workload's fixed op count: ops = per-second count at
    /// the seed commit's speed × `seconds`.
    pub seconds: u64,
}

/// Wall and CPU time of one region.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall: Duration,
    pub cpu: CpuTime,
}

/// Measures the timed region: monotonic wall clock plus utime/stime.
pub struct Stopwatch {
    t0: Instant,
    cpu0: CpuTime,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu0: procfs::cpu_time(),
            t0: Instant::now(),
        }
    }

    pub fn stop(self) -> Timed {
        let wall = self.t0.elapsed();
        Timed {
            wall,
            cpu: procfs::cpu_time().since(&self.cpu0),
        }
    }
}

/// One run of the reference kernel on this box at its fastest, in ns
/// (measured at the seed commit). It only fixes the scale: every calibrated
/// host metric is multiplied by the same constant.
pub const REF_NOMINAL_NS: f64 = 12_500.0;

/// The reference kernel: a fixed unit of work that touches no library
/// code, run between blocks to read the machine's current speed.
///
/// This box's vCPUs change speed by 25 % and more for tens of seconds at a
/// time — clock levels, and at times contention that a pure ALU loop does
/// not even feel. What the simulator's hot paths mostly do is allocate small
/// buffers and copy tens to hundreds of bytes into them, so the kernel does
/// exactly that. Measured over 40 s of `mq_reactor` spanning every state
/// seen (block times from 402 to 720 ns/op, a 62 % range), the ratio of
/// block time to kernel time stayed within 5 % end to end, 1.2 % between
/// quartiles; a `BTreeMap` loop and an ALU chain each missed one kind of
/// slowdown by 30–40 %. Dividing host time by the kernel's slowdown takes
/// the machine's state out of the measurement; what is left is the
/// simulator's cost in reference-clock nanoseconds.
pub struct RefKernel {
    src: Vec<u8>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    pub fn new() -> Self {
        RefKernel {
            src: (0..16_384u32).map(|i| (i * 31) as u8).collect(),
        }
    }

    /// Does the unit of work — 1024 allocations of 64 to 448 bytes, each
    /// filled by a copy and read back — and returns how long it took, in ns.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut sink = 0u64;
        for i in 0..1024usize {
            let len = 64 + i % 7 * 64;
            let mut v = Vec::with_capacity(len);
            v.extend_from_slice(&self.src[i * 15..i * 15 + len]);
            sink += black_box(&v)[len - 1] as u64;
        }
        black_box(sink);
        t.elapsed().as_nanos() as f64
    }

    /// Median of `n` runs: the speed reading bracketing an untimed phase.
    pub fn read(&mut self, n: usize) -> f64 {
        median(&(0..n).map(|_| self.run()).collect::<Vec<_>>())
    }
}

/// One timed block and the reference-kernel run that followed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops: u64,
    pub ns: f64,
    pub ref_ns: f64,
}

/// Reference readings are smoothed over this many neighbours on each side:
/// one run can catch an interrupt, while the machine's states last seconds.
const REF_SMOOTH: usize = 4;

/// Each block's duration on the reference clock: `ns * nominal / ref`, with
/// `ref` the median reading around the block.
pub fn calibrated_ns(blocks: &[Block]) -> Vec<f64> {
    let mut window = Vec::with_capacity(2 * REF_SMOOTH + 1);
    blocks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let lo = i.saturating_sub(REF_SMOOTH);
            let hi = (i + REF_SMOOTH + 1).min(blocks.len());
            window.clear();
            window.extend(blocks[lo..hi].iter().map(|b| b.ref_ns));
            b.ns * REF_NOMINAL_NS / median(&window)
        })
        .collect()
}

/// Times consecutive blocks of ops and reads the machine's speed after each.
pub struct BlockTimer {
    last: Instant,
    kernel: RefKernel,
    pub blocks: Vec<Block>,
}

impl BlockTimer {
    pub fn start() -> Self {
        BlockTimer {
            kernel: RefKernel::new(),
            blocks: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Closes a block of `ops` ops, runs the reference kernel, and starts
    /// the next block. Returns the closed block's duration.
    #[inline]
    pub fn lap(&mut self, ops: u64) -> Duration {
        let d = self.last.elapsed();
        let ref_ns = self.kernel.run();
        self.blocks.push(Block {
            ops,
            ns: d.as_nanos() as f64,
            ref_ns,
        });
        self.last = Instant::now();
        d
    }

    /// Restarts the current block now, leaving out whatever ran since the
    /// last lap (a traced pass drains its recorder there).
    #[inline]
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }
}

/// Runs `setup` `repeats` times, dropping each state before building the
/// next so peak RSS holds one instance. Each repeat is bracketed by
/// reference readings and scaled to the reference clock. Returns the last
/// state, the median calibrated duration in seconds, and every sample as
/// (raw seconds, calibrated seconds).
pub fn repeat_setup<S>(repeats: usize, mut setup: impl FnMut() -> S) -> (S, f64, Vec<(f64, f64)>) {
    const READS: usize = 32;
    let mut kernel = RefKernel::new();
    let mut samples = Vec::with_capacity(repeats);
    let mut state = None;
    for _ in 0..repeats {
        drop(state.take());
        let before = kernel.read(READS);
        let t = Instant::now();
        state = Some(setup());
        let raw = t.elapsed().as_secs_f64();
        let after = kernel.read(READS);
        samples.push((raw, raw * REF_NOMINAL_NS / ((before + after) / 2.0)));
    }
    let state = state.expect("at least one set-up repeat");
    let calibrated: Vec<f64> = samples.iter().map(|s| s.1).collect();
    (state, median(&calibrated), samples)
}

/// Simulated-clock results of one pass.
#[derive(Debug, Clone, Default)]
pub struct Sim {
    /// Virtual time from first submit to last completion.
    pub virt_ns: u64,
    pub lat: Tally,
    /// `(host + GC page programs) / host page programs`; only on workloads
    /// that program NAND.
    pub nand_write_amp: Option<f64>,
    /// Max relative error against `reference/paper.json`; only on
    /// workloads the paper has numbers for.
    pub paper: Option<PaperError>,
}

/// A workload's reproduced figures set against the paper's.
#[derive(Debug, Clone, Default)]
pub struct PaperError {
    /// (claim id, reproduced value, paper value, relative error in %).
    pub rows: Vec<(String, f64, f64, f64)>,
}

impl PaperError {
    pub fn push(&mut self, id: &str, ours: f64, paper: f64) {
        let err = 100.0 * (ours - paper).abs() / paper.abs();
        self.rows.push((id.to_string(), ours, paper, err));
    }
    pub fn max_pct(&self) -> f64 {
        self.rows.iter().map(|r| r.3).fold(0.0, f64::max)
    }
}

/// Everything one untraced pass produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops in the timed region (cycles, for `crash_rebuild`).
    pub ops: u64,
    /// Ops that returned an error or failed verification.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Median set-up time, on the reference clock.
    pub setup_s: f64,
    /// Every set-up repeat: (raw seconds, calibrated seconds).
    pub setup_samples: Vec<(f64, f64)>,
    /// Raw wall and CPU time of the timed region (reference-kernel runs and
    /// recorder drains included in neither `wall_s` nor the blocks).
    pub wall_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Every timed block with its reference reading; together they cover
    /// all of the region's ops.
    pub blocks: Vec<Block>,
    pub block_ops: u64,
    pub sim: Sim,
    /// Counter delta over the timed region.
    pub counts: Counters,
    /// Gauges (peaks) that are not deltas.
    pub reassembly_peak_inflight: u64,
    /// Workload-specific extras (e.g. fig5's per-method sub-rates).
    pub extra: Vec<Metric>,
}

impl Outcome {
    /// Records a failed op or check; keeps the first few messages.
    pub fn fail(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why());
        }
    }

    pub fn set_timed(&mut self, t: Timed) {
        self.wall_s = t.wall.as_secs_f64();
        self.cpu_user_s = t.cpu.user_s;
        self.cpu_sys_s = t.cpu.sys_s;
    }

    /// Time inside the blocks, in ns: as the wall clock saw it, and on the
    /// reference clock.
    pub fn block_time_ns(&self) -> (f64, f64) {
        (
            self.blocks.iter().map(|b| b.ns).sum(),
            calibrated_ns(&self.blocks).iter().sum(),
        )
    }

    /// How much slower than the reference clock the machine ran during the
    /// timed region (1.0 = nominal).
    pub fn slowdown(&self) -> f64 {
        let (raw, calibrated) = self.block_time_ns();
        raw / calibrated
    }

    /// The host-clock end-to-end metrics: the contract's `--trace 0` set.
    /// Times are on the reference clock (see [`RefKernel`]).
    pub fn host_metrics(&self) -> Vec<Metric> {
        let ops = self.ops as f64;
        let (raw_ns, calibrated_ns) = self.block_time_ns();
        // The region's CPU time also holds the reference-kernel runs, which
        // are pure CPU.
        let ref_s: f64 = self.blocks.iter().map(|b| b.ref_ns).sum::<f64>() / 1e9;
        let cpu_s = (self.cpu_user_s + self.cpu_sys_s - ref_s) * calibrated_ns / raw_ns;
        vec![
            Metric::new("host_ops_per_s", ops * 1e9 / calibrated_ns, "1/s"),
            Metric::new("host_cpu_ns_per_op", cpu_s * 1e9 / ops, "ns"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
        ]
    }

    /// Host-side diagnostics that are printed but not gated: the raw
    /// (uncalibrated) clock, and the spread of the blocks.
    pub fn host_diagnostics(&self) -> Vec<Metric> {
        let raw_ns: f64 = self.blocks.iter().map(|b| b.ns).sum();
        let calibrated = calibrated_ns(&self.blocks);
        let per_op: Vec<f64> = calibrated
            .iter()
            .zip(&self.blocks)
            .map(|(ns, b)| ns / b.ops as f64)
            .collect();
        vec![
            Metric::new(
                "failed_ops_frac",
                self.failed as f64 / self.ops.max(1) as f64,
                "ratio",
            ),
            Metric::new(
                "host_slowdown",
                raw_ns / calibrated.iter().sum::<f64>(),
                "ratio",
            ),
            Metric::new("host_raw_ops_per_s", self.ops as f64 * 1e9 / raw_ns, "1/s"),
            Metric::new("host_raw_wall_s", self.wall_s, "s"),
            Metric::new("host_raw_cpu_user_s", self.cpu_user_s, "s"),
            Metric::new("host_raw_cpu_sys_s", self.cpu_sys_s, "s"),
            Metric::new("host_block_ops", self.block_ops as f64, "count"),
            Metric::new("host_block_count", per_op.len() as f64, "count"),
            Metric::new("host_block_p50_ns_per_op", percentile(&per_op, 50.0), "ns"),
            Metric::new("host_block_p95_ns_per_op", percentile(&per_op, 95.0), "ns"),
        ]
    }

    /// The simulated-clock end-to-end metrics. Deterministic for a fixed
    /// seed and `--seconds`; compared exactly.
    pub fn sim_metrics(&self) -> Vec<Metric> {
        let ops = self.ops as f64;
        let mut m = vec![
            Metric::new("sim_iops", ops / (self.sim.virt_ns as f64 / 1e9), "sim_1/s"),
            Metric::new("sim_lat_samples", self.sim.lat.count() as f64, "count"),
            Metric::new(
                "sim_lat_p50_ns",
                self.sim.lat.percentile(50.0) as f64,
                "sim_ns",
            ),
            Metric::new(
                "sim_lat_p99_ns",
                self.sim.lat.percentile(99.0) as f64,
                "sim_ns",
            ),
            Metric::new("sim_lat_mean_ns", self.sim.lat.mean(), "sim_ns"),
            Metric::new(
                "sim_wire_bytes_per_op",
                self.counts.link_bytes as f64 / ops,
                "B",
            ),
        ];
        if let Some(wa) = self.sim.nand_write_amp {
            m.push(Metric::new("sim_nand_write_amp", wa, "ratio"));
        }
        if let Some(p) = &self.sim.paper {
            m.push(Metric::new("sim_paper_err_pct", p.max_pct(), "%"));
        }
        m
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `(host + GC page programs) / host page programs`, or `None` when the
/// workload programmed nothing.
pub fn nand_write_amp(c: &Counters) -> Option<f64> {
    (c.ftl_host_writes > 0)
        .then(|| (c.ftl_host_writes + c.ftl_gc_writes) as f64 / c.ftl_host_writes as f64)
}

/// The `[C]` per-layer metrics: exact counts read from public stats
/// structs, normalised per op. Present (possibly zero) on every workload.
pub fn layer_counts(o: &Outcome) -> Vec<Metric> {
    let c = &o.counts;
    let ops = o.ops;
    let per_op = |n: u64| ratio(n, ops);
    let m = |name: &str, v: f64, unit: &'static str| Metric::new(name, v, unit);
    vec![
        m("pcie.link.tlps_per_op", per_op(c.link_tlps), "count"),
        m(
            "pcie.link.doorbell_tlps_per_op",
            per_op(c.link_doorbell_tlps),
            "count",
        ),
        m("pcie.link.h2d_bytes_per_op", per_op(c.link_h2d_bytes), "B"),
        m("pcie.link.d2h_bytes_per_op", per_op(c.link_d2h_bytes), "B"),
        m(
            "pcie.link.payload_efficiency",
            ratio(c.link_payload_bytes, c.link_bytes),
            "ratio",
        ),
        m(
            "driver.submissions_per_op",
            per_op(c.drv_submissions),
            "count",
        ),
        m("driver.doorbells_per_op", per_op(c.drv_doorbells), "count"),
        m("driver.chunks_per_op", per_op(c.drv_chunks), "count"),
        m("driver.frags_per_op", per_op(c.drv_frags), "count"),
        m(
            "driver.pages_mapped_per_op",
            per_op(c.drv_pages_mapped),
            "count",
        ),
        m(
            "driver.batch_flushes_per_op",
            per_op(c.drv_batch_flushes),
            "count",
        ),
        m("driver.retries", c.drv_retries as f64, "count"),
        m("driver.timeouts", c.drv_timeouts as f64, "count"),
        m(
            "driver.reactor.turns_per_op",
            per_op(c.reactor_turns),
            "count",
        ),
        m(
            "driver.reactor.idle_advances_per_op",
            per_op(c.reactor_idle_advances),
            "count",
        ),
        m(
            "driver.reactor.orphaned",
            c.reactor_orphaned as f64,
            "count",
        ),
        m(
            "ssd.controller.sqes_fetched_per_op",
            per_op(c.ctrl_sqes),
            "count",
        ),
        m(
            "ssd.controller.chunks_fetched_per_op",
            per_op(c.ctrl_chunks),
            "count",
        ),
        m(
            "ssd.controller.stalled_evictions",
            c.ctrl_stalled_evictions as f64,
            "count",
        ),
        m(
            "ssd.reassembly.peak_inflight",
            o.reassembly_peak_inflight as f64,
            "count",
        ),
        m("ssd.reassembly.evicted", c.reasm_evicted as f64, "count"),
        m("ssd.nand.programs_per_op", per_op(c.nand_programs), "count"),
        m("ssd.nand.reads_per_op", per_op(c.nand_reads), "count"),
        m("ssd.nand.erases_per_op", per_op(c.nand_erases), "count"),
        m(
            "ssd.ftl.gc_writes_per_host_write",
            ratio(c.ftl_gc_writes, c.ftl_host_writes),
            "ratio",
        ),
        m("ssd.ftl.gc_erases", c.ftl_gc_erases as f64, "count"),
        m(
            "ssd.journal.replayed_per_cycle",
            per_op(c.journal_replayed),
            "count",
        ),
        m("kvssd.get_hit_ratio", ratio(c.kv_hits, c.kv_gets), "ratio"),
        m(
            "kvssd.flushes_per_kop",
            1e3 * ratio(c.kv_flushes, c.kv_puts + c.kv_gets),
            "count",
        ),
        m(
            "kvssd.value_bytes_per_put",
            ratio(c.kv_value_bytes, c.kv_puts),
            "B",
        ),
    ]
}

/// Everything the traced pass adds to a plain pass over the same ops.
pub struct Traced {
    pub outcome: Outcome,
    pub spans: Spans,
    pub stages: StageExtractor,
    /// Stage sums over the commands the harness has exact latencies for.
    pub checked_stages: StageSums,
    /// Sum of the harness-observed latencies of those same commands.
    pub checked_latency_ns: u128,
    pub checked_count: u64,
    /// Workload-specific metrics of the traced pass.
    pub extra: Vec<Metric>,
}

/// `[V]` metrics: mean virtual nanoseconds per command in each stage.
pub fn stage_metrics(all: &StageSums) -> Vec<Metric> {
    STAGE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| Metric::new(format!("sim.stage.{name}_ns"), all.mean(i), "sim_ns"))
        .collect()
}

/// The closed-form wire bytes of one QD-1 block write on the Gen2 ×8 link
/// (MPS 256 B, MRRS 512 B), from TLP arithmetic alone — the independent
/// model `fig5_qd1` holds every cell to.
///
/// Every TLP costs its payload plus 24 B (request: 16 B header + 8 B
/// framing) or 20 B (completion: 12 B header + 8 B framing).
pub fn closed_form_wire_bytes(method: Method, len: usize) -> u64 {
    const MPS: usize = 256;
    const MRRS: usize = 512;
    let posted_write = |n: usize| n + n.div_ceil(MPS) * 24;
    let dma_read = |n: usize| n.div_ceil(MRRS) * 24 + n + n.div_ceil(MPS) * 20;
    let doorbell = posted_write(4);
    let sqe_fetch = dma_read(64);
    // CQE, MSI, and the CQ-head doorbell that acknowledges it.
    let completion = posted_write(16) + posted_write(4) + doorbell;
    let bytes = match method {
        // PRP moves whole 4 KB pages however small the payload.
        Method::Prp => doorbell + sqe_fetch + dma_read(len.div_ceil(4096) * 4096) + completion,
        // One command plus one 64 B SQ entry per chunk, behind one doorbell.
        Method::ByteExpress => doorbell + sqe_fetch * (1 + len.div_ceil(64)) + completion,
        // 32 B ride in the head command; each further 48 B is its own
        // command with its own doorbell.
        Method::BandSlim => {
            let cmds = 1 + len.saturating_sub(32).div_ceil(48);
            (doorbell + sqe_fetch) * cmds + completion
        }
        Method::Hybrid => {
            let resolved = if len <= 256 {
                Method::ByteExpress
            } else {
                Method::Prp
            };
            return closed_form_wire_bytes(resolved, len);
        }
    };
    bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_numbers_in_experiments_md() {
        // EXPERIMENTS.md, Fig 5 traffic table.
        assert_eq!(closed_form_wire_bytes(Method::Prp, 32), 4840);
        assert_eq!(closed_form_wire_bytes(Method::Prp, 1024), 4840);
        assert_eq!(closed_form_wire_bytes(Method::BandSlim, 32), 232);
        assert_eq!(closed_form_wire_bytes(Method::BandSlim, 64), 368);
        assert_eq!(closed_form_wire_bytes(Method::BandSlim, 256), 912);
        assert_eq!(closed_form_wire_bytes(Method::BandSlim, 4096), 11_792);
        assert_eq!(closed_form_wire_bytes(Method::ByteExpress, 32), 340);
        assert_eq!(closed_form_wire_bytes(Method::ByteExpress, 64), 340);
        assert_eq!(closed_form_wire_bytes(Method::ByteExpress, 256), 664);
        assert_eq!(closed_form_wire_bytes(Method::ByteExpress, 4096), 7144);
        assert_eq!(closed_form_wire_bytes(Method::Hybrid, 256), 664);
        assert_eq!(closed_form_wire_bytes(Method::Hybrid, 512), 4840);
    }

    #[test]
    fn paper_error_is_the_worst_row() {
        let mut p = PaperError::default();
        p.push("a", 93.0, 96.3);
        p.push("b", 1.2, 1.75);
        assert!((p.rows[0].3 - 3.4268).abs() < 1e-3);
        assert!((p.max_pct() - 31.4286).abs() < 1e-3);
    }

    #[test]
    fn write_amp_is_absent_without_host_writes() {
        assert_eq!(nand_write_amp(&Counters::default()), None);
        let c = Counters {
            ftl_host_writes: 100,
            ftl_gc_writes: 25,
            ..Counters::default()
        };
        assert_eq!(nand_write_amp(&c), Some(1.25));
    }

    #[test]
    fn repeat_setup_reports_the_median_and_keeps_the_last_state() {
        let mut n = 0;
        let (state, med, samples) = repeat_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(state, 3);
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().any(|s| s.1 == med));
    }

    #[test]
    fn a_slower_clock_calibrates_away() {
        let block = |ns: f64, ref_ns: f64| Block {
            ops: 4096,
            ns,
            ref_ns,
        };
        // Nominal speed, then the same work with the clock 25 % slower, and
        // one reference reading that caught an interrupt.
        let mut blocks = vec![block(2.0e6, REF_NOMINAL_NS); 20];
        blocks.extend(vec![block(2.5e6, 1.25 * REF_NOMINAL_NS); 20]);
        blocks[5].ref_ns *= 3.0;
        let calibrated = calibrated_ns(&blocks);
        // Away from the level change every block reads 2 ms.
        for (i, ns) in calibrated.iter().enumerate() {
            if !(16..24).contains(&i) {
                assert!((ns - 2.0e6).abs() < 1.0, "block {i}: {ns}");
            }
        }
        let out = Outcome {
            ops: 40 * 4096,
            blocks,
            ..Outcome::default()
        };
        assert!((out.slowdown() - 1.125).abs() < 0.02);
    }

    #[test]
    fn the_reference_kernel_reads_a_positive_duration() {
        let mut k = RefKernel::new();
        assert!(k.run() > 0.0);
        assert!(k.read(5) > 0.0);
    }
}
