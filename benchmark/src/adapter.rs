//! The one module that names library symbols.
//!
//! Everything the harness does to the simulator goes through the handful of
//! types here, so an API refactor in `crates/*` has exactly one benchmark
//! file to follow. The surface is the one ROADMAP item 2 says survives
//! (README lists it symbol by symbol); `write_batch_multi`, the
//! `Vec`-returning `poll_completions` and `NvmeDriver::execute` are
//! deliberately not called from here.
//!
//! The wrappers speak harness types only — [`Method`], [`Counters`],
//! nanoseconds as `u64`, errors as `String` — and each layer is observed
//! from outside: by timing a call into a public function or by reading a
//! public stats struct.

use crate::span::Spans;
use bx_kvssd::firmware::{key_into_cdws, pad_key};
use bx_kvssd::{KvDeviceStats, KvFirmware, KvStore, KvStoreConfig, MAX_VALUE_LEN};
use bx_workloads::mixgraph::make_key;
use bx_workloads::{MixGraph, MixGraphConfig, Zipf};
use byteexpress::driver::DriverStats;
use byteexpress::hostsim::{DmaRegion, HostMemory, SimClock};
use byteexpress::nvme::inline::REASSEMBLY_CHUNK_PAYLOAD;
use byteexpress::nvme::{ChunkHeader, CompletionEntry, PrpSegments, SqRing};
use byteexpress::pcie::{tlp, PcieLink};
use byteexpress::ssd::{Controller, Ftl, JournalOp, MapJournal, NandArray, Ppa, ReassemblyEngine};
use byteexpress::{
    Completion, Device, Event, EventKind, EventQueue, ExecutionModel, FaultConfig, FetchPolicy,
    IoOpcode, LinkConfig, NandConfig, Nanos, PassthruCmd, PhysAddr, QueueId, Reactor,
    ReactorConfig, RecoveryStats, RetryPolicy, ShardHandle, Status, SubmissionEntry, TraceSink,
    TrafficClass, TrafficCounters, TransferMethod,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Transfer methods
// ---------------------------------------------------------------------------

/// The four transfer methods of Fig. 5, in cell order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Method {
    Prp,
    BandSlim,
    ByteExpress,
    /// ByteExpress up to 256 B, PRP above (§4.2).
    Hybrid,
}

impl Method {
    pub const ALL: [Method; 4] = [
        Method::Prp,
        Method::BandSlim,
        Method::ByteExpress,
        Method::Hybrid,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Method::Prp => "prp",
            Method::BandSlim => "bandslim",
            Method::ByteExpress => "byteexpress",
            Method::Hybrid => "hybrid",
        }
    }

    fn lib(self) -> TransferMethod {
        match self {
            Method::Prp => TransferMethod::Prp,
            Method::BandSlim => TransferMethod::BandSlim { embed_first: true },
            Method::ByteExpress => TransferMethod::ByteExpress,
            Method::Hybrid => TransferMethod::hybrid_default(),
        }
    }

    /// The span a `submit` of `len` bytes is booked under: Hybrid is booked
    /// to the engine it resolves to.
    fn submit_span(self, len: usize) -> &'static str {
        match self.lib().resolve(len) {
            TransferMethod::Prp => "driver.submit.prp",
            TransferMethod::BandSlim { .. } => "driver.submit.bandslim",
            _ => "driver.submit.byteexpress",
        }
    }
}

// ---------------------------------------------------------------------------
// Counters: every public stats struct, flattened
// ---------------------------------------------------------------------------

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// One snapshot of every count the library exposes through a public
        /// stats struct or getter. Monotonic; subtract two with
        /// [`Counters::since`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters { $(pub $field: u64),* }

        impl Counters {
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field),* }
            }
            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counters! {
    // hostsim clock
    virt_ns,
    // DriverStats + RecoveryStats
    drv_submissions, drv_doorbells, drv_chunks, drv_frags, drv_pages_mapped,
    drv_batch_flushes, drv_retries, drv_timeouts,
    // TrafficCounters
    link_bytes, link_h2d_bytes, link_d2h_bytes, link_payload_bytes, link_tlps,
    link_doorbell_tlps,
    // ControllerStats + reassembly engine
    ctrl_sqes, ctrl_chunks, ctrl_completed, ctrl_stalled_evictions, reasm_evicted,
    // NandStats + FtlStats
    nand_programs, nand_reads, nand_erases, ftl_host_writes, ftl_gc_writes, ftl_gc_erases,
    // RecoveryReport (accumulated by the harness per power cycle)
    journal_replayed,
    // ReactorStats
    reactor_turns, reactor_idle_advances, reactor_submitted, reactor_completed,
    reactor_orphaned,
    // KvDeviceStats
    kv_puts, kv_gets, kv_hits, kv_flushes, kv_value_bytes,
}

/// The counters every platform has, whichever front end drives it.
fn platform_counters(
    virt: Nanos,
    drv: DriverStats,
    rec: RecoveryStats,
    traffic: &TrafficCounters,
    ctrl: &Controller,
) -> Counters {
    let (cs, nand, ftl) = (ctrl.stats(), ctrl.nand_stats(), ctrl.ftl_stats());
    Counters {
        virt_ns: virt.as_ns(),
        drv_submissions: drv.submissions,
        drv_doorbells: drv.doorbells,
        drv_chunks: drv.chunks_written,
        drv_frags: drv.frags_issued,
        drv_pages_mapped: drv.pages_mapped,
        drv_batch_flushes: drv.batch_flushes,
        drv_retries: rec.retries,
        drv_timeouts: rec.timeouts,
        link_bytes: traffic.total_bytes(),
        link_h2d_bytes: traffic.host_to_device_bytes(),
        link_d2h_bytes: traffic.device_to_host_bytes(),
        link_payload_bytes: traffic.total_payload_bytes(),
        link_tlps: traffic.total_tlps(),
        link_doorbell_tlps: traffic.doorbell_tlps(),
        ctrl_sqes: cs.sqes_fetched,
        ctrl_chunks: cs.chunks_fetched,
        ctrl_completed: cs.commands_completed,
        ctrl_stalled_evictions: cs.stalled_evictions,
        reasm_evicted: ctrl.reassembly().evicted_count(),
        nand_programs: nand.programs,
        nand_reads: nand.reads,
        nand_erases: nand.erases,
        ftl_host_writes: ftl.host_writes,
        ftl_gc_writes: ftl.gc_writes,
        ftl_gc_erases: ftl.gc_erases,
        ..Counters::default()
    }
}

fn device_counters(dev: &mut Device) -> Counters {
    let drv = dev.driver_mut().stats();
    platform_counters(
        dev.now(),
        drv,
        dev.recovery_stats(),
        &dev.traffic(),
        dev.controller(),
    )
}

fn add_kv_counters(c: &mut Counters, kv: KvDeviceStats) {
    c.kv_puts = kv.puts;
    c.kv_gets = kv.gets;
    c.kv_hits = kv.hits;
    c.kv_flushes = kv.flushes;
    c.kv_value_bytes = kv.value_bytes_in;
}

fn block_write_cmd(lba: u64, data: &[u8]) -> PassthruCmd {
    let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, data.to_vec());
    cmd.cdw10_15[0] = lba as u32;
    cmd.cdw10_15[1] = (lba >> 32) as u32;
    cmd
}

// ---------------------------------------------------------------------------
// Block device (fig5_qd1)
// ---------------------------------------------------------------------------

/// A `Device` with block firmware on one queue pair, `Serial` execution.
pub struct BlockDev {
    dev: Device,
    qid: QueueId,
    polled: Vec<Completion>,
}

impl BlockDev {
    /// `nand = false` is the paper's transfer-latency mode (no data stored).
    pub fn build(nand: bool, trace: bool) -> Self {
        let dev = Device::builder().nand_io(nand).trace(trace).build();
        // Bring-up (admin queue, Identify, queue creation) is not part of
        // any command's span.
        dev.trace_sink().clear();
        BlockDev {
            qid: dev.queues()[0],
            dev,
            polled: Vec::new(),
        }
    }

    /// Synchronous QD-1 write; returns the virtual submit→complete latency.
    #[inline]
    pub fn write(&mut self, lba: u64, data: &[u8], method: Method) -> Result<u64, String> {
        self.dev
            .write(lba, data, method.lib())
            .map(|c| c.latency().as_ns())
            .map_err(|e| e.to_string())
    }

    pub fn read(&mut self, lba: u64, len: usize) -> Result<Vec<u8>, String> {
        self.dev.read(lba, len).map_err(|e| e.to_string())
    }

    /// [`BlockDev::write`] taken apart into the four calls the synchronous
    /// path makes, each under a child span of one `core.device.write` root.
    pub fn write_spanned(
        &mut self,
        lba: u64,
        data: &[u8],
        method: Method,
        op: u64,
        spans: &mut Spans,
    ) -> Result<u64, String> {
        spans.enter("core.device.write", op);
        let cmd = block_write_cmd(lba, data);
        spans.enter(method.submit_span(data.len()), op);
        let submitted = self.dev.driver_mut().submit(self.qid, &cmd, method.lib());
        spans.exit();
        let result = submitted.map_err(|e| e.to_string()).and_then(|sub| {
            spans.enter("driver.flush_sq", op);
            let flushed = self.dev.driver_mut().flush_sq(self.qid);
            spans.exit();
            flushed.map_err(|e| e.to_string())?;
            spans.enter("ssd.controller.process", op);
            self.dev.controller_mut().process_available();
            spans.exit();
            spans.enter("driver.poll", op);
            self.polled.clear();
            let polled = self
                .dev
                .driver_mut()
                .poll_completions_into(self.qid, &mut self.polled);
            spans.exit();
            polled.map_err(|e| e.to_string())?;
            let done = self
                .polled
                .iter()
                .find(|c| c.cid == sub.cid)
                .ok_or("no completion for the submitted command")?;
            if !done.status.is_success() {
                return Err(format!("command failed: {}", done.status));
            }
            Ok((done.completed_at - sub.submitted_at).as_ns())
        });
        spans.exit();
        result
    }

    pub fn counters(&mut self) -> Counters {
        device_counters(&mut self.dev)
    }

    /// Moves the recorder's buffered events into `stages` and empties it.
    pub fn drain_events(&mut self, stages: &mut StageExtractor) {
        drain_sink(self.dev.trace_sink(), stages);
    }
}

fn drain_sink(sink: &TraceSink, stages: &mut StageExtractor) {
    stages.feed(&sink.events());
    sink.clear();
}

// ---------------------------------------------------------------------------
// Key-value store (kv_mixed, crash_rebuild)
// ---------------------------------------------------------------------------

/// How a [`Kv`] is opened. `crash` is the crash-sweep configuration:
/// durable PUTs, the default retry policy, and — when `pipelined` —
/// reassembly-mode chunk fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvCfg {
    pub method: Method,
    pub crash: bool,
    pub pipelined: bool,
}

enum KvInner {
    /// The library's own host-side store: what `run` measures.
    Store(KvStore),
    /// The same firmware on a `Device` built with the flight recorder on.
    /// `KvStoreConfig` has no trace switch, so the traced pass speaks the
    /// store's two-command protocol itself; the trace run asserts both
    /// produce identical simulated results.
    Traced {
        dev: Device,
        stats: Rc<RefCell<KvDeviceStats>>,
    },
}

pub struct Kv {
    inner: KvInner,
    method: TransferMethod,
}

impl Kv {
    pub fn open(cfg: KvCfg, trace: bool) -> Self {
        let execution = if cfg.pipelined {
            ExecutionModel::Pipelined
        } else {
            ExecutionModel::Serial
        };
        let fetch = if cfg.crash && cfg.pipelined {
            FetchPolicy::Reassembly
        } else {
            FetchPolicy::QueueLocal
        };
        let retry = cfg.crash.then(RetryPolicy::default);
        let method = cfg.method.lib();
        let inner = if trace {
            let stats = Rc::new(RefCell::new(KvDeviceStats::default()));
            let for_fw = Rc::clone(&stats);
            let durable = cfg.crash;
            let mut builder = Device::builder()
                .nand_io(true)
                .execution_model(execution)
                .fetch_policy(fetch)
                .trace(true)
                .firmware(move |dram| {
                    let mut fw = KvFirmware::with_stats(dram, true, for_fw);
                    fw.set_durable_puts(durable);
                    Box::new(fw)
                });
            if let Some(retry) = retry {
                builder = builder.retry_policy(retry);
            }
            let dev = builder.build();
            dev.trace_sink().clear();
            KvInner::Traced { dev, stats }
        } else {
            KvInner::Store(KvStore::open(KvStoreConfig {
                method,
                execution,
                fetch,
                retry,
                durable_puts: cfg.crash,
                ..KvStoreConfig::default()
            }))
        };
        Kv { inner, method }
    }

    fn dev(&self) -> &Device {
        match &self.inner {
            KvInner::Store(s) => s.device(),
            KvInner::Traced { dev, .. } => dev,
        }
    }

    fn dev_mut(&mut self) -> &mut Device {
        match &mut self.inner {
            KvInner::Store(s) => s.device_mut(),
            KvInner::Traced { dev, .. } => dev,
        }
    }

    /// PUT; returns the virtual submit→complete latency.
    #[inline]
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<u64, String> {
        match &mut self.inner {
            KvInner::Store(s) => s
                .put(key, value)
                .map(|c| c.latency().as_ns())
                .map_err(|e| e.to_string()),
            KvInner::Traced { dev, .. } => {
                let mut cmd = PassthruCmd::to_device(IoOpcode::KvPut, 1, value.to_vec());
                key_into_cdws(&pad_key(key), &mut cmd.cdw10_15);
                let done = dev.passthru(&cmd, self.method).map_err(|e| e.to_string())?;
                if !done.status.is_success() {
                    return Err(format!("command failed: {}", done.status));
                }
                Ok(done.latency().as_ns())
            }
        }
    }

    #[inline]
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        match &mut self.inner {
            KvInner::Store(s) => s.get(key).map_err(|e| e.to_string()),
            KvInner::Traced { dev, .. } => {
                let mut cmd = PassthruCmd::from_device(IoOpcode::KvGet, 1, MAX_VALUE_LEN);
                key_into_cdws(&pad_key(key), &mut cmd.cdw10_15);
                let done = dev
                    .passthru(&cmd, TransferMethod::Prp)
                    .map_err(|e| e.to_string())?;
                match done.status {
                    Status::Success => {
                        let mut data = done.data.unwrap_or_default();
                        data.truncate(done.result as usize);
                        Ok(Some(data))
                    }
                    Status::KvKeyNotFound => Ok(None),
                    other => Err(format!("command failed: {other}")),
                }
            }
        }
    }

    /// Arms a power cut after `events` controller processing events.
    pub fn arm_power_cut(&mut self, events: u64) {
        self.dev().install_faults(FaultConfig {
            power_cut_after_events: Some(events),
            ..FaultConfig::disabled()
        });
    }

    /// Whether the armed cut fired; disarms it either way.
    pub fn disarm_power_cut(&mut self) -> bool {
        let fired = self.dev().fault_counters().power_cuts > 0;
        self.dev().disable_faults();
        fired
    }

    /// Cuts power if still live, recovers FTL and index, re-runs bring-up.
    /// Returns the journal records replayed.
    pub fn hard_power_cycle(&mut self) -> Result<u64, String> {
        let report = match &mut self.inner {
            KvInner::Store(s) => s.hard_power_cycle().map_err(|e| e.to_string())?,
            KvInner::Traced { dev, .. } => dev.power_cycle().map_err(|e| e.to_string())?,
        };
        Ok(report.replayed as u64)
    }

    pub fn now_ns(&self) -> u64 {
        self.dev().now().as_ns()
    }

    pub fn counters(&mut self) -> Counters {
        let mut c = device_counters(self.dev_mut());
        let kv = match &self.inner {
            KvInner::Store(s) => s.device_stats(),
            KvInner::Traced { stats, .. } => *stats.borrow(),
        };
        add_kv_counters(&mut c, kv);
        c
    }

    /// Peak concurrently tracked reassembly payloads (a gauge, not a count).
    pub fn reassembly_peak_inflight(&self) -> u64 {
        self.dev().controller().reassembly().peak_inflight() as u64
    }

    pub fn drain_events(&mut self, stages: &mut StageExtractor) {
        drain_sink(self.dev().trace_sink(), stages);
    }
}

/// The untimed Fig. 6(a) replay: `n` MixGraph PUTs through a fresh NAND-on
/// store per method; returns (wire bytes, virtual ns) for the run.
pub fn fig6_replay(seed: u64, n: usize, method: Method) -> Result<(u64, u64), String> {
    let mut store = KvStore::open(KvStoreConfig {
        method: method.lib(),
        ..KvStoreConfig::default()
    });
    let before = store.device().traffic();
    let t0 = store.now();
    let ops = MixGraph::new(MixGraphConfig {
        seed,
        ..MixGraphConfig::default()
    });
    for op in ops.take(n) {
        store.put(&op.key, &op.value).map_err(|e| e.to_string())?;
    }
    let wire = store.device().traffic().since(&before).total_bytes();
    Ok((wire, (store.now() - t0).as_ns()))
}

// ---------------------------------------------------------------------------
// Input distributions (bx-workloads)
// ---------------------------------------------------------------------------

/// MixGraph value sizes (generalised Pareto, clamped to 1..=1024).
pub struct ValueSizes(MixGraph);

impl ValueSizes {
    pub fn new(seed: u64) -> Self {
        ValueSizes(MixGraph::new(MixGraphConfig {
            seed,
            ..MixGraphConfig::default()
        }))
    }
    pub fn next_len(&mut self) -> u16 {
        self.0.sample_value_size() as u16
    }
}

/// Zipf(0.99) ranks over `0..n`.
pub struct KeyRanks(Zipf);

impl KeyRanks {
    pub fn new(n: u64, seed: u64) -> Self {
        KeyRanks(Zipf::new(n, 0.99, seed))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0.sample()
    }
}

/// The 16-byte MixGraph key for `id`.
pub fn kv_key(id: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key.copy_from_slice(&make_key(id, 16));
    key
}

// ---------------------------------------------------------------------------
// Reactor (mq_reactor, mq_reactor_nand)
// ---------------------------------------------------------------------------

/// A boxed client future, as `Reactor::run` takes them.
pub type Task<T> = Pin<Box<dyn Future<Output = T>>>;

/// The reactor platform: 4 shards × 1 queue pair, `Pipelined`, the default
/// flush policy, block firmware.
pub struct Mq {
    reactor: Reactor,
    idle_step: Nanos,
    /// Idle advances made by [`Mq::run_spanned`]'s own executor loop, which
    /// the reactor's counter cannot see.
    own_idle_advances: u64,
}

impl Mq {
    pub fn build(shards: usize, nand: bool, trace: bool) -> Result<Self, String> {
        let cfg = ReactorConfig {
            shards,
            nand_io: nand,
            execution_model: ExecutionModel::Pipelined,
            trace,
            ..ReactorConfig::default()
        };
        let idle_step = cfg.idle_step;
        let reactor = Reactor::new(cfg).map_err(|e| e.to_string())?;
        Ok(Mq {
            reactor,
            idle_step,
            own_idle_advances: 0,
        })
    }

    pub fn client(&self, shard: usize) -> MqClient {
        MqClient(self.reactor.handle(shard))
    }

    /// Runs client futures to completion on the library's executor.
    pub fn run<T>(&mut self, tasks: Vec<Task<T>>) -> Vec<T> {
        self.reactor.run(tasks)
    }

    /// The same loop as `Reactor::run`, written out so each executor
    /// iteration is a `reactor.iter` span with two children: polling the
    /// client futures (which submit) and `Reactor::turn` (flush, controller,
    /// completion dispatch). Recorder events are drained into `stages`
    /// between iterations; the time that takes is returned so the caller
    /// can leave it out of the traced wall time.
    pub fn run_spanned<T>(
        &mut self,
        tasks: Vec<Task<T>>,
        spans: &mut Spans,
        stages: &mut StageExtractor,
    ) -> (Vec<T>, Duration) {
        struct Flag(AtomicBool);
        impl Wake for Flag {
            fn wake(self: Arc<Self>) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let mut slots: Vec<(Task<T>, Arc<Flag>, Option<T>)> = tasks
            .into_iter()
            .map(|t| (t, Arc::new(Flag(AtomicBool::new(true))), None))
            .collect();
        let mut remaining = slots.len();
        let mut drained_for = Duration::ZERO;
        let mut iter = 0u64;
        let sink = self.reactor.trace();
        while remaining > 0 {
            spans.enter("reactor.iter", iter);
            spans.enter("reactor.poll_tasks", iter);
            let mut polled = false;
            for (task, flag, out) in slots.iter_mut().filter(|s| s.2.is_none()) {
                if !flag.0.swap(false, Ordering::Relaxed) {
                    continue;
                }
                polled = true;
                let waker = Waker::from(Arc::clone(flag));
                if let Poll::Ready(v) = task.as_mut().poll(&mut Context::from_waker(&waker)) {
                    *out = Some(v);
                    remaining -= 1;
                }
            }
            spans.exit();
            if remaining > 0 {
                spans.enter("driver.reactor.turn", iter);
                let dispatched = self.reactor.turn();
                spans.exit();
                let woken = slots
                    .iter()
                    .any(|s| s.2.is_none() && s.1 .0.load(Ordering::Relaxed));
                if !polled && dispatched == 0 && !woken {
                    assert!(
                        self.reactor.inflight() > 0,
                        "reactor deadlock: {remaining} task(s) pending with no command in flight"
                    );
                    self.own_idle_advances += 1;
                    self.reactor.bus().clock.advance(self.idle_step);
                }
            }
            spans.exit();
            iter += 1;
            if sink.len() >= 1 << 16 {
                let t = Instant::now();
                drain_sink(&sink, stages);
                drained_for += t.elapsed();
            }
        }
        drain_sink(&sink, stages);
        (slots.into_iter().filter_map(|s| s.2).collect(), drained_for)
    }

    pub fn drain_events(&mut self, stages: &mut StageExtractor) {
        drain_sink(&self.reactor.trace(), stages);
    }

    pub fn inflight(&self) -> u64 {
        self.reactor.inflight() as u64
    }

    pub fn counters(&self) -> Counters {
        let stats = self.reactor.stats();
        let ctrl = self.reactor.controller();
        let ctrl = ctrl.borrow();
        Counters {
            reactor_turns: stats.turns,
            reactor_idle_advances: stats.idle_advances + self.own_idle_advances,
            reactor_submitted: stats.submitted,
            reactor_completed: stats.completed,
            reactor_orphaned: stats.orphaned,
            ..platform_counters(
                self.reactor.bus().clock.now(),
                self.reactor.driver_stats(),
                self.reactor.recovery_stats(),
                &self.reactor.bus().traffic(),
                &ctrl,
            )
        }
    }
}

/// One shard's submission handle, as a client future holds it.
#[derive(Clone)]
pub struct MqClient(ShardHandle);

impl MqClient {
    /// ByteExpress block write; resolves to the virtual latency.
    pub async fn write(&self, lba: u64, data: &[u8]) -> Result<u64, String> {
        let done = self
            .0
            .submit(block_write_cmd(lba, data), TransferMethod::ByteExpress)
            .await
            .map_err(|e| e.to_string())?;
        if !done.status.is_success() {
            return Err(format!("command failed: {}", done.status));
        }
        Ok(done.latency().as_ns())
    }

    pub async fn read(&self, lba: u64, len: usize) -> Result<Vec<u8>, String> {
        let mut cmd = PassthruCmd::from_device(IoOpcode::Read, 1, len);
        cmd.cdw10_15[0] = lba as u32;
        let done = self
            .0
            .submit(cmd, TransferMethod::Prp)
            .await
            .map_err(|e| e.to_string())?;
        if !done.status.is_success() {
            return Err(format!("command failed: {}", done.status));
        }
        Ok(done.data.unwrap_or_default())
    }
}

// ---------------------------------------------------------------------------
// Virtual-time stages from the built-in recorder
// ---------------------------------------------------------------------------

/// The seven virtual-time stages of one command, in order. They partition
/// `[SqeInsert, CompletionConsumed]`, so they sum to the command's latency.
pub const STAGE_NAMES: [&str; 7] = [
    "driver_submit",
    "doorbell",
    "sqe_fetch",
    "data_fetch",
    "firmware",
    "nand",
    "cqe",
];

/// Per-stage virtual nanoseconds summed over `count` commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSums {
    pub count: u64,
    pub ns: [u64; 7],
}

impl StageSums {
    pub fn latency_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
    pub fn mean(&self, stage: usize) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.ns[stage] as f64 / self.count as f64
    }
    fn add(&mut self, other: &StageSums) {
        self.count += other.count;
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CmdStages {
    opcode: u8,
    method: &'static str,
    len: usize,
    inserted: u64,
    submit_end: Option<u64>,
    doorbell: Option<u64>,
    fetched: Option<u64>,
    gathered: Option<u64>,
    nand_end: u64,
    completing: Option<u64>,
    posted: Option<u64>,
}

/// Folds the recorder's event stream into per-command stage durations.
///
/// Boundaries come from command-tagged events (`SqeInsert`,
/// `ChunkTrainWrite`, `SqeFetch`, `InlineGather`/`DataFetch`/
/// `ReassemblyAccept`, `CqeDeferred`, `CqePost`, `CompletionConsumed`).
/// Untagged link and NAND events are attributed by emission order, which is
/// exact because the simulator is one thread: everything emitted between a
/// command's fetch and its `CqePost`/`CqeDeferred` belongs to its dispatch,
/// and a doorbell belongs to every command inserted but not yet fetched.
///
/// * `driver_submit` ends at `ChunkTrainWrite` (ByteExpress) or at the first
///   doorbell TLP after the insert (other methods).
/// * `doorbell` ends at the last SQ doorbell seen before the command's
///   `SqeFetch` — under a flush policy this is the batching delay.
/// * `sqe_fetch` ends at `SqeFetch`; under `Pipelined` it includes the wait
///   for the controller to reach the queue.
/// * `data_fetch` ends when the payload is gathered.
/// * `firmware` + `nand` end where completion begins: `CqeDeferred.until`
///   under `Pipelined`, the first CQE or response-data TLP under `Serial`.
///   `nand` is the part of that interval up to the last NAND op's end.
/// * `cqe` ends at `CompletionConsumed`.
///
/// Streaming: feed it the recorder's buffer in pieces, in order.
#[derive(Default)]
pub struct StageExtractor {
    open: BTreeMap<(u16, u16), CmdStages>,
    /// Inserted, not yet fetched: the commands a doorbell can belong to.
    awaiting_fetch: Vec<(u16, u16)>,
    /// The command whose fetch→dispatch window is open, if any.
    dispatching: Option<(u16, u16)>,
    /// Closed commands, by (opcode, method label, payload length).
    pub by_cell: BTreeMap<(u8, &'static str, usize), StageSums>,
    pub events: u64,
}

impl StageExtractor {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn feed(&mut self, events: &[Event]) {
        self.events += events.len() as u64;
        for ev in events {
            let at = ev.at.as_ns();
            let key = ev.cmd.map(|k| (k.qid, k.cid));
            match (&ev.kind, key) {
                (
                    EventKind::SqeInsert {
                        method,
                        opcode,
                        len,
                    },
                    Some(k),
                ) => {
                    self.awaiting_fetch.retain(|x| *x != k);
                    self.awaiting_fetch.push(k);
                    self.open.insert(
                        k,
                        CmdStages {
                            opcode: *opcode,
                            method,
                            len: *len,
                            inserted: at,
                            submit_end: None,
                            doorbell: None,
                            fetched: None,
                            gathered: None,
                            nand_end: 0,
                            completing: None,
                            posted: None,
                        },
                    );
                }
                (EventKind::ChunkTrainWrite { .. }, Some(k)) => {
                    if let Some(c) = self.open.get_mut(&k) {
                        c.submit_end = Some(at);
                    }
                }
                (EventKind::Tlp { class, .. }, None) => {
                    if *class == TrafficClass::Doorbell.label() {
                        for k in &self.awaiting_fetch {
                            if let Some(c) = self.open.get_mut(k) {
                                c.submit_end.get_or_insert(at);
                            }
                        }
                    } else if let Some(c) = self.dispatching.and_then(|k| self.open.get_mut(&k)) {
                        let completes = *class == TrafficClass::Cqe.label()
                            || *class == TrafficClass::DeviceToHostData.label();
                        if completes && c.gathered.is_some() {
                            c.completing.get_or_insert(at);
                        }
                    }
                }
                (EventKind::DoorbellRing { .. }, None) => {
                    for k in &self.awaiting_fetch {
                        if let Some(c) = self.open.get_mut(k) {
                            c.doorbell = Some(at);
                        }
                    }
                }
                (EventKind::SqeFetch { .. }, Some(k)) => {
                    self.awaiting_fetch.retain(|x| *x != k);
                    self.dispatching = Some(k);
                    if let Some(c) = self.open.get_mut(&k) {
                        c.fetched = Some(at);
                        // Commands without a payload gather nothing.
                        c.gathered = Some(at);
                    }
                }
                (
                    EventKind::InlineGather { .. }
                    | EventKind::DataFetch { .. }
                    | EventKind::ReassemblyAccept { .. },
                    Some(k),
                ) => {
                    self.dispatching = Some(k);
                    if let Some(c) = self.open.get_mut(&k) {
                        c.gathered = Some(at);
                    }
                }
                (EventKind::NandOp { start, busy, .. }, None) => {
                    if let Some(c) = self.dispatching.and_then(|k| self.open.get_mut(&k)) {
                        c.nand_end = c.nand_end.max((*start + *busy).as_ns());
                    }
                }
                (EventKind::CqeDeferred { until }, Some(k)) => {
                    self.dispatching = None;
                    if let Some(c) = self.open.get_mut(&k) {
                        c.completing = Some(until.as_ns());
                    }
                }
                (EventKind::CqePost { .. }, Some(k)) => {
                    if self.dispatching == Some(k) {
                        self.dispatching = None;
                    }
                    if let Some(c) = self.open.get_mut(&k) {
                        c.posted = Some(at);
                    }
                }
                (EventKind::CompletionConsumed { .. }, Some(k)) => {
                    if let Some(c) = self.open.remove(&k) {
                        self.close(c, at);
                    }
                }
                (EventKind::PowerCut { .. }, _) => {
                    // Everything volatile is gone; commands in flight never
                    // complete and their ids are reused after bring-up.
                    self.open.clear();
                    self.awaiting_fetch.clear();
                    self.dispatching = None;
                }
                _ => {}
            }
        }
    }

    fn close(&mut self, c: CmdStages, consumed: u64) {
        // Clamp each boundary into [previous, consumed] so the stages
        // telescope to exactly `consumed - inserted`.
        let mut prev = c.inserted;
        let mut bound = |t: Option<u64>| {
            let b = t.unwrap_or(prev).clamp(prev, consumed.max(prev));
            let d = b - prev;
            prev = b;
            (b, d)
        };
        let (_, submit) = bound(c.submit_end);
        let (_, doorbell) = bound(c.doorbell);
        let (_, sqe_fetch) = bound(c.fetched);
        let (gathered, data_fetch) = bound(c.gathered);
        let (completing, work) = bound(c.completing.or(c.posted));
        let nand = c.nand_end.clamp(gathered, completing) - gathered;
        let cqe = consumed.max(completing) - completing;
        let sums = self.by_cell.entry((c.opcode, c.method, c.len)).or_default();
        sums.count += 1;
        for (slot, d) in sums.ns.iter_mut().zip([
            submit,
            doorbell,
            sqe_fetch,
            data_fetch,
            work - nand,
            nand,
            cqe,
        ]) {
            *slot += d;
        }
    }

    /// Sums over every closed command whose opcode passes `keep`.
    pub fn total(&self, keep: impl Fn(u8) -> bool) -> StageSums {
        let mut t = StageSums::default();
        for ((opcode, _, _), s) in &self.by_cell {
            if keep(*opcode) {
                t.add(s);
            }
        }
        t
    }

    /// Sums over block writes of `len` bytes by `method`.
    pub fn write_cell(&self, method: Method, len: usize) -> StageSums {
        let resolved = method.lib().resolve(len).label();
        self.by_cell
            .get(&(IoOpcode::Write as u8, resolved, len))
            .copied()
            .unwrap_or_default()
    }
}

/// Opcodes for [`StageExtractor::total`] filters.
pub const OPCODE_KV_PUT: u8 = IoOpcode::KvPut as u8;
pub const OPCODE_READ: u8 = IoOpcode::Read as u8;

/// Bytes one recorded event occupies in the recorder's buffer.
pub fn recorder_event_bytes() -> usize {
    std::mem::size_of::<Event>()
}

// ---------------------------------------------------------------------------
// The isolated ledger: one public call per layer, timed alone
// ---------------------------------------------------------------------------

/// One ledger entry: `run(n)` makes `n` calls into one layer.
pub struct LedgerItem {
    pub name: &'static str,
    /// Calls per timed batch.
    pub calls: u64,
    pub unit: &'static str,
    pub run: Box<dyn FnMut(u64)>,
}

fn item(name: &'static str, calls: u64, run: impl FnMut(u64) + 'static) -> LedgerItem {
    LedgerItem {
        name,
        calls,
        unit: "ns",
        run: Box::new(run),
    }
}

/// Every `[L]` item. `ssd.nand`, `ssd.ftl` and `ssd.journal` are included
/// because `NandArray`, `Ftl` and `MapJournal` can all be built standalone
/// through their public constructors.
pub fn ledger_items() -> Vec<LedgerItem> {
    const M: u64 = 1_000_000;
    let mut items = Vec::new();

    items.push(item("nvme.sqe.encode_ns", M, |n| {
        for i in 0..n {
            let mut sqe = SubmissionEntry::zeroed();
            sqe.set_opcode_raw(IoOpcode::Write as u8);
            sqe.set_cid(i as u16);
            sqe.set_nsid(1);
            sqe.set_cdw(10, i as u32);
            sqe.set_data_len(64);
            black_box(sqe.to_bytes());
        }
    }));
    items.push(item("nvme.sqe.decode_ns", M, |n| {
        let mut img = SubmissionEntry::io(IoOpcode::Write, 7, 1).to_bytes();
        for i in 0..n {
            img[2] = i as u8;
            let sqe = SubmissionEntry::from_bytes(black_box(&img));
            black_box((sqe.cid(), sqe.io_opcode(), sqe.data_len(), sqe.slba()));
        }
    }));
    items.push(item("nvme.cqe.codec_ns", M, |n| {
        for i in 0..n {
            let cqe = CompletionEntry::new(i as u16, 1, i as u16, Status::Success, i & 1 == 0);
            let back = CompletionEntry::from_bytes(black_box(&cqe.to_bytes()));
            black_box((back.cid(), back.phase(), back.status(), back.sq_head()));
        }
    }));
    items.push(item("nvme.chunk_header.codec_ns", M, |n| {
        for i in 0..n {
            let hdr = ChunkHeader {
                payload_id: i as u32,
                chunk_no: (i % 8) as u16,
                total: 8,
            };
            black_box(ChunkHeader::from_bytes(black_box(&hdr.to_bytes())));
        }
    }));
    items.push(item("nvme.sqring.push_pop_ns", M, |n| {
        let depth = 1024u16;
        let region = DmaRegion::new(PhysAddr(0), depth as usize * SubmissionEntry::BYTES);
        let mut ring = SqRing::new(QueueId(1), region, depth);
        for _ in 0..n {
            let slot = ring.push_slot();
            black_box(ring.slot_addr(slot));
            ring.complete_up_to(ring.tail());
        }
    }));
    items.push(item("nvme.prp.build_ns", M, |n| {
        let mut mem = HostMemory::with_capacity(1 << 20);
        let page = mem.alloc_page().expect("fresh memory has a page").addr();
        for i in 0..n {
            let len = 64 + (i % 8) as usize * 64;
            black_box(PrpSegments::build(&mut mem, &[page], 0, len).expect("one page"));
        }
    }));
    items.push(item("pcie.tlp.segment_ns", M, |n| {
        for i in 0..n {
            let len = 64 + (i % 4) as usize * 64;
            let bytes = tlp::segment_write(black_box(len), 256).wire_bytes()
                + tlp::segment_read_requests(len, 512).wire_bytes()
                + tlp::segment_read_completions(len, 256).wire_bytes();
            black_box(bytes);
        }
    }));
    items.push(item("pcie.link.device_read64_ns", M, |n| {
        let mut link = PcieLink::new(LinkConfig::gen2_x8());
        for _ in 0..n {
            black_box(link.device_read(TrafficClass::SqeFetch, 64));
        }
    }));
    items.push(item("hostsim.mem.write64_ns", M, |n| {
        let mut mem = HostMemory::with_capacity(1 << 20);
        let data = [0xA5u8; 64];
        for i in 0..n {
            mem.write(PhysAddr((i % 16_384) * 64), black_box(&data))
                .expect("in bounds");
        }
    }));
    items.push(item("hostsim.mem.read64_ns", M, |n| {
        let mem = HostMemory::with_capacity(1 << 20);
        let mut buf = [0u8; 64];
        for i in 0..n {
            mem.read(PhysAddr((i % 16_384) * 64), &mut buf)
                .expect("in bounds");
            black_box(&buf);
        }
    }));
    items.push(item("hostsim.mem.read4k_ns", M / 4, |n| {
        let mem = HostMemory::with_capacity(1 << 20);
        let mut buf = [0u8; 4096];
        for i in 0..n {
            mem.read(PhysAddr((i % 256) * 4096), &mut buf)
                .expect("in bounds");
            black_box(&buf);
        }
    }));
    items.push(LedgerItem {
        name: "hostsim.mem.build_ms",
        calls: 4,
        unit: "ms",
        // The default device's host DRAM: built (and zeroed) per instance.
        run: Box::new(|n| {
            for _ in 0..n {
                black_box(HostMemory::with_capacity(256 << 20));
            }
        }),
    });
    items.push(item("hostsim.event.push_pop_ns", M, |n| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..32 {
            q.push(Nanos::from_ns(i * 37), i);
        }
        for i in 0..n {
            q.push(Nanos::from_ns(1200 + i * 10 + (i * 7919) % 300), i);
            black_box(q.pop());
        }
    }));
    items.push(item("hostsim.clock.advance_ns", M, |n| {
        let clock = SimClock::new();
        let other = clock.clone();
        for _ in 0..n {
            clock.advance(Nanos::from_ns(3));
            black_box(other.now());
        }
    }));
    items.push(item("ssd.reassembly.accept_ns", M, |n| {
        const TOTAL: u16 = 4;
        let mut engine = ReassemblyEngine::new(1 << 20);
        let chunk = [0xC3u8; REASSEMBLY_CHUNK_PAYLOAD];
        let mut id = 0u32;
        for _ in 0..n / TOTAL as u64 {
            id = id.wrapping_add(1).max(1);
            let mut done = None;
            for chunk_no in (0..TOTAL).rev() {
                let hdr = ChunkHeader {
                    payload_id: id,
                    chunk_no,
                    total: TOTAL,
                };
                done = engine
                    .accept_at(hdr, &chunk, Nanos::ZERO)
                    .expect("well-formed train");
            }
            engine.recycle(done.expect("train completes").data);
        }
    }));
    items.push(item("ssd.nand.program_ns", M, |n| {
        // Program a block's 64 pages, erase it, move to the next die: the
        // figure includes 1/64 of an erase.
        let cfg = NandConfig::small();
        let mut nand = NandArray::new(cfg.clone());
        let page = vec![0x5Au8; cfg.page_size];
        let mut now = Nanos::ZERO;
        let mut done = 0u64;
        'outer: loop {
            for channel in 0..cfg.channels {
                for die in 0..cfg.dies_per_channel {
                    for p in 0..cfg.pages_per_block {
                        let ppa = Ppa {
                            channel,
                            die,
                            block: 0,
                            page: p,
                        };
                        now = nand.program(ppa, &page, now).expect("erased page");
                        done += 1;
                        if done == n {
                            break 'outer;
                        }
                    }
                    now = nand.erase(channel, die, 0, now).expect("valid block");
                }
            }
        }
    }));
    items.push(item("ssd.ftl.write_ns", M / 4, |n| {
        // Out-of-place page writes over a small hot set: the array fills
        // about halfway through a batch, after which every write also pays
        // its share of GC, on top of the mapping journal.
        let cfg = NandConfig::small();
        let mut nand = NandArray::new(cfg.clone());
        let mut ftl = Ftl::new(&nand, 0.25);
        let page = vec![0x3Cu8; cfg.page_size];
        let mut now = Nanos::ZERO;
        for i in 0..n {
            now = ftl
                .write(i % 8192, &page, &mut nand, now)
                .expect("GC keeps up");
        }
    }));
    items.push(item("ssd.journal.append_ns", M / 4, |n| {
        // Driven the way the FTL drives it: one record per page program
        // (~300 us of virtual time apart), a checkpoint whenever the live
        // tail crosses its threshold. `append` prunes against the newest
        // durable checkpoint on every call, so its cost follows the length
        // of the live tail.
        let mut journal = MapJournal::new();
        let mut now = Nanos::ZERO;
        for i in 0..n {
            now += Nanos::from_us(300);
            let ppa = Ppa {
                channel: 0,
                die: 0,
                block: (i % 64) as u32,
                page: (i % 64) as u32,
            };
            let op = JournalOp::MapUpdate {
                lpn: i % 8192,
                ppa,
                prev: None,
            };
            black_box(journal.append(op, now, now));
            if journal.needs_checkpoint() {
                journal.write_checkpoint(&[], std::iter::empty(), now);
            }
        }
    }));
    items.push(item("workloads.mixgraph.next_ns", M, |n| {
        let mut g = MixGraph::with_defaults();
        for _ in 0..n {
            black_box(g.next_put());
        }
    }));
    items.push(item("workloads.zipf.sample_ns", M, |n| {
        let mut z = Zipf::new(200_000, 0.99, 1);
        for _ in 0..n {
            black_box(z.sample());
        }
    }));
    items.push(item("trace.emit_disabled_ns", M, |n| {
        let sink = TraceSink::disabled();
        for i in 0..n {
            black_box(&sink).emit(None, || EventKind::DoorbellRing { tail: i as u16 });
        }
    }));
    items.push(item("trace.emit_enabled_ns", M, |n| {
        let sink = TraceSink::recording(SimClock::new());
        for i in 0..n {
            sink.emit(None, || EventKind::DoorbellRing { tail: i as u16 });
            if i % (1 << 16) == 0 {
                sink.clear();
            }
        }
    }));
    items
}
