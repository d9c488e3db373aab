//! The NVMe controller: doorbell polling, SQE fetch, firmware dispatch and
//! completion posting. A fetched SQE goes, by its shape, to the gather of
//! its transfer method (`gather`); admin commands and power live in `admin`
//! and `power`.

use crate::bus::{MmioCompletion, Platform, SystemBus};
use crate::dram::DeviceDram;
use crate::firmware::{CommandOutcome, FirmwareCtx, FirmwareHandler};
use crate::ftl::Ftl;
use crate::gather::{self, bandslim, byteexpress, dptr};
use crate::nand::{NandArray, NandConfig};
use crate::reassembly::ReassemblyEngine;
use crate::registers::{Register, RegisterFile};
use crate::timing::ControllerTiming;
use bx_hostsim::{EventQueue, Nanos, PhysAddr};
use bx_nvme::queue::{self, CqProducer};
use bx_nvme::sgl::SglExtent;
use bx_nvme::{
    bandslim as bs, inline, CompletionEntry, IdentifyController, IoOpcode, QueueId, Status,
    SubmissionEntry, CQE_BYTES, SQE_BYTES,
};
use bx_pcie::TrafficClass;
use bx_trace::{CmdKey, EventKind};
use std::collections::BTreeMap;

/// How the controller gathers ByteExpress chunk trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FetchPolicy {
    /// The paper's implemented design: once a ByteExpress SQE is seen, fetch
    /// the following entries of the *same* SQ, in order.
    #[default]
    QueueLocal,
    /// The §3.3.2 extension: chunks are self-describing and may be accepted
    /// out of order. Advertised as `vendor.reassembly` in Identify, from
    /// which the driver takes its chunk framing.
    Reassembly,
}

/// How the controller accounts virtual time across commands in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionModel {
    /// The default model: after every firmware dispatch the
    /// global clock advances through the command's full `complete_at` —
    /// including NAND busy time — before the next SQE is fetched. Simple,
    /// exactly calibrated to Table 1, but *everything* serializes: no
    /// queue-depth or multi-queue throughput scaling can ever show.
    #[default]
    Serial,
    /// Event-driven overlap: firmware dispatch returns as soon as the
    /// command is issued to the media, the completion is scheduled on a
    /// deterministic event queue at `complete_at`, and the controller keeps
    /// fetching. Per-resource busy-until state still serializes same-
    /// resource work (the shared clock covers the PCIe link and controller
    /// core; `NandArray`'s per-die `busy_until` covers channel/die
    /// occupancy; CQE posting serializes through time-ordered delivery), so
    /// commands on different SQs and NAND dies overlap in virtual time
    /// while contended resources still queue.
    Pipelined,
}

/// Device DRAM capacity in bytes.
const DRAM_CAPACITY: usize = 64 << 20;

/// SRAM budget for the reassembly engine, bytes.
const REASSEMBLY_SRAM: usize = 64 << 10;

/// FTL over-provisioning ratio.
const OVER_PROVISION: f64 = 0.25;

/// Controller construction parameters.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Latency constants (defaults calibrated to Table 1).
    pub timing: ControllerTiming,
    /// NAND geometry/timing (use [`NandConfig::disabled`] for the paper's
    /// NAND-off transfer experiments).
    pub nand: NandConfig,
    /// Chunk-gathering policy.
    pub fetch_policy: FetchPolicy,
    /// How long a reassembly-mode command may sit parked without its chunk
    /// train completing before the controller evicts it and posts a
    /// [`Status::DataTransferError`] completion (reclaiming tracker SRAM
    /// instead of leaking it until reset).
    pub inline_stall_deadline: Nanos,
    /// Identify data the controller advertises. `vendor.reassembly` is
    /// derived from `fetch_policy`, whatever is set here.
    pub identify: IdentifyController,
    /// Whether command completion times serialize the whole device
    /// ([`ExecutionModel::Serial`], the default) or overlap via the
    /// deferred-completion event queue ([`ExecutionModel::Pipelined`]).
    pub execution_model: ExecutionModel,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            timing: ControllerTiming::default(),
            nand: NandConfig::small(),
            fetch_policy: FetchPolicy::QueueLocal,
            inline_stall_deadline: Nanos::from_ms(1),
            identify: IdentifyController::default(),
            execution_model: ExecutionModel::default(),
        }
    }
}

/// Controller activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Command SQEs fetched (excludes chunk/fragment entries).
    pub sqes_fetched: u64,
    /// Inline chunk entries fetched.
    pub chunks_fetched: u64,
    /// BandSlim fragment commands consumed.
    pub frags_consumed: u64,
    /// Commands completed (CQEs posted).
    pub commands_completed: u64,
    /// Host→device payload bytes delivered inline (ByteExpress).
    pub inline_payload_bytes: u64,
    /// Host→device payload bytes delivered via PRP.
    pub prp_payload_bytes: u64,
    /// Host→device payload bytes delivered via SGL.
    pub sgl_payload_bytes: u64,
    /// Host→device payload bytes delivered via BandSlim embedding.
    pub bandslim_payload_bytes: u64,
    /// Admin commands completed.
    pub admin_commands: u64,
    /// Parked reassembly commands evicted after stalling past the deadline
    /// (each posts a [`Status::DataTransferError`] completion).
    pub stalled_evictions: u64,
}

pub(crate) struct IoQueue {
    pub(crate) id: QueueId,
    pub(crate) sq_base: PhysAddr,
    pub(crate) sq_depth: u16,
    /// The controller's fetch pointer into the SQ.
    pub(crate) fetch_head: u16,
    pub(crate) cq_base: PhysAddr,
    pub(crate) cq_depth: u16,
    pub(crate) cq_prod: CqProducer,
    /// The completion queue this SQ completes into.
    pub(crate) cqid: u16,
    /// In-progress BandSlim assembly (head command + bytes so far).
    pub(crate) bandslim_pending: Option<bandslim::Pending>,
    /// A ByteExpress command whose reassembly-mode chunks are still being
    /// fetched (possibly interleaved with other queues).
    pub(crate) inline_pending: Option<byteexpress::Parked>,
}

impl IoQueue {
    /// A queue pair over the `(base, depth)` rings `sq` and `cq`, nothing
    /// fetched or posted yet; its SQ completes into CQ `cqid`.
    pub(crate) fn new(id: QueueId, sq: (PhysAddr, u16), cq: (PhysAddr, u16), cqid: u16) -> Self {
        IoQueue {
            id,
            sq_base: sq.0,
            sq_depth: sq.1,
            fetch_head: 0,
            cq_base: cq.0,
            cq_depth: cq.1,
            cq_prod: CqProducer::new(cq.1),
            cqid,
            bandslim_pending: None,
            inline_pending: None,
        }
    }

    /// Whether the host rang entries past the fetch head.
    pub(crate) fn has_work(&self, p: &Platform) -> bool {
        p.doorbells.sq_tail(self.id) != self.fetch_head
    }

    /// Host address of SQ slot `idx`.
    pub(crate) fn slot_addr(&self, idx: u16) -> PhysAddr {
        self.sq_base.offset(u64::from(idx) * SQE_BYTES as u64)
    }
}

/// A dispatched command's completion, between firmware dispatch and
/// delivery (response DMA + CQE post, or MMIO status-window push). Under
/// [`ExecutionModel::Serial`] it is delivered inline; under
/// [`ExecutionModel::Pipelined`] it waits on the controller's event queue
/// until virtual time reaches `complete_at`.
pub(crate) enum DeferredCompletion {
    /// An I/O-queue command. Keyed by queue *id*, not index — queues may be
    /// deleted while a completion is in flight, in which case it is dropped
    /// (matching real hardware: a CQE for a deleted queue pair goes
    /// nowhere).
    Cqe {
        qid: u16,
        sqe: SubmissionEntry,
        outcome: CommandOutcome,
    },
    /// A byte-interface (MMIO window) command: posts this status word, not a
    /// CQE.
    Mmio(MmioCompletion),
}

/// The completions in flight under [`ExecutionModel::Pipelined`]. Each
/// waits in a slot of a slab with a free list; the event queue orders only
/// `(at, seq, slot)` keys, so a sift moves 24 bytes, not a 64-byte SQE and
/// its outcome. Keys are pushed as the completions were, so they pop in the
/// same `(complete_at, dispatch order)` order.
#[derive(Default)]
pub(crate) struct Deferred {
    order: EventQueue<u32>,
    slots: Vec<Option<DeferredCompletion>>,
    free: Vec<u32>,
}

impl Deferred {
    fn push(&mut self, at: Nanos, ev: DeferredCompletion) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(ev);
                slot
            }
            None => {
                self.slots.push(Some(ev));
                (self.slots.len() - 1) as u32
            }
        };
        self.order.push(at, slot);
    }

    /// The earliest completion due at or before `now`, out of its slot.
    fn pop_due(&mut self, now: Nanos) -> Option<DeferredCompletion> {
        let (_, slot) = self.order.pop_due(now)?;
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Slots holding a completion.
    fn live_slots(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Drops every completion in flight (power cut, controller reset).
    pub(crate) fn clear(&mut self) {
        self.order.clear();
        self.slots.clear();
        self.free.clear();
    }
}

/// The simulated NVMe controller.
pub struct Controller {
    pub(crate) bus: SystemBus,
    pub(crate) timing: ControllerTiming,
    pub(crate) fetch_policy: FetchPolicy,
    pub(crate) queues: Vec<IoQueue>,
    pub(crate) firmware: Box<dyn FirmwareHandler>,
    pub(crate) nand: NandArray,
    pub(crate) ftl: Ftl,
    pub(crate) dram: DeviceDram,
    pub(crate) reassembly: ReassemblyEngine,
    pub(crate) stall_deadline: Nanos,
    pub(crate) stats: ControllerStats,
    pub(crate) regs: RegisterFile,
    pub(crate) identify: IdentifyController,
    /// The admin queue pair, latched when CC.EN is set.
    pub(crate) admin: Option<IoQueue>,
    /// CQs created by admin command but not yet bound to an SQ: cqid → (base, depth).
    pub(crate) pending_cqs: BTreeMap<u16, (PhysAddr, u16)>,
    execution: ExecutionModel,
    /// Completions scheduled for future virtual instants (always empty
    /// under [`ExecutionModel::Serial`]).
    pub(crate) deferred: Deferred,
    /// Reusable host→device payload staging buffer: every gather path —
    /// inline chunks, PRP/SGL data, BandSlim head and fragments — takes it
    /// and fills it, and `recycle_payload` returns the largest buffer seen,
    /// so steady-state command processing performs no heap allocation.
    scratch_payload: Vec<u8>,
    /// Reusable list of the extents a PRP/SGL walk visits: descriptor reads
    /// are charged for the whole walk before the first data byte moves.
    pub(crate) scratch_extents: Vec<SglExtent>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("queues", &self.queues.len())
            .field("fetch_policy", &self.fetch_policy)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller on `bus` with firmware built by `firmware`,
    /// which receives the device DRAM to claim its regions.
    pub fn new(
        bus: SystemBus,
        cfg: ControllerConfig,
        firmware: impl FnOnce(&mut DeviceDram) -> Box<dyn FirmwareHandler>,
    ) -> Self {
        let mut nand = NandArray::new(cfg.nand.clone());
        nand.set_trace(bus.trace.clone());
        let mut ftl = Ftl::new(&nand, OVER_PROVISION);
        ftl.set_trace(bus.trace.clone());
        let mut dram = DeviceDram::new(DRAM_CAPACITY);
        let firmware = firmware(&mut dram);
        // The reassembly bit says "chunks carry reassembly headers": it is
        // the fetch policy as the driver reads it, not a second setting.
        let mut identify = cfg.identify;
        identify.vendor.reassembly = cfg.fetch_policy == FetchPolicy::Reassembly;
        Controller {
            bus,
            timing: cfg.timing,
            fetch_policy: cfg.fetch_policy,
            queues: Vec::new(),
            firmware,
            nand,
            ftl,
            dram,
            reassembly: ReassemblyEngine::new(REASSEMBLY_SRAM),
            stall_deadline: cfg.inline_stall_deadline,
            stats: ControllerStats::default(),
            regs: RegisterFile::new(4096),
            identify,
            admin: None,
            pending_cqs: BTreeMap::new(),
            execution: cfg.execution_model,
            deferred: Deferred::default(),
            scratch_payload: Vec::new(),
            scratch_extents: Vec::new(),
        }
    }

    /// Writes a BAR register (charged as MMIO traffic). Setting CC.EN
    /// latches the admin queue from ASQ/ACQ/AQA and raises CSTS.RDY.
    pub fn mmio_write(&mut self, reg: Register, value: u64) {
        self.bus
            .platform()
            .borrow_mut()
            .host_posted_write(TrafficClass::Mmio, 8);
        if self.regs.write(reg, value) {
            let sq = (self.regs.admin_sq_base(), self.regs.admin_sq_depth());
            let cq = (self.regs.admin_cq_base(), self.regs.admin_cq_depth());
            self.admin = Some(IoQueue::new(QueueId(0), sq, cq, 0));
            self.regs.set_ready();
        }
        if reg == Register::Cc && !self.regs.enabled() {
            self.drop_queues();
        }
    }

    /// Tears down every queue and drops the completions still in flight
    /// toward them: a controller reset, or a power cut.
    pub(crate) fn drop_queues(&mut self) {
        self.admin = None;
        self.queues.clear();
        self.pending_cqs.clear();
        self.deferred.clear();
    }

    /// Reads a BAR register (a synchronous MMIO round trip).
    pub fn mmio_read(&mut self, reg: Register) -> u64 {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        p.clock
            .advance(p.link.host_mmio_read(TrafficClass::Mmio, 8));
        self.regs.read(reg)
    }

    /// Whether CSTS.RDY is set.
    pub fn is_ready(&self) -> bool {
        self.regs.ready()
    }

    /// Activity counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// NAND statistics.
    pub fn nand_stats(&self) -> crate::nand::NandStats {
        self.nand.stats()
    }

    /// FTL statistics.
    pub fn ftl_stats(&self) -> crate::ftl::FtlStats {
        self.ftl.stats()
    }

    /// The reassembly engine state (for SRAM accounting tests).
    pub fn reassembly(&self) -> &ReassemblyEngine {
        &self.reassembly
    }

    /// Processes doorbell'd submissions round-robin until every queue is
    /// drained. Returns the number of *commands* completed (chunk entries and
    /// fragments don't count).
    ///
    /// Under [`ExecutionModel::Pipelined`] this is also the event loop:
    /// completions scheduled by earlier dispatches are delivered as their
    /// instants pass, interleaved with SQE fetches; once no fetchable work
    /// remains, virtual time advances to the earliest outstanding completion
    /// instead of idling, so the call returns only when every accepted
    /// command has completed — same contract as `Serial`, but with the NAND
    /// busy windows overlapped instead of summed.
    pub fn process_available(&mut self) -> usize {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        let mut completed = 0;
        loop {
            debug_assert_eq!(
                self.deferred.live_slots(),
                self.deferred.order.len(),
                "every deferred completion has one slot and one key"
            );
            if p.powered_off {
                return completed;
            }
            let before = completed;
            completed += self.deliver_due_completions(p);
            if p.powered_off {
                return completed;
            }
            completed += byteexpress::evict_stalled(self, p);
            let mut progressed = completed > before;
            while self.admin.as_ref().is_some_and(|q| q.has_work(p)) {
                self.process_admin_one(p);
                if p.powered_off {
                    return completed;
                }
                completed += 1;
                progressed = true;
            }
            while let Some(n) = gather::mmio::process(self, p) {
                completed += n;
                progressed = true;
            }
            if p.powered_off {
                return completed;
            }
            // One round-robin pass: every queue with work is served one
            // scheduling unit — a fetched command (with any queue-local
            // chunk train) or one reassembly-mode chunk. In reassembly mode
            // a queue fetches ONE chunk then yields — the cross-queue
            // interleaving the queue-local design forbids and §3.3.2
            // re-enables.
            for qi in 0..self.queues.len() {
                if !self.queues[qi].has_work(p) {
                    continue;
                }
                if self.queues[qi].inline_pending.is_some() {
                    completed += byteexpress::fetch_chunk(self, p, qi);
                } else {
                    completed += self.process_one(p, qi);
                }
                // A power cut clears `queues`, so the pass's indices are
                // stale — bail out before touching them.
                if p.powered_off {
                    return completed;
                }
                progressed = true;
                let qid = self.queues[qi].id.0;
                self.bus
                    .trace
                    .emit(None, || EventKind::ArbiterGrant { qid, served: 1 });
            }
            if !progressed {
                // Nothing fetchable right now. If completions are still in
                // flight (Pipelined), the controller would really be idle —
                // jump virtual time to the earliest one and deliver it on
                // the next pass rather than returning with work pending.
                let Some(at) = self.deferred.order.peek_at() else {
                    return completed;
                };
                self.bus.clock.advance_to(at);
            }
        }
    }

    /// Delivers every deferred completion due at or before the current
    /// virtual time, in `(complete_at, dispatch order)` order. Returns the
    /// number of commands completed.
    fn deliver_due_completions(&mut self, p: &mut Platform) -> usize {
        let mut delivered = 0;
        let now = self.bus.clock.now();
        while let Some(ev) = self.deferred.pop_due(now) {
            // A completion delivery is a processing event: the power cut may
            // land between the media finishing and the CQE reaching the
            // host. The popped completion dies with the rest of the
            // deferred queue.
            if self.power_tick(p) {
                return delivered;
            }
            delivered += self.deliver_completion(p, &ev);
        }
        delivered
    }

    /// Delivers one command's completion: response DMA + CQE post (or the
    /// MMIO status-window push) — response DMA included, since the data only
    /// exists once the media op finishes. Runs at or after the command's
    /// `complete_at`, under either execution model.
    fn deliver_completion(&mut self, p: &mut Platform, ev: &DeferredCompletion) -> usize {
        match *ev {
            DeferredCompletion::Cqe {
                qid,
                ref sqe,
                ref outcome,
            } => {
                let Some(qi) = self.queues.iter().position(|q| q.id.0 == qid) else {
                    // Queue pair deleted while the command was in flight;
                    // the completion has nowhere to land.
                    return 0;
                };
                if let Some(response) = outcome.response.as_deref().filter(|r| !r.is_empty()) {
                    dptr::dma_response(self, p, sqe, response);
                }
                self.post_completion(p, qi, sqe.cid(), outcome);
                1
            }
            DeferredCompletion::Mmio(word) => {
                p.mmio_window.completions.push_back(word);
                let key = CmdKey::new(word.qid, word.cid);
                self.bus.trace.emit_cmd(key, || EventKind::CqePost {
                    status: word.status.to_wire(),
                });
                self.stats.commands_completed += 1;
                1
            }
        }
    }

    /// Fetches one SQE and hands it, by its shape, to the gather of its
    /// transfer method, which may consume the entries after it too. Returns
    /// the completions posted.
    fn process_one(&mut self, p: &mut Platform, qi: usize) -> usize {
        if self.power_tick(p) {
            return 0;
        }
        // SQE fetch: firmware dispatch overhead + the 64-byte DMA round trip.
        self.bus.clock.advance(self.timing.fetch_dispatch_overhead);
        let sqe = SubmissionEntry::from_bytes(&fetch_entry(p, &mut self.queues[qi], None));
        // A fragment is no command: it extends the head before it.
        if bs::is_frag(&sqe) {
            return bandslim::absorb(self, p, qi, &sqe);
        }
        self.stats.sqes_fetched += 1;
        let key = CmdKey::new(self.queues[qi].id.0, sqe.cid());
        self.bus.trace.emit_cmd(key, || EventKind::SqeFetch {
            opcode: sqe.opcode_raw(),
        });
        if let Some(len) = inline::inline_len(&sqe) {
            byteexpress::gather(self, p, qi, sqe, len)
        } else if let Some(total) = bs::head_len(&sqe) {
            bandslim::head(self, p, qi, sqe, total)
        } else if sqe.io_opcode().is_some_and(IoOpcode::is_host_to_device) {
            dptr::gather(self, p, qi, sqe)
        } else {
            self.dispatch_and_complete(p, qi, &sqe, None)
        }
    }

    /// The staging buffer, emptied, with room for `len` bytes.
    pub(crate) fn take_scratch_payload(&mut self, len: usize) -> Vec<u8> {
        let mut payload = std::mem::take(&mut self.scratch_payload);
        payload.clear();
        payload.reserve(len);
        payload
    }

    /// Returns a gather buffer after its command dispatched; the largest
    /// buffer seen is kept as the staging scratch for the next gather.
    pub(crate) fn recycle_payload(&mut self, buf: Vec<u8>) {
        if buf.capacity() > self.scratch_payload.capacity() {
            self.scratch_payload = buf;
        }
    }

    /// Dispatches `sqe` with the payload its gather staged in `buf`, first
    /// recording how the payload came in (`event` of its length), and keeps
    /// the buffer for the next gather.
    pub(crate) fn dispatch_gathered(
        &mut self,
        p: &mut Platform,
        qi: usize,
        sqe: &SubmissionEntry,
        buf: Vec<u8>,
        event: impl FnOnce(usize) -> EventKind,
    ) -> usize {
        let key = CmdKey::new(self.queues[qi].id.0, sqe.cid());
        self.bus.trace.emit_cmd(key, || event(buf.len()));
        let completed = self.dispatch_and_complete(p, qi, sqe, Some(&buf));
        self.recycle_payload(buf);
        completed
    }

    /// Runs firmware on one gathered command and hands the outcome to
    /// [`Controller::finish`]. Returns the number of completions posted
    /// *now*.
    pub(crate) fn dispatch_and_complete(
        &mut self,
        p: &mut Platform,
        qi: usize,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> usize {
        let outcome = self.with_firmware(|firmware, ctx| firmware.handle(ctx, sqe, payload));
        // The juiciest tear point: the media op is issued but the ack is
        // not yet posted. A cut here must leave the write invisible to the
        // host (no CQE) while recovery decides its fate from the journal.
        if self.power_tick(p) {
            return 0;
        }
        let qid = self.queues[qi].id.0;
        self.finish(
            p,
            outcome.complete_at,
            DeferredCompletion::Cqe {
                qid,
                sqe: *sqe,
                outcome,
            },
        )
    }

    /// Runs `run` on the firmware in its context: the media, the FTL, device
    /// DRAM and the current instant.
    pub(crate) fn with_firmware<R>(
        &mut self,
        run: impl FnOnce(&mut dyn FirmwareHandler, FirmwareCtx<'_>) -> R,
    ) -> R {
        let ctx = FirmwareCtx {
            nand: &mut self.nand,
            ftl: &mut self.ftl,
            dram: &mut self.dram,
            now: self.bus.clock.now(),
        };
        run(&mut *self.firmware, ctx)
    }

    /// The one completion path, and the controller's only branch on
    /// [`ExecutionModel`]: what happens between firmware dispatch and
    /// [`Controller::deliver_completion`]. `Serial` freezes the controller
    /// until the media finishes — the clock advances to `at` and
    /// the completion is delivered inline. `Pipelined` schedules the same
    /// delivery on the deferred-event queue and returns at once. Returns
    /// the number of completions posted *now*.
    pub(crate) fn finish(&mut self, p: &mut Platform, at: Nanos, ev: DeferredCompletion) -> usize {
        match self.execution {
            ExecutionModel::Serial => {
                self.bus.clock.advance_to(at);
                self.deliver_completion(p, &ev)
            }
            ExecutionModel::Pipelined => {
                let until = at.max(self.bus.clock.now());
                let key = match &ev {
                    DeferredCompletion::Cqe { qid, sqe, .. } => CmdKey::new(*qid, sqe.cid()),
                    DeferredCompletion::Mmio(word) => CmdKey::new(word.qid, word.cid),
                };
                self.bus
                    .trace
                    .emit_cmd(key, || EventKind::CqeDeferred { until });
                self.deferred.push(until, ev);
                0
            }
        }
    }

    pub(crate) fn post_completion(
        &mut self,
        p: &mut Platform,
        qi: usize,
        cid: u16,
        outcome: &CommandOutcome,
    ) {
        let q = &mut self.queues[qi];
        post_to_queue(p, &self.bus, &self.timing, q, cid, outcome);
        self.stats.commands_completed += 1;
    }

    /// Fails command `cid` on queue `qi` with `status` now; returns the one
    /// completion posted.
    pub(crate) fn fail(&mut self, p: &mut Platform, qi: usize, cid: u16, status: Status) -> usize {
        let outcome = CommandOutcome::fail(status, self.bus.clock.now());
        self.post_completion(p, qi, cid, &outcome);
        1
    }
}

/// Reads the SQ entry at the queue's fetch head, advances the head and
/// charges the 64-byte fetch to the link. In time it costs the DMA round
/// trip — or `pipelined`, the per-entry constant of a chunk that streams
/// behind its command (Table 1), when given.
pub(crate) fn fetch_entry(p: &mut Platform, q: &mut IoQueue, pipelined: Option<Nanos>) -> [u8; 64] {
    let addr = q.slot_addr(q.fetch_head);
    q.fetch_head = queue::wrap_add(q.fetch_head, 1, q.sq_depth);
    let mut img = [0u8; 64];
    #[expect(
        clippy::expect_used,
        reason = "ring geometry is asserted at queue creation; slot math cannot escape the region"
    )]
    p.mem
        .read(addr, &mut img)
        .expect("SQ ring must be in bounds");
    let dma = p.link.device_read(TrafficClass::SqeFetch, SQE_BYTES);
    p.clock.advance(pipelined.unwrap_or(dma));
    img
}

/// Builds and posts one CQE (+ MSI) into a queue's completion ring.
pub(crate) fn post_to_queue(
    p: &mut Platform,
    bus: &SystemBus,
    timing: &ControllerTiming,
    q: &mut IoQueue,
    cid: u16,
    outcome: &CommandOutcome,
) {
    bus.clock.advance(timing.cqe_post_overhead);
    let (slot, phase) = q.cq_prod.produce();
    let mut cqe = CompletionEntry::new(cid, q.id.0, q.fetch_head, outcome.status, phase);
    cqe.set_result(outcome.result);
    let addr = q.cq_base.offset(slot as u64 * CQE_BYTES as u64);
    #[expect(
        clippy::expect_used,
        reason = "ring geometry is asserted at queue creation; slot math cannot escape the region"
    )]
    p.mem
        .write(addr, &cqe.to_bytes())
        .expect("CQ ring in bounds");
    // The CQE and its MSI leave back to back.
    let t = p.link.device_posted_write(TrafficClass::Cqe, CQE_BYTES)
        + p.link.device_posted_write(TrafficClass::Interrupt, 4);
    bus.clock.advance(t);
    bus.trace
        .emit_cmd(CmdKey::new(q.id.0, cid), || EventKind::CqePost {
            status: outcome.status.to_wire(),
        });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::firmware::BlockFirmware;
    use bx_nvme::{admin, inline, IoOpcode};
    use bx_pcie::LinkConfig;

    /// A minimal hand-rolled driver for controller unit tests: writes SQEs
    /// and chunks straight into SQ memory and rings doorbells. The real
    /// driver lives in `bx-driver`; these tests isolate controller behaviour.
    pub(crate) struct MiniDriver {
        pub(crate) bus: SystemBus,
        pub(crate) sq_base: PhysAddr,
        cq_base: PhysAddr,
        depth: u16,
        tail: u16,
        cq_head: u16,
        phase: bool,
        qid: QueueId,
    }

    impl MiniDriver {
        pub(crate) fn new(bus: &SystemBus, ctrl: &mut Controller, depth: u16) -> Self {
            let pages = |bytes: usize| bytes.div_ceil(bx_hostsim::PAGE_SIZE);
            let platform = bus.platform();
            let p = &mut *platform.borrow_mut();
            let sq = p.mem.alloc_contiguous(pages(depth as usize * SQE_BYTES));
            let cq = p.mem.alloc_contiguous(pages(depth as usize * CQE_BYTES));
            let (sq_base, cq_base) = (sq.unwrap().base(), cq.unwrap().base());
            // A queue exists only if the admin handler validated it: the
            // rig hands it the two SQEs a driver would queue.
            let qid = ctrl.queues.len() as u16 + 1;
            for sqe in [
                admin::create_io_cq(0, qid, depth, cq_base),
                admin::create_io_sq(1, qid, depth, sq_base, qid),
            ] {
                assert_eq!(ctrl.handle_admin(p, &sqe).status, Status::Success);
            }
            MiniDriver {
                bus: bus.clone(),
                sq_base,
                cq_base,
                depth,
                tail: 0,
                cq_head: 0,
                phase: true,
                qid: QueueId(qid),
            }
        }

        pub(crate) fn push_raw(&mut self, img: &[u8; 64]) {
            let addr = self.sq_base.offset(self.tail as u64 * 64);
            self.bus
                .platform()
                .borrow_mut()
                .mem
                .write(addr, img)
                .unwrap();
            self.tail = queue::wrap_add(self.tail, 1, self.depth);
        }

        pub(crate) fn ring(&mut self) {
            self.bus
                .platform()
                .borrow_mut()
                .doorbells
                .ring_sq_tail(self.qid, self.tail);
        }

        pub(crate) fn pop_cqe(&mut self) -> Option<CompletionEntry> {
            let addr = self.cq_base.offset(self.cq_head as u64 * 16);
            let mut img = [0u8; 16];
            self.bus
                .platform()
                .borrow()
                .mem
                .read(addr, &mut img)
                .unwrap();
            let cqe = CompletionEntry::from_bytes(&img);
            if cqe.phase() != self.phase {
                return None;
            }
            self.cq_head = queue::wrap_add(self.cq_head, 1, self.depth);
            if self.cq_head == 0 {
                self.phase = !self.phase;
            }
            Some(cqe)
        }
    }

    pub(crate) fn setup(nand_io: bool) -> (SystemBus, Controller) {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
        let cfg = ControllerConfig {
            nand: if nand_io {
                NandConfig::small()
            } else {
                NandConfig::disabled()
            },
            ..ControllerConfig::default()
        };
        let ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, nand_io))
        });
        (bus, ctrl)
    }

    #[test]
    fn byteexpress_vs_prp_traffic_for_64_bytes() {
        // The headline claim: ~96% traffic reduction at 64 B (§4.2).
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        // PRP first.
        let page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        sqe.set_data_len(64);
        sqe.set_prp1(page);
        drv.push_raw(&sqe.to_bytes());
        drv.ring();
        let before = bus.traffic();
        ctrl.process_available();
        let prp_bytes = bus.traffic().since(&before).total_bytes();

        // ByteExpress.
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 2, 1);
        sqe.set_data_len(64);
        inline::set_inline_len(&mut sqe, 64);
        drv.push_raw(&sqe.to_bytes());
        drv.push_raw(&inline::encode_chunks(&[5u8; 64])[0]);
        drv.ring();
        let before = bus.traffic();
        ctrl.process_available();
        let bx_bytes = bus.traffic().since(&before).total_bytes();

        let reduction = 1.0 - bx_bytes as f64 / prp_bytes as f64;
        assert!(
            reduction > 0.9,
            "ByteExpress should cut >90% of PRP traffic at 64 B, got {:.1}% ({bx_bytes} vs {prp_bytes})",
            reduction * 100.0
        );
    }

    #[test]
    fn multi_queue_round_robin() {
        let (bus, mut ctrl) = setup(false);
        let mut d1 = MiniDriver::new(&bus, &mut ctrl, 16);
        let mut d2 = MiniDriver::new(&bus, &mut ctrl, 16);
        for (i, d) in [&mut d1, &mut d2].into_iter().enumerate() {
            let mut sqe = SubmissionEntry::io(IoOpcode::Write, i as u16, 1);
            sqe.set_data_len(32);
            inline::set_inline_len(&mut sqe, 32);
            d.push_raw(&sqe.to_bytes());
            d.push_raw(&inline::encode_chunks(&[7u8; 32])[0]);
            d.ring();
        }
        assert_eq!(ctrl.process_available(), 2);
        assert!(d1.pop_cqe().is_some());
        assert!(d2.pop_cqe().is_some());
    }

    #[test]
    fn power_cut_freezes_device_and_recovery_keeps_only_acked_writes() {
        use bx_hostsim::FaultConfig;

        let (bus, mut ctrl) = setup(true);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        // First write is fully acked before the cut is armed.
        let acked: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        sqe.set_cdw(10, 0);
        sqe.set_data_len(acked.len() as u32);
        inline::set_inline_len(&mut sqe, acked.len());
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_chunks(&acked) {
            drv.push_raw(&chunk);
        }
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);

        // Arm the countdown so the cut lands *after* firmware dispatch of
        // the second write (tick 1: process_one entry; tick 2: post-handle)
        // — the media op is issued but the ack is never posted.
        bus.install_faults(FaultConfig {
            power_cut_after_events: Some(1),
        });
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 2, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(acked.len() as u32);
        inline::set_inline_len(&mut sqe, acked.len());
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_chunks(&acked) {
            drv.push_raw(&chunk);
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 0, "no ack for the torn write");
        assert!(ctrl.is_powered_off());
        assert!(!ctrl.is_ready(), "CSTS.RDY lost with power");
        assert!(drv.pop_cqe().is_none(), "no CQE reached the host");
        assert_eq!(ctrl.process_available(), 0, "device is dark until cycled");

        let report = ctrl.power_cycle();
        assert!(!ctrl.is_powered_off());
        assert_eq!(report.recovered_mappings, 1, "only the acked write");

        // Host must re-create queues from scratch, then the acked write
        // reads back bit-exact and the torn one is invisible.
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);
        let buf_page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        let mut rd = SubmissionEntry::io(IoOpcode::Read, 3, 1);
        rd.set_cdw(10, 0);
        rd.set_data_len(100);
        rd.set_prp1(buf_page);
        drv.push_raw(&rd.to_bytes());
        drv.ring();
        ctrl.process_available();
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(
            bus.platform().borrow().mem.read_vec(buf_page, 100).unwrap(),
            acked
        );

        let mut rd = SubmissionEntry::io(IoOpcode::Read, 4, 1);
        rd.set_cdw(10, 1);
        rd.set_data_len(100);
        rd.set_prp1(buf_page);
        drv.push_raw(&rd.to_bytes());
        drv.ring();
        ctrl.process_available();
        assert_eq!(
            drv.pop_cqe().unwrap().status(),
            Status::LbaOutOfRange,
            "unacked write must not be half-visible"
        );
    }

    #[test]
    fn force_power_cut_clears_volatile_state() {
        let (bus, mut ctrl) = setup(true);
        let _drv = MiniDriver::new(&bus, &mut ctrl, 64);
        ctrl.force_power_cut();
        assert!(ctrl.is_powered_off());
        assert_eq!(bus.platform().borrow().doorbells.sq_tail(QueueId(1)), 0);
        ctrl.power_cycle();
        assert!(!ctrl.is_powered_off());
        assert_eq!(ctrl.deferred.order.len(), 0);
    }

    #[test]
    fn empty_controller_is_idle() {
        let (_bus, mut ctrl) = setup(false);
        assert_eq!(ctrl.process_available(), 0);
    }
}
