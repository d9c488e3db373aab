//! The NVMe controller: doorbell polling, SQE fetch, payload gathering
//! (PRP / SGL / BandSlim fragments / ByteExpress inline chunks), firmware
//! dispatch, and completion posting.
//!
//! The ByteExpress controller change is localized exactly where the paper
//! puts it (their `get_nvme_cmd(...)` patch, <20 LoC on the OpenSSD): after
//! fetching an SQE, [`Controller`] inspects the repurposed reserved field;
//! if an inline length is present it keeps fetching 64-byte entries **from
//! the same submission queue** — never switching queues mid-transaction —
//! which, combined with the driver holding the SQ lock across the whole
//! train, preserves command/payload ordering (§3.3.2).
//!
//! With [`FetchPolicy::Reassembly`], the queue-local constraint is relaxed:
//! chunks carry `{payload id, chunk no, total}` headers and are accepted
//! out of order through the [`ReassemblyEngine`] — the paper's future-work
//! extension.

use crate::bus::{Platform, SystemBus};
use crate::dram::DeviceDram;
use crate::firmware::{CommandOutcome, FirmwareCtx, FirmwareHandler};
use crate::ftl::{Ftl, RecoveryReport};
use crate::nand::{NandArray, NandConfig};
use crate::reassembly::ReassemblyEngine;
use crate::registers::{Register, RegisterFile};
use crate::timing::ControllerTiming;
use bx_hostsim::{EventQueue, Nanos, PhysAddr};
use bx_nvme::queue::{self, CqProducer};
use bx_nvme::sqe::DataPointerKind;
use bx_nvme::{
    admin, bandslim, inline, prp, sgl, AdminOpcode, CompletionEntry, IdentifyController, IoOpcode,
    QueueId, Status, SubmissionEntry, CQE_BYTES, SQE_BYTES,
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
    /// SRAM budget for the reassembly engine, bytes.
    pub reassembly_sram: usize,
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
            reassembly_sram: 64 << 10,
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

struct IoQueue {
    id: QueueId,
    sq_base: PhysAddr,
    sq_depth: u16,
    /// The controller's fetch pointer into the SQ.
    fetch_head: u16,
    cq_base: PhysAddr,
    cq_depth: u16,
    cq_prod: CqProducer,
    /// The completion queue this SQ completes into.
    cqid: u16,
    /// In-progress BandSlim assembly (head command + bytes so far).
    bandslim_pending: Option<BandSlimPending>,
    /// A ByteExpress command whose reassembly-mode chunks are still being
    /// fetched (possibly interleaved with other queues).
    inline_pending: Option<PendingInline>,
}

impl IoQueue {
    /// Host address of SQ slot `idx`.
    fn slot_addr(&self, idx: u16) -> PhysAddr {
        self.sq_base.offset(u64::from(idx) * SQE_BYTES as u64)
    }
}

struct PendingInline {
    sqe: SubmissionEntry,
    remaining: usize,
    /// When the command was parked — the stall clock for eviction.
    parked_at: Nanos,
}

struct BandSlimPending {
    head: SubmissionEntry,
    total: usize,
    buf: Vec<u8>,
    next_frag: u32,
}

/// A dispatched command's completion, between firmware dispatch and
/// delivery (response DMA + CQE post, or MMIO status-window push). Under
/// [`ExecutionModel::Serial`] it is delivered inline; under
/// [`ExecutionModel::Pipelined`] it waits on the controller's event queue
/// until virtual time reaches `complete_at`.
enum DeferredCompletion {
    /// An I/O-queue command. Keyed by queue *id*, not index — queues may be
    /// deleted while a completion is in flight, in which case it is dropped
    /// (matching real hardware: a CQE for a deleted queue pair goes
    /// nowhere).
    Cqe {
        qid: u16,
        sqe: SubmissionEntry,
        outcome: CommandOutcome,
    },
    /// A byte-interface (MMIO window) command: posts a status word, not a
    /// CQE. Carries the submitting queue's id so the status word (and its
    /// trace events) route back to the owner — cids alone are ambiguous
    /// across queues.
    Mmio {
        qid: u16,
        cid: u16,
        status: Status,
        result: u32,
    },
}

/// The completions in flight under [`ExecutionModel::Pipelined`]. Each
/// waits in a slot of a slab with a free list; the event queue orders only
/// `(at, seq, slot)` keys, so a sift moves 24 bytes, not a 64-byte SQE and
/// its outcome. Keys are pushed as the completions were, so they pop in the
/// same `(complete_at, dispatch order)` order.
#[derive(Default)]
struct Deferred {
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

    fn peek_at(&self) -> Option<Nanos> {
        self.order.peek_at()
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// Slots holding a completion.
    fn live_slots(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Drops every completion in flight (power cut, controller reset).
    fn clear(&mut self) {
        self.order.clear();
        self.slots.clear();
        self.free.clear();
    }
}

/// The simulated NVMe controller.
pub struct Controller {
    bus: SystemBus,
    timing: ControllerTiming,
    fetch_policy: FetchPolicy,
    queues: Vec<IoQueue>,
    firmware: Box<dyn FirmwareHandler>,
    nand: NandArray,
    ftl: Ftl,
    dram: DeviceDram,
    reassembly: ReassemblyEngine,
    stall_deadline: Nanos,
    stats: ControllerStats,
    regs: RegisterFile,
    identify: IdentifyController,
    /// The admin queue pair, latched when CC.EN is set.
    admin: Option<IoQueue>,
    /// CQs created by admin command but not yet bound to an SQ: cqid → (base, depth).
    pending_cqs: BTreeMap<u16, (PhysAddr, u16)>,
    execution: ExecutionModel,
    /// Completions scheduled for future virtual instants (always empty
    /// under [`ExecutionModel::Serial`]).
    deferred: Deferred,
    /// Reusable host→device payload staging buffer: every gather path —
    /// inline chunks, PRP/SGL data, BandSlim head and fragments — takes it
    /// and fills it, and `recycle_payload` returns the largest buffer seen,
    /// so steady-state command processing performs no heap allocation.
    scratch_payload: Vec<u8>,
    /// Reusable list of the extents a PRP/SGL walk visits: descriptor reads
    /// are charged for the whole walk before the first data byte moves.
    scratch_extents: Vec<Extent>,
}

/// One contiguous piece of a command's host buffer — a PRP segment or an
/// SGL extent (`addr` is `None` only for an SGL bit bucket).
type Extent = sgl::SglExtent;

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
            reassembly: ReassemblyEngine::new(cfg.reassembly_sram),
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
        let enabled_now = self.regs.write(reg, value);
        if enabled_now {
            let sq_depth = self.regs.admin_sq_depth();
            let cq_depth = self.regs.admin_cq_depth();
            self.admin = Some(IoQueue {
                id: QueueId(0),
                sq_base: self.regs.admin_sq_base(),
                sq_depth,
                fetch_head: 0,
                cq_base: self.regs.admin_cq_base(),
                cq_depth,
                cq_prod: CqProducer::new(cq_depth),
                cqid: 0,
                bandslim_pending: None,
                inline_pending: None,
            });
            self.regs.set_ready();
        }
        if reg == Register::Cc && !self.regs.enabled() {
            // Controller reset: tear down every queue and drop any
            // completions still in flight toward them.
            self.admin = None;
            self.queues.clear();
            self.pending_cqs.clear();
            self.deferred.clear();
        }
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
                self.deferred.len(),
                "every deferred completion has one slot and one key"
            );
            if p.powered_off {
                return completed;
            }
            let mut progressed = false;
            let delivered = self.deliver_due_completions(p);
            if delivered > 0 {
                completed += delivered;
                progressed = true;
            }
            if p.powered_off {
                return completed;
            }
            let evicted = self.evict_stalled_inline(p);
            if evicted > 0 {
                completed += evicted;
                progressed = true;
            }
            while self.admin_has_work(p) {
                self.process_admin_one(p);
                if p.powered_off {
                    return completed;
                }
                completed += 1;
                progressed = true;
            }
            while let Some(n) = self.process_mmio_one(p) {
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
                if !self.queue_has_work(p, qi) {
                    continue;
                }
                if self.queues[qi].inline_pending.is_some() {
                    completed += self.fetch_reassembly_chunk(p, qi);
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
                match self.deferred.peek_at() {
                    Some(at) => {
                        self.bus.clock.advance_to(at);
                    }
                    None => return completed,
                }
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
                if let Some(response) = &outcome.response {
                    if !response.is_empty() {
                        self.dma_response(p, sqe, response);
                    }
                }
                self.post_completion(p, qi, sqe.cid(), outcome);
                1
            }
            DeferredCompletion::Mmio {
                qid,
                cid,
                status,
                result,
            } => {
                p.mmio_window
                    .completions
                    .push_back(crate::bus::MmioCompletion {
                        qid,
                        cid,
                        status,
                        result,
                    });
                self.bus
                    .trace
                    .emit_cmd(CmdKey::new(qid, cid), || EventKind::CqePost {
                        status: status.to_wire(),
                    });
                self.stats.commands_completed += 1;
                1
            }
        }
    }

    /// Evicts reassembly-mode commands whose chunk train stalled past the
    /// deadline: the parked command fails with
    /// [`Status::DataTransferError`], and the tracker SRAM of every stalled
    /// payload is reclaimed instead of leaking until controller reset.
    /// Returns how many commands were failed.
    fn evict_stalled_inline(&mut self, p: &mut Platform) -> usize {
        if self.fetch_policy != FetchPolicy::Reassembly {
            return 0;
        }
        let now = self.bus.clock.now();
        // Phantom payloads (corrupted headers) have no parked command; the
        // engine sweep alone reclaims their SRAM.
        self.reassembly.evict_stalled(now, self.stall_deadline);
        let mut completed = 0;
        for qi in 0..self.queues.len() {
            // Deadline boundary is EXCLUSIVE: a train whose age equals the
            // deadline exactly survives one more pass; eviction requires
            // age strictly greater. Must agree with the engine sweep in
            // `ReassemblyEngine::evict_stalled` (pinned by
            // `stall_eviction_boundary_is_exclusive` tests in both files).
            let expired = self.queues[qi]
                .inline_pending
                .as_ref()
                .is_some_and(|p| now.saturating_sub(p.parked_at) > self.stall_deadline);
            // Never evict a train that still has fetchable entries queued.
            if expired && !self.queue_has_work(p, qi) {
                #[expect(
                    clippy::expect_used,
                    reason = "is_some_and on the same field two lines up makes take() infallible here"
                )]
                let pending = self.queues[qi].inline_pending.take().expect("checked");
                let outcome = CommandOutcome::fail(Status::DataTransferError, now);
                let key = CmdKey::new(self.queues[qi].id.0, pending.sqe.cid());
                self.bus.trace.emit_cmd(key, || EventKind::ReassemblyEvict);
                self.post_completion(p, qi, pending.sqe.cid(), &outcome);
                self.stats.stalled_evictions += 1;
                completed += 1;
            }
        }
        completed
    }

    /// Consumes one byte-interface submission from the BAR window, if any
    /// (§3.1 baseline: no SQE fetch, no CQE — the buffer monitor hands the
    /// committed bytes straight to the firmware and posts a status word).
    ///
    /// Returns `None` when the window is empty, otherwise the number of
    /// completions posted: 1 under `Serial`, 0 under `Pipelined` (the status
    /// word posts later, when the scheduled completion is delivered).
    fn process_mmio_one(&mut self, p: &mut Platform) -> Option<usize> {
        let sub = p.mmio_window.submissions.pop_front()?;
        if self.power_tick(p) {
            // The committed bytes were still in the volatile window.
            return None;
        }
        self.bus.clock.advance(self.timing.mmio_detect);
        // The byte-interface path has no SQ, but the command is still owned
        // by the submitting queue pair — spans carry its real id, matching
        // the driver's submit hook and the qid echoed on the status word.
        let key = CmdKey::new(sub.qid, sub.sqe.cid());
        self.bus.trace.emit_cmd(key, || EventKind::SqeFetch {
            opcode: sub.sqe.opcode_raw(),
        });
        self.bus.trace.emit_cmd(key, || EventKind::DataFetch {
            kind: "mmio",
            bytes: sub.payload.len(),
        });
        let ctx = FirmwareCtx {
            nand: &mut self.nand,
            ftl: &mut self.ftl,
            dram: &mut self.dram,
            now: self.bus.clock.now(),
        };
        let payload = (!sub.payload.is_empty()).then_some(sub.payload.as_slice());
        let outcome = self.firmware.handle(ctx, &sub.sqe, payload);
        Some(self.finish(
            p,
            outcome.complete_at,
            DeferredCompletion::Mmio {
                qid: sub.qid,
                cid: sub.sqe.cid(),
                status: outcome.status,
                result: outcome.result,
            },
        ))
    }

    fn admin_has_work(&self, p: &Platform) -> bool {
        self.admin
            .as_ref()
            .is_some_and(|q| p.doorbells.sq_tail(q.id) != q.fetch_head)
    }

    /// Fetches and executes one admin command.
    fn process_admin_one(&mut self, p: &mut Platform) {
        if self.power_tick(p) {
            return;
        }
        // Taken out for the command: `handle_admin` needs the rest of `self`.
        let Some(mut q) = self.admin.take() else {
            return;
        };
        self.bus.clock.advance(self.timing.fetch_dispatch_overhead);
        let sqe = SubmissionEntry::from_bytes(&fetch_entry(p, &mut q, None));
        let outcome = self.handle_admin(p, &sqe);
        post_to_queue(p, &self.bus, &self.timing, &mut q, sqe.cid(), &outcome);
        self.admin = Some(q);
        self.stats.admin_commands += 1;
        self.stats.commands_completed += 1;
    }

    fn handle_admin(&mut self, p: &mut Platform, sqe: &SubmissionEntry) -> CommandOutcome {
        let now = self.bus.clock.now();
        match sqe.opcode_raw() {
            op if op == AdminOpcode::Identify as u8 => {
                if sqe.cdw(10) != admin::CNS_CONTROLLER {
                    return CommandOutcome::fail(Status::InvalidField, now);
                }
                let page = self.identify.encode();
                self.dma_response(p, sqe, &page);
                CommandOutcome::ok(self.bus.clock.now())
            }
            op if op == AdminOpcode::CreateIoCq as u8 => {
                let p = admin::queue_params(sqe);
                if p.qid == 0
                    || p.depth < 2
                    || p.depth > self.regs.max_queue_entries
                    || !p.base.is_page_aligned()
                    || self.pending_cqs.contains_key(&p.qid)
                    || self.queues.iter().any(|q| q.cqid == p.qid)
                {
                    return CommandOutcome::fail(Status::InvalidField, now);
                }
                self.pending_cqs.insert(p.qid, (p.base, p.depth));
                CommandOutcome::ok(now)
            }
            op if op == AdminOpcode::CreateIoSq as u8 => {
                let new = admin::queue_params(sqe);
                let Some(&(cq_base, cq_depth)) = self.pending_cqs.get(&new.cqid) else {
                    return CommandOutcome::fail(Status::InvalidField, now);
                };
                if new.qid == 0
                    || new.depth < 2
                    || new.depth > self.regs.max_queue_entries
                    || !new.base.is_page_aligned()
                    || self.queues.iter().any(|q| q.id.0 == new.qid)
                    || (new.qid as usize) >= p.doorbells.queues()
                {
                    return CommandOutcome::fail(Status::InvalidField, now);
                }
                self.pending_cqs.remove(&new.cqid);
                // A queue starts with its tail doorbell at zero, whatever a
                // deleted pair that had the id left in it.
                p.doorbells.ring_sq_tail(QueueId(new.qid), 0);
                self.queues.push(IoQueue {
                    id: QueueId(new.qid),
                    sq_base: new.base,
                    sq_depth: new.depth,
                    fetch_head: 0,
                    cq_base,
                    cq_depth,
                    cq_prod: CqProducer::new(cq_depth),
                    cqid: new.cqid,
                    bandslim_pending: None,
                    inline_pending: None,
                });
                CommandOutcome::ok(now)
            }
            op if op == AdminOpcode::DeleteIoSq as u8 => {
                let qid = admin::delete_target(sqe);
                let Some(pos) = self.queues.iter().position(|q| q.id.0 == qid) else {
                    return CommandOutcome::fail(Status::InvalidField, now);
                };
                let q = self.queues.remove(pos);
                // The CQ outlives its SQ (spec deletes SQ first); return it
                // to the unbound pool so Delete-IO-CQ can find it.
                self.pending_cqs.insert(q.cqid, (q.cq_base, q.cq_depth));
                // Byte-interface commands die with the pair that owns them:
                // a later pair under the same id must not be handed their
                // status words.
                p.mmio_window.submissions.retain(|s| s.qid != qid);
                p.mmio_window.completions.retain(|c| c.qid != qid);
                CommandOutcome::ok(now)
            }
            op if op == AdminOpcode::DeleteIoCq as u8 => {
                let qid = admin::delete_target(sqe);
                if self.queues.iter().any(|q| q.cqid == qid) {
                    // The paired SQ must be deleted first.
                    return CommandOutcome::fail(Status::InvalidField, now);
                }
                if self.pending_cqs.remove(&qid).is_none() {
                    return CommandOutcome::fail(Status::InvalidField, now);
                }
                CommandOutcome::ok(now)
            }
            _ => CommandOutcome::fail(Status::InvalidOpcode, now),
        }
    }

    fn queue_has_work(&self, p: &Platform, qi: usize) -> bool {
        let q = &self.queues[qi];
        p.doorbells.sq_tail(q.id) != q.fetch_head
    }

    /// Processes one command (which may consume multiple SQ entries).
    /// Returns 1 if a command completed, 0 if the entry was absorbed into a
    /// pending BandSlim assembly.
    fn process_one(&mut self, p: &mut Platform, qi: usize) -> usize {
        if self.power_tick(p) {
            return 0;
        }
        // SQE fetch: firmware dispatch overhead + the 64-byte DMA round trip.
        self.bus.clock.advance(self.timing.fetch_dispatch_overhead);
        let sqe = SubmissionEntry::from_bytes(&fetch_entry(p, &mut self.queues[qi], None));

        if bandslim::is_frag(&sqe) {
            return self.absorb_bandslim_frag(p, qi, &sqe);
        }
        self.stats.sqes_fetched += 1;
        let key = CmdKey::new(self.queues[qi].id.0, sqe.cid());
        self.bus.trace.emit_cmd(key, || EventKind::SqeFetch {
            opcode: sqe.opcode_raw(),
        });

        let mut completed = 0;
        // Gather the host→device payload per transfer method.
        let payload: Option<Vec<u8>> = if let Some(len) = inline::inline_len(&sqe) {
            match self.fetch_policy {
                FetchPolicy::QueueLocal => {
                    let payload = self.gather_inline(p, qi, len);
                    self.bus.trace.emit_cmd(key, || EventKind::InlineGather {
                        chunks: inline::chunks_for_len(len) as u16,
                        bytes: payload.len(),
                    });
                    Some(payload)
                }
                FetchPolicy::Reassembly => {
                    // Chunks are self-describing: park the command and let
                    // the main loop fetch its chunks interleaved with other
                    // queues' traffic.
                    self.queues[qi].inline_pending = Some(PendingInline {
                        sqe,
                        remaining: inline::chunks_for_len_reassembly(len),
                        parked_at: self.bus.clock.now(),
                    });
                    return 0;
                }
            }
        } else if let Some(total) = bandslim::head_len(&sqe) {
            // A head while an earlier one still waits for fragments strands
            // that one: fail it as an out-of-order fragment would.
            if let Some(stale) = self.queues[qi].bandslim_pending.take() {
                completed += self.fail_bandslim(p, qi, stale.head.cid());
                self.recycle_payload(stale.buf);
            }
            // CDW3 is wire-supplied (up to 255); no head carries more than
            // `HEAD_CAPACITY` bytes.
            let embedded = bandslim::head_embedded(&sqe).min(total);
            if embedded > bandslim::HEAD_CAPACITY {
                return completed + self.fail_bandslim(p, qi, sqe.cid());
            }
            match self.begin_bandslim(qi, &sqe, total, embedded) {
                Some(p) => {
                    self.bus.trace.emit_cmd(key, || EventKind::DataFetch {
                        kind: "bandslim",
                        bytes: p.len(),
                    });
                    Some(p)
                }
                None => return completed, // fragments still to come
            }
        } else if opcode_moves_data_in(&sqe) {
            let payload = self.gather_dptr(p, &sqe);
            if let Some(p) = &payload {
                let kind = match sqe.data_pointer_kind() {
                    DataPointerKind::Prp => "prp",
                    DataPointerKind::Sgl => "sgl",
                };
                self.bus.trace.emit_cmd(key, || EventKind::DataFetch {
                    kind,
                    bytes: p.len(),
                });
            }
            payload
        } else {
            None
        };

        completed += self.dispatch_and_complete(p, qi, &sqe, payload.as_deref());
        if let Some(buf) = payload {
            self.recycle_payload(buf);
        }
        completed
    }

    /// Fetches a queue-local ByteExpress chunk train following the command.
    ///
    /// Queue-local: the *same* queue's next entries, no switching
    /// mid-transaction. The train's slots are copied straight into the
    /// controller's reusable staging buffer, one copy per contiguous ring
    /// span (two at most, unless a hostile length laps the ring), and the
    /// link and clock are charged once for the whole train: chunk fetches
    /// pipeline, so the marginal cost is per-entry processing (Table 1), not
    /// a fresh DMA round trip — traffic is still charged in full.
    fn gather_inline(&mut self, p: &mut Platform, qi: usize, len: usize) -> Vec<u8> {
        let n = inline::chunks_for_len(len);
        let mut payload = self.take_scratch_payload(len);
        let per_chunk = self.timing.per_chunk_fetch + self.timing.chunk_land;
        let q = &mut self.queues[qi];
        for (slot, run) in queue::slot_spans(q.fetch_head, n, q.sq_depth) {
            let at = payload.len();
            let take = (len - at).min(run * SQE_BYTES);
            payload.resize(at + take, 0);
            #[expect(
                clippy::expect_used,
                reason = "ring geometry is asserted at queue creation; slot math cannot escape the region"
            )]
            p.mem
                .read(q.slot_addr(slot), &mut payload[at..])
                .expect("SQ ring must be in bounds");
            q.fetch_head = queue::wrap_add(slot, run as u16, q.sq_depth);
        }
        p.link
            .device_read_n(TrafficClass::SqeFetch, SQE_BYTES, n as u64, per_chunk);
        p.clock.advance(per_chunk * n as u64);
        self.stats.chunks_fetched += n as u64;
        self.stats.inline_payload_bytes += payload.len() as u64;
        payload
    }

    /// The staging buffer, emptied, with room for `len` bytes.
    fn take_scratch_payload(&mut self, len: usize) -> Vec<u8> {
        let mut payload = std::mem::take(&mut self.scratch_payload);
        payload.clear();
        payload.reserve(len);
        payload
    }

    /// Returns a gather buffer after its command dispatched; the largest
    /// buffer seen is kept as the staging scratch for the next gather.
    fn recycle_payload(&mut self, buf: Vec<u8>) {
        if buf.capacity() > self.scratch_payload.capacity() {
            self.scratch_payload = buf;
        }
    }

    /// Fetches one reassembly-mode chunk for a parked command; dispatches
    /// the command once its payload completes. Returns completions (0 or 1).
    fn fetch_reassembly_chunk(&mut self, p: &mut Platform, qi: usize) -> usize {
        if self.power_tick(p) {
            return 0;
        }
        let per_chunk =
            self.timing.per_chunk_fetch + self.timing.chunk_land + self.timing.reassembly_account;
        let img = fetch_entry(p, &mut self.queues[qi], Some(per_chunk));
        self.stats.chunks_fetched += 1;

        let (hdr, data) = inline::split_reassembly_chunk(&img);
        let accepted = self.reassembly.accept_at(hdr, data, self.bus.clock.now());
        let qid = self.queues[qi].id.0;
        #[expect(
            clippy::expect_used,
            reason = "chunk slots are only fetched while a head command is parked; queue_has_work enforces this"
        )]
        let pending = self.queues[qi]
            .inline_pending
            .as_mut()
            .expect("chunk fetch requires a parked command");
        pending.remaining -= 1;
        let last = pending.remaining == 0;
        let key = CmdKey::new(qid, pending.sqe.cid());
        if accepted.is_ok() {
            self.bus
                .trace
                .emit_cmd(key, || EventKind::ReassemblyAccept { seq: hdr.chunk_no });
        }

        match (accepted, last) {
            (Ok(Some(completed)), true) => {
                #[expect(
                    clippy::expect_used,
                    reason = "the parked command was borrowed above; only this arm consumes it"
                )]
                let pending = self.queues[qi].inline_pending.take().expect("parked");
                #[expect(
                    clippy::expect_used,
                    reason = "commands park in inline_pending only after inline_len() succeeded at dispatch"
                )]
                let len = inline::inline_len(&pending.sqe).expect("inline command");
                let mut payload = completed.data;
                payload.truncate(len);
                self.stats.inline_payload_bytes += payload.len() as u64;
                let completions = self.dispatch_and_complete(p, qi, &pending.sqe, Some(&payload));
                // Hand the train buffer back to the engine's pool so the
                // next payload reuses it instead of allocating.
                self.reassembly.recycle(payload);
                completions
            }
            (Ok(_), false) | (Err(_), false) => 0,
            // Last chunk but no completed payload: the train was malformed
            // (duplicate ids, wrong totals). Fail the command visibly.
            (Ok(None), true) | (Err(_), true) => {
                #[expect(
                    clippy::expect_used,
                    reason = "the parked command was borrowed above; only the terminal arms consume it"
                )]
                let pending = self.queues[qi].inline_pending.take().expect("parked");
                let outcome = CommandOutcome::fail(Status::DataTransferError, self.bus.clock.now());
                self.post_completion(p, qi, pending.sqe.cid(), &outcome);
                1
            }
        }
    }

    /// Starts (or finishes, if fully embedded) a BandSlim transfer of
    /// `total` bytes, `embedded` (≤ `HEAD_CAPACITY`) of them in the head.
    fn begin_bandslim(
        &mut self,
        qi: usize,
        sqe: &SubmissionEntry,
        total: usize,
        embedded: usize,
    ) -> Option<Vec<u8>> {
        let mut buf = self.take_scratch_payload(total);
        bandslim::decode_head(sqe, embedded, &mut buf);
        self.stats.bandslim_payload_bytes += embedded as u64;
        if embedded >= total {
            return Some(buf);
        }
        self.queues[qi].bandslim_pending = Some(BandSlimPending {
            head: *sqe,
            total,
            buf,
            next_frag: 0,
        });
        None
    }

    /// Fails BandSlim command `cid`, whose framing the host broke; returns
    /// the one completion posted.
    fn fail_bandslim(&mut self, p: &mut Platform, qi: usize, cid: u16) -> usize {
        let out = CommandOutcome::fail(Status::InvalidField, self.bus.clock.now());
        self.post_completion(p, qi, cid, &out);
        1
    }

    /// Consumes one BandSlim fragment into the pending assembly, in place;
    /// dispatches the head command when the payload is complete.
    fn absorb_bandslim_frag(
        &mut self,
        p: &mut Platform,
        qi: usize,
        sqe: &SubmissionEntry,
    ) -> usize {
        self.bus.clock.advance(self.timing.bandslim_frag_decode);
        self.stats.frags_consumed += 1;

        let q = &mut self.queues[qi];
        let Some(pending) = q.bandslim_pending.as_mut() else {
            // Orphan fragment: fail it visibly.
            return self.fail_bandslim(p, qi, sqe.cid());
        };
        let take = (pending.total - pending.buf.len()).min(bandslim::FRAG_CAPACITY);
        let frag_no = bandslim::decode_frag(sqe, take, &mut pending.buf);
        // Out-of-order or cross-command fragments violate the serialization
        // BandSlim requires.
        let in_order = frag_no == pending.next_frag && sqe.cid() == pending.head.cid();
        if in_order {
            pending.next_frag += 1;
            self.stats.bandslim_payload_bytes += take as u64;
            if pending.buf.len() < pending.total {
                return 0;
            }
        }
        // The assembly ends here: dispatched whole, or failed.
        #[expect(
            clippy::expect_used,
            reason = "the assembly was borrowed just above; only this path consumes it"
        )]
        let pending = q.bandslim_pending.take().expect("pending assembly");
        let completed = if in_order {
            let key = CmdKey::new(q.id.0, pending.head.cid());
            self.bus.trace.emit_cmd(key, || EventKind::DataFetch {
                kind: "bandslim",
                bytes: pending.buf.len(),
            });
            self.dispatch_and_complete(p, qi, &pending.head, Some(&pending.buf))
        } else {
            self.fail_bandslim(p, qi, pending.head.cid())
        };
        self.recycle_payload(pending.buf);
        completed
    }

    /// Gathers payload via the command's data pointer (PRP or SGL) into the
    /// staging buffer.
    fn gather_dptr(&mut self, p: &mut Platform, sqe: &SubmissionEntry) -> Option<Vec<u8>> {
        let len = sqe.data_len() as usize;
        if len == 0 {
            return None;
        }
        self.bus.clock.advance(self.timing.prp_setup);
        let mut payload = self.take_scratch_payload(len);
        let mut extents = std::mem::take(&mut self.scratch_extents);
        let gathered = self.gather_extents(p, sqe, len, &mut extents, &mut payload);
        self.scratch_extents = extents;
        if gathered.is_none() {
            self.recycle_payload(payload);
            return None;
        }
        Some(payload)
    }

    /// Walks the command's PRP or SGL into `extents`, then copies what they
    /// describe into `payload`, charging the link for every read.
    fn gather_extents(
        &mut self,
        p: &mut Platform,
        sqe: &SubmissionEntry,
        len: usize,
        extents: &mut Vec<Extent>,
        payload: &mut Vec<u8>,
    ) -> Option<()> {
        let kind = sqe.data_pointer_kind();
        let (descriptors, data) = match kind {
            DataPointerKind::Prp => (TrafficClass::PrpList, TrafficClass::PrpData),
            DataPointerKind::Sgl => (TrafficClass::SglDescriptor, TrafficClass::SglData),
        };
        // The walk reads host memory while its descriptor fetches charge the
        // link, so it borrows the two apart.
        let Platform {
            mem, link, clock, ..
        } = &mut *p;
        let fetched = |_, bytes| {
            clock.advance(link.device_read(descriptors, bytes));
        };
        extents.clear();
        match kind {
            DataPointerKind::Prp => prp::walk(mem, sqe.prp1(), sqe.prp2(), len, fetched, |seg| {
                extents.push(Extent {
                    addr: Some(seg.addr),
                    len: seg.len,
                })
            })
            .ok()?,
            DataPointerKind::Sgl => {
                let first = sgl::SglDescriptor::from_bytes(&sqe.sgl_bytes()).ok()?;
                sgl::walk(mem, first, len, fetched, |extent| extents.push(extent)).ok()?
            }
        }
        for extent in extents.iter() {
            let wire_len = match kind {
                // PRP moves whole pages over the wire regardless of how
                // few bytes the host cares about — the paper's Fig 1
                // amplification. We charge the page-granular traffic
                // and copy the segment bytes.
                DataPointerKind::Prp => extent.len.max(page_granular_len(extent.len)),
                DataPointerKind::Sgl => extent.len,
            };
            p.clock.advance(p.link.device_read(data, wire_len));
            match extent.addr {
                Some(addr) => payload.extend_from_slice(p.mem.slice(addr, extent.len).ok()?),
                None => payload.resize(payload.len() + extent.len, 0),
            }
        }
        let moved = payload.len() as u64;
        match kind {
            DataPointerKind::Prp => self.stats.prp_payload_bytes += moved,
            DataPointerKind::Sgl => self.stats.sgl_payload_bytes += moved,
        }
        Some(())
    }

    /// Runs firmware on one gathered command and hands the outcome to
    /// [`Controller::finish`]. Returns the number of completions posted
    /// *now*.
    fn dispatch_and_complete(
        &mut self,
        p: &mut Platform,
        qi: usize,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> usize {
        let ctx = FirmwareCtx {
            nand: &mut self.nand,
            ftl: &mut self.ftl,
            dram: &mut self.dram,
            now: self.bus.clock.now(),
        };
        let outcome = self.firmware.handle(ctx, sqe, payload);
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

    /// The one completion path, and the controller's only branch on
    /// [`ExecutionModel`]: what happens between firmware dispatch and
    /// [`Controller::deliver_completion`]. `Serial` freezes the controller
    /// until the media finishes — the clock advances to `complete_at` and
    /// the completion is delivered inline. `Pipelined` schedules the same
    /// delivery on the deferred-event queue and returns at once. Returns
    /// the number of completions posted *now*.
    fn finish(&mut self, p: &mut Platform, complete_at: Nanos, ev: DeferredCompletion) -> usize {
        match self.execution {
            ExecutionModel::Serial => {
                self.bus.clock.advance_to(complete_at);
                self.deliver_completion(p, &ev)
            }
            ExecutionModel::Pipelined => {
                let until = complete_at.max(self.bus.clock.now());
                let key = match &ev {
                    DeferredCompletion::Cqe { qid, sqe, .. } => CmdKey::new(*qid, sqe.cid()),
                    DeferredCompletion::Mmio { qid, cid, .. } => CmdKey::new(*qid, *cid),
                };
                self.bus
                    .trace
                    .emit_cmd(key, || EventKind::CqeDeferred { until });
                self.deferred.push(until, ev);
                0
            }
        }
    }

    fn dma_response(&mut self, p: &mut Platform, sqe: &SubmissionEntry, response: &[u8]) {
        // The PRP entries describe the *host buffer* the command allotted
        // (`data_len`); interpreting PRP2 depends on that length, not on how
        // many bytes the firmware actually returned. Walk the full buffer,
        // then write only the response bytes into its leading segments.
        let buffer_len = (sqe.data_len() as usize).max(response.len());
        let mut segments = std::mem::take(&mut self.scratch_extents);
        segments.clear();
        let Platform {
            mem, link, clock, ..
        } = &mut *p;
        let walked = prp::walk(
            mem,
            sqe.prp1(),
            sqe.prp2(),
            buffer_len,
            |_, bytes| {
                clock.advance(link.device_read(TrafficClass::PrpList, bytes));
            },
            |seg| {
                segments.push(Extent {
                    addr: Some(seg.addr),
                    len: seg.len,
                })
            },
        );
        if walked.is_ok() {
            let mut rest = response;
            for seg in &segments {
                // A PRP segment always has an address.
                let Some(addr) = seg.addr else { continue };
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(seg.len.min(rest.len()));
                #[expect(
                    clippy::expect_used,
                    reason = "segment extents were validated by the SGL/PRP walk that produced them"
                )]
                mem.write(addr, chunk).expect("response buffer in bounds");
                clock
                    .advance(link.device_posted_write(TrafficClass::DeviceToHostData, chunk.len()));
                rest = tail;
            }
        }
        self.scratch_extents = segments;
    }

    fn post_completion(&mut self, p: &mut Platform, qi: usize, cid: u16, outcome: &CommandOutcome) {
        let q = &mut self.queues[qi];
        post_to_queue(p, &self.bus, &self.timing, q, cid, outcome);
        self.stats.commands_completed += 1;
    }

    /// Whether a power cut has fired and [`Controller::power_cycle`] has not
    /// yet restored the device.
    pub fn is_powered_off(&self) -> bool {
        self.bus.platform().borrow().powered_off
    }

    /// Ticks the platform's power-cut countdown at one processing event;
    /// freezes the device if it fires. Returns whether the device is (now)
    /// dark.
    fn power_tick(&mut self, p: &mut Platform) -> bool {
        if !p.powered_off && p.power_cut_tick() {
            self.power_fail(p);
        }
        p.powered_off
    }

    /// Cuts power immediately, regardless of the armed countdown (harness
    /// hook for crash-schedule sweeps that pick the cut point externally).
    /// No-op if already dark.
    pub fn force_power_cut(&mut self) {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        if !p.powered_off {
            self.power_fail(p);
        }
    }

    /// The power cut itself: durable state (programmed NAND pages, journal
    /// records already on media) survives; everything volatile — SQ/CQ
    /// rings, doorbells, BAR registers, device DRAM, reassembly buffers,
    /// in-flight NAND programs and completions — is lost at this instant.
    fn power_fail(&mut self, p: &mut Platform) {
        let at = self.bus.clock.now();
        let torn_pages = self.nand.power_cut(at) as u32;
        self.ftl.power_fail(at);
        self.dram.wipe();
        let dropped_trains = self.reassembly.power_cut() as u32;
        self.queues.clear();
        self.admin = None;
        self.pending_cqs.clear();
        self.deferred.clear();
        self.reset_bar(p);
        self.bus.trace.emit(None, || EventKind::PowerCut {
            torn_pages,
            dropped_trains,
        });
        p.powered_off = true;
    }

    /// Restores power after a cut: rebuilds the FTL from NAND and the
    /// mapping journal ([`Ftl::recover`]), lets firmware re-derive its
    /// volatile state, and clears the dark flag. The *host* side (admin
    /// queue, I/O queues, identify) is gone — the driver must re-run its
    /// bring-up sequence afterwards, exactly as after a real power cycle.
    ///
    /// Cuts power first if the device was still live (a deliberate hard
    /// cycle).
    pub fn power_cycle(&mut self) -> RecoveryReport {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        if !p.powered_off {
            self.power_fail(p);
        }
        // Power-on reset of BAR space. MMIO writes aimed at a dark device go
        // nowhere on real hardware, but the simulated doorbell array and MMIO
        // window live on the bus and still record writes from a host
        // submitting to the dead controller — without this reset those stale
        // tails would make bring-up chase phantom SQ entries around the ring.
        self.reset_bar(p);
        let report = self.ftl.recover(&self.nand);
        let ctx = FirmwareCtx {
            nand: &mut self.nand,
            ftl: &mut self.ftl,
            dram: &mut self.dram,
            now: self.bus.clock.now(),
        };
        self.firmware.on_power_cycle(ctx);
        p.powered_off = false;
        report
    }

    /// BAR space at its power-on values: doorbells, the byte-interface
    /// window, the register file.
    fn reset_bar(&mut self, p: &mut Platform) {
        p.doorbells.power_cut();
        p.mmio_window.submissions.clear();
        p.mmio_window.completions.clear();
        self.regs.power_cut();
    }
}

/// Reads the SQ entry at the queue's fetch head, advances the head and
/// charges the 64-byte fetch to the link. In time it costs the DMA round
/// trip — or `pipelined`, the per-entry constant of a chunk that streams
/// behind its command (Table 1), when given.
fn fetch_entry(p: &mut Platform, q: &mut IoQueue, pipelined: Option<Nanos>) -> [u8; 64] {
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
fn post_to_queue(
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

/// Whether this command's data phase is host→device via the data pointer.
fn opcode_moves_data_in(sqe: &SubmissionEntry) -> bool {
    sqe.io_opcode().is_some_and(IoOpcode::is_host_to_device)
}

/// PRP transfers are page-granular on the wire: the device fetches whole
/// pages even for sub-page payloads (§2.3, Fig 1).
fn page_granular_len(len: usize) -> usize {
    use bx_hostsim::PAGE_SIZE;
    len.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::BlockFirmware;
    use bx_pcie::LinkConfig;
    use proptest::prelude::*;

    /// A minimal hand-rolled driver for controller unit tests: writes SQEs
    /// and chunks straight into SQ memory and rings doorbells. The real
    /// driver lives in `bx-driver`; these tests isolate controller behaviour.
    struct MiniDriver {
        bus: SystemBus,
        sq_base: PhysAddr,
        cq_base: PhysAddr,
        depth: u16,
        tail: u16,
        cq_head: u16,
        phase: bool,
        qid: QueueId,
    }

    impl MiniDriver {
        fn new(bus: &SystemBus, ctrl: &mut Controller, depth: u16) -> Self {
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

        fn push_raw(&mut self, img: &[u8; 64]) {
            let addr = self.sq_base.offset(self.tail as u64 * 64);
            self.bus
                .platform()
                .borrow_mut()
                .mem
                .write(addr, img)
                .unwrap();
            self.tail = queue::wrap_add(self.tail, 1, self.depth);
        }

        fn ring(&mut self) {
            self.bus
                .platform()
                .borrow_mut()
                .doorbells
                .ring_sq_tail(self.qid, self.tail);
        }

        fn pop_cqe(&mut self) -> Option<CompletionEntry> {
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

    fn setup(nand_io: bool) -> (SystemBus, Controller) {
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
    fn byteexpress_write_lands_payload() {
        let (bus, mut ctrl) = setup(true);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 7, 1);
        sqe.set_cdw(10, 3);
        sqe.set_data_len(payload.len() as u32);
        inline::set_inline_len(&mut sqe, payload.len());
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_chunks(&payload) {
            drv.push_raw(&chunk);
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().expect("completion posted");
        assert_eq!(cqe.cid(), 7);
        assert_eq!(cqe.status(), Status::Success);
        // SQ head advanced past command + 2 chunks.
        assert_eq!(cqe.sq_head(), 3);
        assert_eq!(ctrl.stats().chunks_fetched, 2);
        assert_eq!(ctrl.stats().inline_payload_bytes, 100);

        // Read it back via PRP to verify the bytes reached NAND.
        let buf_page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        let mut rd = SubmissionEntry::io(IoOpcode::Read, 8, 1);
        rd.set_cdw(10, 3);
        rd.set_data_len(100);
        rd.set_prp1(buf_page);
        drv.push_raw(&rd.to_bytes());
        drv.ring();
        ctrl.process_available();
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!(cqe.status(), Status::Success);
        assert_eq!(
            bus.platform().borrow().mem.read_vec(buf_page, 100).unwrap(),
            payload
        );
    }

    #[test]
    fn prp_write_moves_whole_page_traffic() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        bus.platform()
            .borrow_mut()
            .mem
            .write(page, &[9u8; 32])
            .unwrap();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        sqe.set_data_len(32);
        sqe.set_prp1(page);
        drv.push_raw(&sqe.to_bytes());
        drv.ring();

        let before = bus.traffic();
        ctrl.process_available();
        let delta = bus.traffic().since(&before);
        // 32 payload bytes cost a whole page of PRP traffic: >130x (Fig 1c).
        let amp = delta.total_bytes() as f64 / 32.0;
        assert!(amp > 130.0, "amplification {amp}");
        assert_eq!(delta.class(TrafficClass::PrpData).payload_bytes, 4096);
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
    fn bandslim_head_embedding_single_cmd() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload = [3u8; 20];
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 5, 1);
        sqe.set_data_len(20);
        bandslim::encode_head(&mut sqe, &payload, bandslim::HEAD_CAPACITY);
        drv.push_raw(&sqe.to_bytes());
        drv.ring();

        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(ctrl.stats().frags_consumed, 0);
        assert_eq!(ctrl.stats().bandslim_payload_bytes, 20);
    }

    #[test]
    fn bandslim_fragmented_transfer() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload: Vec<u8> = (0..128u32).map(|i| i as u8).collect();
        let mut head = SubmissionEntry::io(IoOpcode::Write, 6, 1);
        head.set_data_len(128);
        let embedded = bandslim::encode_head(&mut head, &payload, bandslim::HEAD_CAPACITY);
        drv.push_raw(&head.to_bytes());
        let mut off = embedded;
        let mut frag_no = 0u32;
        while off < payload.len() {
            let take = (payload.len() - off).min(bandslim::FRAG_CAPACITY);
            let frag = bandslim::encode_frag(6, 1, frag_no, &payload[off..off + take]);
            drv.push_raw(&frag.to_bytes());
            off += take;
            frag_no += 1;
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 1, "one logical command");
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(ctrl.stats().frags_consumed, 2); // 32 + 48 + 48
        assert_eq!(ctrl.stats().bandslim_payload_bytes, 128);
    }

    #[test]
    fn orphan_fragment_fails_visibly() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);
        let frag = bandslim::encode_frag(9, 1, 0, &[1; 16]);
        drv.push_raw(&frag.to_bytes());
        drv.ring();
        ctrl.process_available();
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!(cqe.status(), Status::InvalidField);
    }

    /// A BandSlim head for `len` payload bytes whose CDW3 claims `count` of
    /// them embedded — any `count`, not only what `encode_head` would record.
    fn bandslim_head(cid: u16, len: usize, count: u32) -> SubmissionEntry {
        let mut head = SubmissionEntry::io(IoOpcode::Write, cid, 1);
        let embedded = [0x5A; bandslim::HEAD_CAPACITY];
        let embedded = &embedded[..len.min(embedded.len())];
        bandslim::encode_head(&mut head, embedded, bandslim::HEAD_CAPACITY);
        head.set_cdw2(head.cdw2() & 0xFF00_0000 | len as u32);
        head.set_cdw3(count);
        head
    }

    #[test]
    fn bandslim_head_with_oversized_embed_count_fails_visibly() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        drv.push_raw(&bandslim_head(5, 300, 200).to_bytes());
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!((cqe.cid(), cqe.status()), (5, Status::InvalidField));
        assert!(drv.pop_cqe().is_none());

        // The controller still serves the next command.
        drv.push_raw(&bandslim_head(6, 20, 20).to_bytes());
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().unwrap();
        assert_eq!((cqe.cid(), cqe.status()), (6, Status::Success));
    }

    /// One raw BandSlim SQ entry with wire-supplied framing fields.
    #[derive(Debug, Clone)]
    enum BandSlimEntry {
        Head { cid: u16, len: usize, count: u32 },
        Frag { cid: u16, frag_no: u32 },
    }

    fn bandslim_entry() -> impl Strategy<Value = BandSlimEntry> {
        // Few cids and small fragment numbers, so fragments do hit the
        // pending head in order; the wide arms are the hostile field values.
        let len = prop_oneof![8 => 0..400usize, 1 => Just(0x00FF_FFFF)];
        let count = prop_oneof![4 => 0..=40u32, 1 => any::<u32>()];
        let frag_no = prop_oneof![6 => 0..4u32, 1 => any::<u32>()];
        prop_oneof![
            2 => (0..4u16, len, count)
                .prop_map(|(cid, len, count)| BandSlimEntry::Head { cid, len, count }),
            3 => (0..4u16, frag_no).prop_map(|(cid, frag_no)| BandSlimEntry::Frag { cid, frag_no }),
        ]
    }

    /// What the controller owes the host for a stream of BandSlim entries:
    /// the `(cid, status)` of every CQE, in order. `pending` is the head
    /// still waiting for fragments: `(cid, total, received, next fragment)`.
    #[derive(Default)]
    struct BandSlimModel {
        pending: Option<(u16, usize, usize, u32)>,
        cqes: Vec<(u16, Status)>,
    }

    impl BandSlimModel {
        fn dispatch(&mut self, cid: u16, total: usize) {
            // BlockFirmware, NAND off: a write lands unless it is empty.
            let status = if total == 0 {
                Status::InvalidField
            } else {
                Status::Success
            };
            self.cqes.push((cid, status));
        }

        fn feed(&mut self, entry: &BandSlimEntry) {
            match *entry {
                BandSlimEntry::Head { cid, len, count } => {
                    if let Some((stale, ..)) = self.pending.take() {
                        self.cqes.push((stale, Status::InvalidField));
                    }
                    let embedded = ((count & 0xFF) as usize).min(len);
                    if embedded > bandslim::HEAD_CAPACITY {
                        self.cqes.push((cid, Status::InvalidField));
                    } else if embedded == len {
                        self.dispatch(cid, len);
                    } else {
                        self.pending = Some((cid, len, embedded, 0));
                    }
                }
                BandSlimEntry::Frag { cid, frag_no } => match self.pending.take() {
                    None => self.cqes.push((cid, Status::InvalidField)),
                    Some((head, _, _, next)) if (cid, frag_no) != (head, next) => {
                        self.cqes.push((head, Status::InvalidField));
                    }
                    Some((head, total, received, next)) => {
                        let received = received + (total - received).min(bandslim::FRAG_CAPACITY);
                        if received == total {
                            self.dispatch(head, total);
                        } else {
                            self.pending = Some((head, total, received, next + 1));
                        }
                    }
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Wire-supplied BandSlim framing — any CDW2 length, CDW3 count or
        /// fragment number, any cid, with and without a head pending, in and
        /// out of order — never panics the controller: every head is
        /// answered exactly once, nothing else is except an orphan fragment,
        /// and a well-formed command after the garbage still succeeds.
        #[test]
        fn hostile_bandslim_framing_never_panics(
            garbage in proptest::collection::vec(bandslim_entry(), 1..60),
        ) {
            let (bus, mut ctrl) = setup(false);
            let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);
            let mut model = BandSlimModel::default();
            // A 128-byte write: 32 bytes in the head, 48 in each fragment.
            let well_formed = [
                BandSlimEntry::Head { cid: 9, len: 128, count: 32 },
                BandSlimEntry::Frag { cid: 9, frag_no: 0 },
                BandSlimEntry::Frag { cid: 9, frag_no: 1 },
            ];
            let mut cqes = Vec::new();
            for entry in garbage.iter().chain(&well_formed) {
                let sqe = match *entry {
                    BandSlimEntry::Head { cid, len, count } => bandslim_head(cid, len, count),
                    BandSlimEntry::Frag { cid, frag_no } => {
                        bandslim::encode_frag(cid, 1, frag_no, &[0xA5; bandslim::FRAG_CAPACITY])
                    }
                };
                drv.push_raw(&sqe.to_bytes());
                drv.ring();
                let posted = ctrl.process_available();
                let before = cqes.len();
                while let Some(cqe) = drv.pop_cqe() {
                    cqes.push((cqe.cid(), cqe.status()));
                }
                prop_assert_eq!(posted, cqes.len() - before);
                model.feed(entry);
            }
            prop_assert_eq!(cqes.last(), Some(&(9, Status::Success)));
            prop_assert_eq!(cqes, model.cqes);
        }
    }

    #[test]
    fn reassembly_policy_accepts_headered_chunks() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
        let cfg = ControllerConfig {
            nand: NandConfig::small(),
            fetch_policy: FetchPolicy::Reassembly,
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, true))
        });
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 11, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(200);
        inline::set_inline_len(&mut sqe, 200);
        sqe.set_cdw3(42); // payload id
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_reassembly_chunks(42, &payload) {
            drv.push_raw(&chunk);
        }
        drv.ring();

        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
        assert_eq!(ctrl.reassembly().completed_count(), 1);
        assert_eq!(ctrl.reassembly().sram_used(), 0);

        // Verify integrity through a read-back.
        let buf_page = bus.platform().borrow_mut().mem.alloc_page().unwrap().addr();
        let mut rd = SubmissionEntry::io(IoOpcode::Read, 12, 1);
        rd.set_cdw(10, 1);
        rd.set_data_len(200);
        rd.set_prp1(buf_page);
        drv.push_raw(&rd.to_bytes());
        drv.ring();
        ctrl.process_available();
        assert_eq!(
            bus.platform().borrow().mem.read_vec(buf_page, 200).unwrap(),
            payload
        );
    }

    #[test]
    fn truncated_reassembly_train_evicted_after_deadline() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
        let cfg = ControllerConfig {
            nand: NandConfig::small(),
            fetch_policy: FetchPolicy::Reassembly,
            inline_stall_deadline: Nanos::from_us(100),
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, true))
        });
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        // A 200-byte payload needs 4 reassembly chunks; deliver only 3.
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 21, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(200);
        inline::set_inline_len(&mut sqe, 200);
        sqe.set_cdw3(77);
        drv.push_raw(&sqe.to_bytes());
        let chunks = inline::encode_reassembly_chunks(77, &payload);
        assert_eq!(chunks.len(), 4);
        for chunk in &chunks[..3] {
            drv.push_raw(chunk);
        }
        drv.ring();

        // The train stalls: no completion, SRAM still held.
        assert_eq!(ctrl.process_available(), 0);
        assert!(drv.pop_cqe().is_none());
        assert!(ctrl.reassembly().sram_used() > 0);

        // Past the deadline the command fails visibly and SRAM is reclaimed.
        bus.clock.advance(Nanos::from_us(200));
        assert_eq!(ctrl.process_available(), 1);
        let cqe = drv.pop_cqe().expect("eviction posts a completion");
        assert_eq!(cqe.cid(), 21);
        assert_eq!(cqe.status(), Status::DataTransferError);
        assert_eq!(ctrl.reassembly().sram_used(), 0);
        assert_eq!(ctrl.reassembly().evicted_count(), 1);
        assert_eq!(ctrl.stats().stalled_evictions, 1);

        // The queue is usable again: a complete train succeeds.
        let mut sqe = SubmissionEntry::io(IoOpcode::Write, 22, 1);
        sqe.set_cdw(10, 1);
        sqe.set_data_len(200);
        inline::set_inline_len(&mut sqe, 200);
        sqe.set_cdw3(78);
        drv.push_raw(&sqe.to_bytes());
        for chunk in inline::encode_reassembly_chunks(78, &payload) {
            drv.push_raw(&chunk);
        }
        drv.ring();
        assert_eq!(ctrl.process_available(), 1);
        assert_eq!(drv.pop_cqe().unwrap().status(), Status::Success);
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
    fn fetch_latency_matches_table1_slope() {
        let (bus, mut ctrl) = setup(false);
        let mut drv = MiniDriver::new(&bus, &mut ctrl, 64);

        let measure = |drv: &mut MiniDriver, ctrl: &mut Controller, len: usize| {
            let payload = vec![1u8; len];
            let mut sqe = SubmissionEntry::io(IoOpcode::Write, 1, 1);
            sqe.set_data_len(len as u32);
            inline::set_inline_len(&mut sqe, len);
            drv.push_raw(&sqe.to_bytes());
            for c in inline::encode_chunks(&payload) {
                drv.push_raw(&c);
            }
            drv.ring();
            let t0 = drv.bus.clock.now();
            ctrl.process_available();
            drv.pop_cqe().unwrap();
            (drv.bus.clock.now() - t0).as_ns()
        };

        let t64 = measure(&mut drv, &mut ctrl, 64);
        let t128 = measure(&mut drv, &mut ctrl, 128);
        let t256 = measure(&mut drv, &mut ctrl, 256);
        // Each extra chunk adds per_chunk_fetch + chunk_land = 440 ns.
        assert_eq!(t128 - t64, 440);
        assert_eq!(t256 - t128, 880);
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
        assert_eq!(ctrl.deferred.len(), 0);
    }

    #[test]
    fn empty_controller_is_idle() {
        let (_bus, mut ctrl) = setup(false);
        assert_eq!(ctrl.process_available(), 0);
    }

    /// `gather_inline` as it was before trains were fetched as ring spans:
    /// one 64-byte fetch, link charge and clock step per chunk. Kept as the
    /// reference the span gather must equal.
    fn gather_inline_per_slot(
        ctrl: &mut Controller,
        p: &mut Platform,
        qi: usize,
        len: usize,
    ) -> Vec<u8> {
        let n = inline::chunks_for_len(len);
        let mut payload = ctrl.take_scratch_payload(len);
        let per_chunk = ctrl.timing.per_chunk_fetch + ctrl.timing.chunk_land;
        for _ in 0..n {
            let img = fetch_entry(p, &mut ctrl.queues[qi], Some(per_chunk));
            let take = (len - payload.len()).min(img.len());
            payload.extend_from_slice(&img[..take]);
            ctrl.stats.chunks_fetched += 1;
        }
        ctrl.stats.inline_payload_bytes += payload.len() as u64;
        payload
    }

    /// Depths for the span property: the smallest ring, small ones, primes,
    /// and the largest prime the default controller admits.
    const SPAN_DEPTHS: [u16; 8] = [2, 3, 4, 7, 13, 64, 127, 1021];

    proptest! {
        /// Gathering a queue-local train as ring spans with one link charge
        /// equals the per-slot fetch loop: same payload, fetch head, stats,
        /// per-class link counters, clock and traced events (each slot's
        /// TLP pair at its own instant) — at any depth, any starting offset
        /// (wrapping ones included), and any length from one byte to three
        /// laps of the ring, which only a hostile command asks for.
        #[test]
        fn span_gather_equals_per_slot(
            depth_i in 0usize..SPAN_DEPTHS.len(),
            offset_seed in any::<u16>(),
            len_seed in any::<u32>(),
            fill in any::<u64>(),
        ) {
            let depth = SPAN_DEPTHS[depth_i];
            let offset = offset_seed % depth;
            let len = 1 + len_seed as usize % (3 * usize::from(depth) * SQE_BYTES);
            let ring: Vec<u8> = (0..usize::from(depth) * SQE_BYTES)
                .map(|i| (fill >> (i % 57)) as u8 ^ i as u8)
                .collect();
            let mut sides = Vec::new();
            for per_slot in [false, true] {
                let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 32 << 20, 8);
                let trace = bus.enable_trace();
                let cfg = ControllerConfig {
                    nand: NandConfig::disabled(),
                    ..ControllerConfig::default()
                };
                let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
                    Box::new(BlockFirmware::new(dram, false))
                });
                let drv = MiniDriver::new(&bus, &mut ctrl, depth);
                ctrl.queues[0].fetch_head = offset;
                let platform = bus.platform();
                let p = &mut *platform.borrow_mut();
                p.mem.write(drv.sq_base, &ring).unwrap();
                let payload = if per_slot {
                    gather_inline_per_slot(&mut ctrl, p, 0, len)
                } else {
                    ctrl.gather_inline(p, 0, len)
                };
                sides.push((
                    payload,
                    ctrl.queues[0].fetch_head,
                    ctrl.stats,
                    p.link.counters().clone(),
                    bus.clock.now(),
                    trace.events(),
                ));
            }
            prop_assert_eq!(&sides[0], &sides[1]);
        }
    }
}
