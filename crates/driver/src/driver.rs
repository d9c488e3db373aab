//! The driver proper: queue pairs, submit engines, completion polling.

use crate::batch::{BatchSubmission, FlushPolicy};
use crate::inflight::InflightTable;
use crate::method::TransferMethod;
use crate::recovery::{CmdContext, RecoveryStats, RetryPolicy};
use crate::timing::DriverTiming;
use bx_hostsim::{HostMemory, MemError, Nanos, PageRef, PhysAddr, PAGE_SIZE};
use bx_nvme::passthru::DataDirection;
use bx_nvme::prp::{self, pages_spanned, PrpError};
use bx_nvme::sqe::DataPointerKind;
use bx_nvme::{
    admin, bandslim, inline, queue, sgl, CompletionEntry, CqRing, IdentifyController, PassthruCmd,
    QueueId, SqRing, Status, SubmissionEntry, CQE_BYTES, SQE_BYTES,
};
use bx_pcie::TrafficClass;
use bx_ssd::registers::{Register, RegisterFile, CC_ENABLE};
use bx_ssd::{Controller, Platform, SystemBus};
use bx_trace::{CmdKey, EventKind};
use std::fmt;

/// Errors from driver operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The submission queue lacks room for the command (+ chunks/fragments).
    QueueFull {
        /// Slots needed.
        needed: u16,
        /// Slots free.
        free: u16,
    },
    /// Payload exceeds what the method can carry on this queue.
    PayloadTooLarge {
        /// Payload length.
        len: usize,
        /// Maximum supported.
        max: usize,
    },
    /// A to-device command with an empty payload.
    EmptyPayload,
    /// Unknown queue id.
    UnknownQueue(QueueId),
    /// Host memory exhaustion or bad access.
    Mem(MemError),
    /// PRP construction failure.
    Prp(PrpError),
    /// The controller failed to become ready during bring-up, or was asked
    /// for a queue before [`NvmeDriver::initialize`].
    NotReady,
    /// An admin command completed with an error status.
    AdminFailed(Status),
    /// The controller does not advertise the capability this submission
    /// needs (per its Identify data).
    Unsupported(&'static str),
    /// A command will never complete: it was reaped past its
    /// [`RetryPolicy`] deadline on a dark device, or, without a policy, no
    /// poll could make progress on it any more.
    Timeout {
        /// Which command (queue, cid, opcode).
        ctx: CmdContext,
        /// Virtual time spent from submission to giving up.
        waited: Nanos,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::QueueFull { needed, free } => {
                write!(f, "submission queue full: need {needed} slots, {free} free")
            }
            DriverError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds method limit {max}")
            }
            DriverError::EmptyPayload => write!(f, "to-device command with empty payload"),
            DriverError::UnknownQueue(q) => write!(f, "unknown queue {q}"),
            DriverError::Mem(e) => write!(f, "host memory error: {e}"),
            DriverError::Prp(e) => write!(f, "prp error: {e}"),
            DriverError::NotReady => write!(f, "controller is not ready (not brought up)"),
            DriverError::AdminFailed(s) => write!(f, "admin command failed: {s}"),
            DriverError::Unsupported(what) => {
                write!(f, "controller does not support {what}")
            }
            DriverError::Timeout { ctx, waited } => {
                write!(f, "command timed out ({ctx}), {waited} waited")
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<MemError> for DriverError {
    fn from(e: MemError) -> Self {
        DriverError::Mem(e)
    }
}

impl From<PrpError> for DriverError {
    fn from(e: PrpError) -> Self {
        DriverError::Prp(e)
    }
}

/// Counters describing driver activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct DriverStats {
    /// Logical commands submitted.
    pub submissions: u64,
    /// Doorbell register writes.
    pub doorbells: u64,
    /// ByteExpress chunks appended to SQs.
    pub chunks_written: u64,
    /// BandSlim fragment commands issued.
    pub frags_issued: u64,
    /// Data pages mapped for PRP/SGL transfers.
    pub pages_mapped: u64,
    /// SGL requests that fell back to PRP below the threshold (§5).
    pub sgl_fallbacks: u64,
    /// Coalesced SQ doorbell flushes (each rings one tail doorbell for a
    /// whole group of staged commands).
    pub batch_flushes: u64,
    /// Commands whose doorbell rode a coalesced flush instead of ringing
    /// individually.
    pub batched_cmds: u64,
}

/// Handle returned by [`NvmeDriver::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmittedCmd {
    /// The queue the command went to.
    pub queue: QueueId,
    /// Command identifier, matched against completions.
    pub cid: u16,
    /// Virtual time at submission start.
    pub submitted_at: Nanos,
}

/// A consumed completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Command identifier.
    pub cid: u16,
    /// Completion status.
    pub status: Status,
    /// CQE DW0 (command-specific result).
    pub result: u32,
    /// Response payload of a successful from-device command: the first
    /// `min(DW0, response_len)` bytes of its buffer. A from-device command
    /// reports in DW0 how many bytes it returned, as the KV command set's
    /// Retrieve does.
    pub data: Option<Vec<u8>>,
    /// Virtual time at submission start.
    pub submitted_at: Nanos,
    /// Virtual time when the driver consumed the CQE.
    pub completed_at: Nanos,
}

impl Completion {
    /// End-to-end latency: submit start → completion consumed.
    pub fn latency(&self) -> Nanos {
        self.completed_at - self.submitted_at
    }
}

#[derive(Debug)]
struct Inflight {
    opcode: u8,
    submitted_at: Nanos,
    /// Completion deadline in virtual time; set only when a [`RetryPolicy`]
    /// is installed. Past it, and only while the device is dark,
    /// `poll_completions_into` reaps the entry as a synthetic
    /// `CommandAborted` completion.
    deadline: Option<Nanos>,
    /// Every host page mapped for the command: the pages of its payload or
    /// response buffer in transfer order, then any PRP/SGL list pages. The
    /// list is one of the driver's recycled `spare_page_lists`.
    pages: Vec<PageRef>,
    /// Bytes of response buffer at the front of `pages` (0: a command that
    /// returns no data).
    response_len: usize,
}

impl Inflight {
    /// Hands every host page mapped for the command back to the allocator;
    /// returns the emptied list for reuse.
    fn free_pages(mut self, mem: &mut HostMemory) -> Result<Vec<PageRef>, MemError> {
        for p in self.pages.drain(..) {
            mem.free_page(p)?;
        }
        Ok(self.pages)
    }
}

struct QueuePair {
    sq: SqRing,
    cq: CqRing,
    next_cid: u16,
    inflight: InflightTable<Inflight>,
    /// Tail of entries staged in the ring but not yet doorbelled — the
    /// deferral state behind doorbell coalescing. `None` means the device's
    /// tail view is current.
    pending_tail: Option<u16>,
    /// Commands staged since the last doorbell.
    pending_cmds: u16,
    /// When the oldest staged command was placed (for the flush policy's
    /// max-delay bound).
    first_pending_at: Nanos,
}

impl QueuePair {
    /// Returns the ring pages, and the mapped pages of every command still
    /// in flight, to the allocator: the pair is gone from the device.
    fn release(self, mem: &mut HostMemory) -> Result<(), MemError> {
        for inflight in self.inflight.into_values() {
            inflight.free_pages(mem)?;
        }
        mem.free_contiguous(self.sq.region())?;
        mem.free_contiguous(self.cq.region())
    }
}

/// The driver's admin queue pair.
struct AdminQueue {
    sq: SqRing,
    cq: CqRing,
    next_cid: u16,
}

/// The host NVMe driver.
pub struct NvmeDriver {
    bus: SystemBus,
    timing: DriverTiming,
    /// I/O queue pairs by qid. Qids are the lowest free ones, so the table
    /// is dense; slot 0, the admin queue's id, stays `None`.
    queues: Vec<Option<QueuePair>>,
    admin: Option<AdminQueue>,
    identify: Option<IdentifyController>,
    sgl_threshold: usize,
    next_payload_id: u32,
    stats: DriverStats,
    retry_policy: Option<RetryPolicy>,
    recovery: RecoveryStats,
    /// When set, SQ tail doorbells are deferred and coalesced per its
    /// bounds; when `None` every submission rings immediately.
    flush_policy: Option<FlushPolicy>,
    /// CQ head doorbell cadence: ring after every N consumed CQEs.
    /// 0 means once per poll sweep (the maximally coalesced default);
    /// 1 reproduces a naive per-CQE driver.
    cq_coalesce: u16,
    /// Emptied page lists of completed commands, handed to the next ones.
    spare_page_lists: Vec<Vec<PageRef>>,
    /// Addresses of the data pages of the command being mapped, for
    /// [`prp::describe`]. Refilled per command.
    page_addrs: Vec<PhysAddr>,
    /// [`NvmeDriver::execute`]'s poll buffer.
    polled: Vec<Completion>,
}

impl fmt::Debug for NvmeDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NvmeDriver")
            .field("queues", &self.queues.iter().flatten().count())
            .field("sgl_threshold", &self.sgl_threshold)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The Linux default SGL threshold: PRP is used below 32 KB (§5).
pub(crate) const DEFAULT_SGL_THRESHOLD: usize = 32 * 1024;

impl NvmeDriver {
    /// Creates a driver on `bus` with default timing.
    pub fn new(bus: SystemBus) -> Self {
        NvmeDriver {
            bus,
            timing: DriverTiming::default(),
            queues: Vec::new(),
            admin: None,
            identify: None,
            sgl_threshold: DEFAULT_SGL_THRESHOLD,
            next_payload_id: 1,
            stats: DriverStats::default(),
            retry_policy: None,
            recovery: RecoveryStats::default(),
            flush_policy: None,
            cq_coalesce: 0,
            spare_page_lists: Vec::new(),
            page_addrs: Vec::new(),
            polled: Vec::new(),
        }
    }

    /// Installs (or with `None`, removes) the doorbell-coalescing flush
    /// policy. See [`FlushPolicy`]; without one every submission rings
    /// the SQ tail doorbell immediately, as a conventional driver does.
    pub fn set_flush_policy(&mut self, policy: Option<FlushPolicy>) {
        self.flush_policy = policy;
    }

    /// Sets the CQ head doorbell cadence: ring after every `n` consumed
    /// CQEs. `0` (the default) rings once per poll sweep; `1` models a
    /// naive per-CQE driver.
    pub fn set_cq_coalesce(&mut self, n: u16) {
        self.cq_coalesce = n;
    }

    /// Installs (or with `None`, removes) the timeout policy: a completion
    /// deadline per command, past which a command in flight on a dark
    /// device is reaped. With no policy nothing is ever reaped, and a wait
    /// that can make no progress ends as [`DriverError::Timeout`] at once.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry_policy = policy;
    }

    /// Recovery counters (timeouts).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Number of commands currently tracked in flight on `qid` (submitted
    /// but not yet consumed by a poll). The reactor uses this to tell a
    /// quiescent queue from one still waiting on the device.
    pub fn inflight_len(&self, qid: QueueId) -> usize {
        self.queue(qid).map_or(0, |qp| qp.inflight.len())
    }

    /// Whether some command in flight on `qid` has a completion deadline,
    /// i.e. the timeout reaper will take it if nothing else does.
    pub(crate) fn has_deadline(&self, qid: QueueId) -> bool {
        self.queue(qid)
            .is_some_and(|qp| qp.inflight.iter().any(|(_, cmd)| cmd.deadline.is_some()))
    }

    /// Sets the SGL threshold (the kernel's `sgl_threshold` module param).
    pub fn set_sgl_threshold(&mut self, bytes: usize) {
        self.sgl_threshold = bytes;
    }

    /// Activity counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Brings the controller up the way the kernel does — the only way a
    /// queue comes to exist: program the admin queue registers
    /// (ASQ/ACQ/AQA), set CC.EN, confirm CSTS.RDY, Identify the controller,
    /// then create one I/O queue pair per entry of `io_depths` with admin
    /// Create-IO-CQ/SQ commands. Returns their ids in order. The identify
    /// data ([`NvmeDriver::identify`]) gates the transfer engines and sets
    /// the ByteExpress chunk framing: chunks carry reassembly headers iff
    /// the controller advertises `vendor.reassembly`.
    ///
    /// # Errors
    ///
    /// [`DriverError::Unsupported`] on a driver that already has an admin
    /// queue (after a power cut, [`NvmeDriver::reset_after_power_cycle`]
    /// comes first) — refused before anything is allocated or written.
    /// [`DriverError::NotReady`] if the controller does not come up;
    /// [`DriverError::AdminFailed`] if Identify or a queue creation fails;
    /// [`DriverError::Mem`] if host memory cannot hold the rings. After any
    /// of these the controller has been disabled again and every page
    /// returned, as after a failed probe: the driver is as new.
    pub fn initialize(
        &mut self,
        ctrl: &mut Controller,
        io_depths: &[u16],
    ) -> Result<Vec<QueueId>, DriverError> {
        if self.admin.is_some() {
            return Err(DriverError::Unsupported("initialize on a live driver"));
        }
        let qids = self.bring_up(ctrl, io_depths);
        if qids.is_err() {
            // CC.EN = 0 drops every queue the controller latched, so the
            // next attempt's enable edge latches the admin queue afresh.
            ctrl.mmio_write(Register::Cc, 0);
            self.reset_after_power_cycle()?;
        }
        qids
    }

    /// [`NvmeDriver::initialize`] without its error path: whatever this
    /// allocates is reachable from `self` (or freed) by the time it returns.
    fn bring_up(
        &mut self,
        ctrl: &mut Controller,
        io_depths: &[u16],
    ) -> Result<Vec<QueueId>, DriverError> {
        const ADMIN_DEPTH: u16 = 32;
        let platform = self.bus.platform();
        let (sq_region, cq_region) = alloc_rings(&mut platform.borrow_mut().mem, ADMIN_DEPTH)?;
        self.admin = Some(AdminQueue {
            sq: SqRing::new(QueueId(0), sq_region, ADMIN_DEPTH),
            cq: CqRing::new(cq_region, ADMIN_DEPTH),
            next_cid: 0,
        });
        ctrl.mmio_write(
            Register::Aqa,
            RegisterFile::aqa_value(ADMIN_DEPTH, ADMIN_DEPTH),
        );
        ctrl.mmio_write(Register::Asq, sq_region.base().0);
        ctrl.mmio_write(Register::Acq, cq_region.base().0);
        ctrl.mmio_write(Register::Cc, CC_ENABLE);
        if ctrl.mmio_read(Register::Csts) & bx_ssd::CSTS_READY == 0 {
            return Err(DriverError::NotReady);
        }

        // Identify controller. The page goes back before the outcome is
        // looked at, so no branch below can leak it.
        let buf = platform.borrow_mut().mem.alloc_page()?;
        let cid = self.admin_cid()?;
        let cqe = self.admin_execute(ctrl, admin::identify_controller(cid, buf.addr()));
        let page = {
            let mem = &mut platform.borrow_mut().mem;
            let page = mem.read_vec(buf.addr(), bx_nvme::IDENTIFY_BYTES);
            mem.free_page(buf)?;
            page?
        };
        let status = cqe?.status();
        if !status.is_success() {
            return Err(DriverError::AdminFailed(status));
        }
        self.identify = Some(
            IdentifyController::decode(&page)
                .ok_or(DriverError::AdminFailed(Status::InternalError))?,
        );
        io_depths
            .iter()
            .map(|&depth| self.create_io_queue(ctrl, depth))
            .collect()
    }

    /// The identify data captured during [`NvmeDriver::initialize`].
    pub fn identify(&self) -> Option<&IdentifyController> {
        self.identify.as_ref()
    }

    /// Drops every handle into the (now vanished) controller state after a
    /// power cut: queue pairs, the admin queue, cached identify data — and
    /// returns their ring pages, and the pages of commands in flight at the
    /// cut, to host memory. Host policy knobs — timeout, flush, CQ
    /// coalescing, SGL threshold — and cumulative stats survive; they live
    /// in host memory. The chunk framing does not: it is read from Identify.
    /// Call [`NvmeDriver::initialize`] afterwards, exactly as the kernel
    /// re-probes a device that dropped off the bus.
    ///
    /// # Errors
    ///
    /// [`DriverError::Mem`] if a page turns out not to be allocated.
    pub fn reset_after_power_cycle(&mut self) -> Result<(), DriverError> {
        let platform = self.bus.platform();
        let mem = &mut platform.borrow_mut().mem;
        for qp in std::mem::take(&mut self.queues).into_iter().flatten() {
            qp.release(mem)?;
        }
        if let Some(admin) = self.admin.take() {
            mem.free_contiguous(admin.sq.region())?;
            mem.free_contiguous(admin.cq.region())?;
        }
        self.identify = None;
        Ok(())
    }

    fn admin_cid(&mut self) -> Result<u16, DriverError> {
        let a = self.admin.as_mut().ok_or(DriverError::NotReady)?;
        let cid = a.next_cid;
        a.next_cid = a.next_cid.wrapping_add(1);
        Ok(cid)
    }

    /// Synchronously executes one admin command. Borrows the platform on
    /// either side of the controller call it brackets, never across it.
    fn admin_execute(
        &mut self,
        ctrl: &mut Controller,
        sqe: SubmissionEntry,
    ) -> Result<CompletionEntry, DriverError> {
        let (bus, timing) = (&self.bus, &self.timing);
        let platform = bus.platform();
        let a = self.admin.as_mut().ok_or(DriverError::NotReady)?;
        {
            let p = &mut *platform.borrow_mut();
            let slot = a.sq.push_slot();
            p.mem.write(a.sq.slot_addr(slot), sqe.as_bytes())?;
            bus.clock.advance(timing.sqe_insert);
            p.ring_sq_tail(QueueId(0), a.sq.tail());
            self.stats.doorbells += 1;
        }

        ctrl.process_available();

        let p = &mut *platform.borrow_mut();
        let slot = a.cq.head();
        let mut img = [0u8; CQE_BYTES];
        p.mem.read(a.cq.slot_addr(slot), &mut img)?;
        let cqe = CompletionEntry::from_bytes(&img);
        if cqe.phase() != a.cq.expected_phase() {
            return Err(DriverError::AdminFailed(Status::InternalError));
        }
        a.cq.pop_slot();
        a.sq.complete_up_to(cqe.sq_head());
        bus.clock.advance(timing.completion_handling);
        p.ring_cq_head();
        self.stats.doorbells += 1;
        Ok(cqe)
    }

    /// Allocates queue rings in host memory and creates the pair on the
    /// controller with admin Create-IO-CQ then Create-IO-SQ commands, under
    /// the lowest free I/O queue id (a deleted pair's id is reused: the
    /// doorbell array has no slot past the initial count). A queue exists
    /// only if the controller validated it.
    ///
    /// # Errors
    ///
    /// [`DriverError::NotReady`] before [`NvmeDriver::initialize`], with
    /// nothing allocated; [`DriverError::Mem`] if host memory cannot hold
    /// the rings; [`DriverError::AdminFailed`] if the controller rejects
    /// creation.
    pub fn create_io_queue(
        &mut self,
        ctrl: &mut Controller,
        depth: u16,
    ) -> Result<QueueId, DriverError> {
        if self.admin.is_none() {
            return Err(DriverError::NotReady);
        }
        let platform = self.bus.platform();
        let (sq_region, cq_region) = alloc_rings(&mut platform.borrow_mut().mem, depth)?;
        let id = match self.create_on_controller(ctrl, depth, sq_region, cq_region) {
            Ok(id) => id,
            Err(e) => {
                let mem = &mut platform.borrow_mut().mem;
                mem.free_contiguous(sq_region)?;
                mem.free_contiguous(cq_region)?;
                return Err(e);
            }
        };
        let slot = id.0 as usize;
        if self.queues.len() <= slot {
            self.queues.resize_with(slot + 1, || None);
        }
        self.queues[slot] = Some(QueuePair {
            sq: SqRing::new(id, sq_region, depth),
            cq: CqRing::new(cq_region, depth),
            next_cid: 0,
            inflight: InflightTable::default(),
            pending_tail: None,
            pending_cmds: 0,
            first_pending_at: Nanos::ZERO,
        });
        Ok(id)
    }

    /// The two admin commands of [`NvmeDriver::create_io_queue`], over its
    /// allocated rings.
    fn create_on_controller(
        &mut self,
        ctrl: &mut Controller,
        depth: u16,
        sq_region: bx_hostsim::DmaRegion,
        cq_region: bx_hostsim::DmaRegion,
    ) -> Result<QueueId, DriverError> {
        let qid = (1..=u16::MAX)
            .find(|&q| self.queue(QueueId(q)).is_none())
            .ok_or(DriverError::Unsupported("more than 65535 I/O queues"))?;
        let cid = self.admin_cid()?;
        let cqe =
            self.admin_execute(ctrl, admin::create_io_cq(cid, qid, depth, cq_region.base()))?;
        if !cqe.status().is_success() {
            return Err(DriverError::AdminFailed(cqe.status()));
        }
        let cid = self.admin_cid()?;
        let cqe = self.admin_execute(
            ctrl,
            admin::create_io_sq(cid, qid, depth, sq_region.base(), qid),
        )?;
        if !cqe.status().is_success() {
            // The CQ just created has no SQ and never will: delete it, or
            // the controller keeps the id bound and refuses the next pair.
            let cid = self.admin_cid()?;
            self.admin_execute(ctrl, admin::delete_io_cq(cid, qid))?;
            return Err(DriverError::AdminFailed(cqe.status()));
        }
        Ok(QueueId(qid))
    }

    /// Deletes an I/O queue pair via admin commands (SQ first, then CQ, per
    /// spec ordering) and releases the driver-side state, ring pages and
    /// the pages of commands still in flight included.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownQueue`] for a bad id; [`DriverError::AdminFailed`]
    /// if the controller rejects deletion.
    pub fn delete_io_queue(
        &mut self,
        ctrl: &mut Controller,
        qid: QueueId,
    ) -> Result<(), DriverError> {
        if self.queue(qid).is_none() {
            return Err(DriverError::UnknownQueue(qid));
        }
        let cid = self.admin_cid()?;
        let cqe = self.admin_execute(ctrl, admin::delete_io_sq(cid, qid.0))?;
        if !cqe.status().is_success() {
            return Err(DriverError::AdminFailed(cqe.status()));
        }
        let cid = self.admin_cid()?;
        let cqe = self.admin_execute(ctrl, admin::delete_io_cq(cid, qid.0))?;
        if !cqe.status().is_success() {
            return Err(DriverError::AdminFailed(cqe.status()));
        }
        if let Some(qp) = self.queues.get_mut(qid.0 as usize).and_then(Option::take) {
            qp.release(&mut self.bus.platform().borrow_mut().mem)?;
        }
        Ok(())
    }

    fn queue(&self, qid: QueueId) -> Option<&QueuePair> {
        self.queues.get(qid.0 as usize)?.as_ref()
    }

    fn queue_mut(&mut self, qid: QueueId) -> Result<&mut QueuePair, DriverError> {
        queue_in(&mut self.queues, qid)
    }

    /// Submits a passthrough command using `method` for its data phase.
    ///
    /// # Errors
    ///
    /// See [`DriverError`]. On error nothing was placed in the queue and
    /// every host page mapped for the command has been freed.
    pub fn submit(
        &mut self,
        qid: QueueId,
        cmd: &PassthruCmd,
        method: TransferMethod,
    ) -> Result<SubmittedCmd, DriverError> {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        let submitted_at = self.bus.clock.now();
        // Build the base SQE from the passthrough command.
        let qp = self.queue_mut(qid)?;
        let cid = qp.alloc_cid();
        let mut sqe = SubmissionEntry::zeroed();
        sqe.set_opcode_raw(cmd.opcode);
        sqe.set_cid(cid);
        sqe.set_nsid(cmd.nsid);
        for (i, v) in cmd.cdw10_15.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }

        let mut inflight = Inflight {
            opcode: cmd.opcode,
            submitted_at,
            deadline: self
                .retry_policy
                .map(|p| submitted_at.checked_add(p.timeout).unwrap_or(submitted_at)),
            pages: self.spare_page_lists.pop().unwrap_or_default(),
            response_len: 0,
        };
        if let Err(e) = self.place(p, qid, sqe, cmd, method, &mut inflight) {
            // Pages are mapped before the ring-space check; a rejected
            // command must hand them back or every rejection leaks them.
            let pages = inflight.free_pages(&mut p.mem)?;
            self.spare_page_lists.push(pages);
            return Err(e);
        }

        self.stats.submissions += 1;
        let qp = queue_in(&mut self.queues, qid)?;
        qp.inflight.insert(cid, inflight);
        Ok(SubmittedCmd {
            queue: qid,
            cid,
            submitted_at,
        })
    }

    /// Maps the command's data phase per `method` and places it in the
    /// ring (or the BAR window). Pages it maps are recorded in `inflight`
    /// as they are allocated, so the caller can free them on error.
    fn place(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        cmd: &PassthruCmd,
        method: TransferMethod,
        inflight: &mut Inflight,
    ) -> Result<(), DriverError> {
        let cid = sqe.cid();
        match cmd.direction {
            DataDirection::ToDevice => {
                if cmd.data.is_empty() {
                    return Err(DriverError::EmptyPayload);
                }
                // The SQE's length field is 24 bits wide, whatever the method.
                if cmd.data.len() > inline::MAX_INLINE_LEN {
                    return Err(DriverError::PayloadTooLarge {
                        len: cmd.data.len(),
                        max: inline::MAX_INLINE_LEN,
                    });
                }
                sqe.set_data_len(cmd.data.len() as u32);
                let resolved = match method.resolve(cmd.data.len()) {
                    // The kernel's default behaviour: SGL only above the
                    // threshold; PRP otherwise (§5). The trace records what
                    // actually went on the wire.
                    TransferMethod::Sgl if cmd.data.len() < self.sgl_threshold => {
                        self.stats.sgl_fallbacks += 1;
                        TransferMethod::Prp
                    }
                    resolved => resolved,
                };
                self.trace_sqe_insert(qid.0, cid, resolved, cmd);
                match resolved {
                    TransferMethod::Prp => self.submit_prp(p, qid, sqe, &cmd.data, inflight),
                    TransferMethod::Sgl => self.submit_sgl(p, qid, sqe, &cmd.data, inflight),
                    TransferMethod::ByteExpress => self.submit_byteexpress(p, qid, sqe, &cmd.data),
                    TransferMethod::BandSlim { embed_first } => {
                        self.submit_bandslim(p, qid, sqe, &cmd.data, embed_first)
                    }
                    // No SQ slot on the byte-interface path, but the command
                    // is still owned by this queue pair: spans carry the real
                    // qid, and the BAR-window submission is stamped with it
                    // so the device can echo it on the status word
                    // (completion routing).
                    TransferMethod::MmioByte => self.submit_mmio_byte(p, qid, sqe, &cmd.data),
                    #[expect(
                        clippy::unreachable,
                        reason = "resolve() above maps Hybrid to a concrete method; this arm is a driver bug, not a reachable state"
                    )]
                    TransferMethod::Hybrid { .. } => unreachable!("resolved above"),
                }
            }
            DataDirection::FromDevice => {
                // Reads return over a PRP-described host buffer no matter
                // which submit method the caller named (ByteExpress targets
                // host→device small payloads). The SQE's length field is 24
                // bits wide: refuse before a page is mapped.
                if cmd.response_len > inline::MAX_INLINE_LEN {
                    return Err(DriverError::PayloadTooLarge {
                        len: cmd.response_len,
                        max: inline::MAX_INLINE_LEN,
                    });
                }
                self.alloc_response_buf(&mut p.mem, cmd.response_len, &mut sqe, inflight)?;
                sqe.set_data_len(cmd.response_len as u32);
                self.bus
                    .trace
                    .emit_cmd(CmdKey::new(qid.0, cid), || EventKind::SqeInsert {
                        method: "prp",
                        opcode: cmd.opcode,
                        len: cmd.response_len,
                    });
                self.insert_and_ring(p, qid, sqe, self.timing.sqe_insert)
            }
            DataDirection::None => {
                self.bus
                    .trace
                    .emit_cmd(CmdKey::new(qid.0, cid), || EventKind::SqeInsert {
                        method: "none",
                        opcode: cmd.opcode,
                        len: 0,
                    });
                self.insert_and_ring(p, qid, sqe, self.timing.sqe_insert)
            }
        }
    }

    /// Flight-recorder hook: the span-opening event for one submission.
    /// Free when tracing is off (the closure never runs).
    fn trace_sqe_insert(&self, qid_raw: u16, cid: u16, method: TransferMethod, cmd: &PassthruCmd) {
        self.bus
            .trace
            .emit_cmd(CmdKey::new(qid_raw, cid), || EventKind::SqeInsert {
                method: method.label(),
                opcode: cmd.opcode,
                len: cmd.data.len(),
            });
    }

    /// PRP path: allocate pages, copy the payload in (`copy_from_user` +
    /// DMA map), point PRP1/PRP2 (+ list) at them.
    fn submit_prp(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        data: &[u8],
        inflight: &mut Inflight,
    ) -> Result<(), DriverError> {
        self.map_payload_pages(&mut p.mem, data, inflight)?;
        let (prp1, prp2) = prp::describe(
            &mut p.mem,
            &self.page_addrs,
            0,
            data.len(),
            &mut inflight.pages,
        )?;
        sqe.set_prp1(prp1);
        sqe.set_prp2(prp2);
        let pages = self.page_addrs.len() as u64;
        self.bus
            .clock
            .advance(self.timing.prp_setup + self.timing.prp_per_page * pages);
        self.insert_and_ring(p, qid, sqe, self.timing.sqe_insert)
    }

    /// SGL path: a data-block descriptor per page, chained through a
    /// last-segment array when more than one.
    fn submit_sgl(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        data: &[u8],
        inflight: &mut Inflight,
    ) -> Result<(), DriverError> {
        self.map_payload_pages(&mut p.mem, data, inflight)?;
        let pages = &self.page_addrs;
        sqe.set_data_pointer_kind(DataPointerKind::Sgl);
        if let [page] = pages[..] {
            let desc = sgl::SglDescriptor::data_block(page, data.len() as u32);
            sqe.set_sgl_bytes(&desc.to_bytes());
        } else {
            // Descriptor array in its own page; the command carries a
            // last-segment pointer to it.
            let seg_page = p.mem.alloc_page()?;
            inflight.pages.push(seg_page);
            let mut remaining = data.len();
            for (i, page) in pages.iter().enumerate() {
                let chunk = remaining.min(PAGE_SIZE);
                let desc = sgl::SglDescriptor::data_block(*page, chunk as u32);
                p.mem
                    .write(seg_page.addr().offset((i * 16) as u64), &desc.to_bytes())?;
                remaining -= chunk;
            }
            let first =
                sgl::SglDescriptor::last_segment(seg_page.addr(), (pages.len() * 16) as u32);
            sqe.set_sgl_bytes(&first.to_bytes());
        }
        let pages = pages.len() as u64;
        self.bus
            .clock
            .advance(self.timing.sgl_setup + self.timing.prp_per_page * pages);
        self.insert_and_ring(p, qid, sqe, self.timing.sqe_insert)
    }

    /// ByteExpress path (§3.3): under the SQ lock, write the command with the
    /// length stamped into the reserved field, append the payload as 64-byte
    /// chunks in the following slots, and ring the doorbell once.
    fn submit_byteexpress(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        data: &[u8],
    ) -> Result<(), DriverError> {
        // A queue exists only on an initialized driver, so Identify is at
        // hand; its reassembly bit is the chunk framing (headers or raw).
        let caps = self.identify.as_ref().ok_or(DriverError::NotReady)?.vendor;
        if !caps.byteexpress {
            return Err(DriverError::Unsupported("ByteExpress inline transfer"));
        }
        let (payload_id, n_chunks, per_chunk) = if caps.reassembly {
            let id = self.next_payload_id;
            self.next_payload_id = self.next_payload_id.wrapping_add(1).max(1);
            sqe.set_cdw3(id);
            (
                Some(id),
                inline::chunks_for_len_reassembly(data.len()),
                inline::REASSEMBLY_CHUNK_PAYLOAD,
            )
        } else {
            (
                None,
                inline::chunks_for_len(data.len()),
                inline::BYTEEXPRESS_CHUNK_SIZE,
            )
        };
        inline::set_inline_len(&mut sqe, data.len());

        let (bus, timing) = (&self.bus, &self.timing);
        let qp = queue_in(&mut self.queues, qid)?;
        let depth = qp.sq.depth();
        // Sized in `usize`: a train of 65 536 chunks or more must be refused
        // here, not wrap to a small slot count.
        let depth_limit = usize::from(depth - 1);
        if 1 + n_chunks > depth_limit {
            return Err(DriverError::PayloadTooLarge {
                len: data.len(),
                max: (depth_limit - 1) * per_chunk,
            });
        }
        // It fits: the train is shorter than the ring.
        let (needed, written) = ((1 + n_chunks) as u16, n_chunks as u16);
        if !qp.sq.can_push(needed) {
            return Err(DriverError::QueueFull {
                needed,
                free: qp.sq.free_slots(),
            });
        }

        // The critical section the paper leans on (§3.3.2): command and
        // chunks are placed contiguously under the per-SQ lock the kernel
        // driver already holds. Here `&mut self` is that lock, so the borrow
        // checker holds the ordering property; its cost is `bx_cmd_insert`.
        let slot = qp.sq.push_slots(needed);
        p.mem.write(qp.sq.slot_addr(slot), sqe.as_bytes())?;
        bus.clock.advance(timing.bx_cmd_insert);
        let first = queue::wrap_add(slot, 1, depth);
        match payload_id {
            // Queue-local chunks are the payload's own bytes, slot after
            // slot: the train is the payload copied into at most two ring
            // spans, the last slot zero-padded.
            None => {
                let mut off = 0;
                for (slot, run) in queue::slot_spans(first, n_chunks, depth) {
                    let addr = qp.sq.slot_addr(slot);
                    let end = (off + run * SQE_BYTES).min(data.len());
                    p.mem.write(addr, &data[off..end])?;
                    let pad = off + run * SQE_BYTES - end;
                    if pad > 0 {
                        p.mem.fill(addr.offset((end - off) as u64), pad, 0)?;
                    }
                    off += run * SQE_BYTES;
                }
            }
            // Reassembly chunks each carry a header, encoded one at a time
            // into a stack buffer, so submission is allocation-free.
            Some(id) => {
                let mut chunk = [0u8; inline::BYTEEXPRESS_CHUNK_SIZE];
                let mut slot = first;
                for i in 0..n_chunks {
                    inline::encode_reassembly_chunk_into(id, data, i, &mut chunk);
                    p.mem.write(qp.sq.slot_addr(slot), &chunk)?;
                    slot = queue::wrap_add(slot, 1, depth);
                }
            }
        }
        bus.clock
            .advance(timing.per_chunk_insert * u64::from(written));
        let tail = qp.sq.tail();
        self.stats.chunks_written += u64::from(written);
        bus.trace.emit_cmd(CmdKey::new(qid.0, sqe.cid()), || {
            EventKind::ChunkTrainWrite {
                chunks: written,
                bytes: data.len(),
            }
        });
        self.note_sq_tail(p, qid, tail)
    }

    /// BandSlim path (§3.2): payload embedded in the head command plus a
    /// serialized train of fragment commands, each with its own doorbell.
    fn submit_bandslim(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        data: &[u8],
        embed_first: bool,
    ) -> Result<(), DriverError> {
        let embed_cap = if embed_first {
            bandslim::HEAD_CAPACITY
        } else {
            0
        };
        let total_cmds = bandslim::commands_for_len(data.len(), embed_cap);
        {
            let qp = self.queue_mut(qid)?;
            // Sized in `usize`, like the ByteExpress train: nothing is placed
            // unless the whole train fits the ring.
            let depth_limit = usize::from(qp.sq.depth() - 1);
            if total_cmds > depth_limit {
                return Err(DriverError::PayloadTooLarge {
                    len: data.len(),
                    max: (depth_limit - 1) * bandslim::FRAG_CAPACITY + embed_cap,
                });
            }
            let total_cmds = total_cmds as u16;
            if !qp.sq.can_push(total_cmds) {
                return Err(DriverError::QueueFull {
                    needed: total_cmds,
                    free: qp.sq.free_slots(),
                });
            }
        }
        let embedded = bandslim::encode_head(&mut sqe, data, embed_cap);
        let cid = sqe.cid();
        let nsid = sqe.nsid();
        self.insert_and_ring(p, qid, sqe, self.timing.sqe_insert)?;

        let mut off = embedded;
        let mut frag_no = 0u32;
        while off < data.len() {
            let take = (data.len() - off).min(bandslim::FRAG_CAPACITY);
            let frag = bandslim::encode_frag(cid, nsid, frag_no, &data[off..off + take]);
            self.bus.clock.advance(self.timing.bandslim_frag_build);
            self.insert_and_ring(p, qid, frag, self.timing.sqe_insert)?;
            self.stats.frags_issued += 1;
            off += take;
            frag_no += 1;
        }
        Ok(())
    }

    /// PCIe-MMIO byte-interface path (§3.1, 2B-SSD/ByteFS style): the CPU
    /// writes the 64-byte command image plus the payload directly into a
    /// BAR-mapped device buffer as cacheline stores, then flushes the
    /// write-combining buffer. No SQ slot, no doorbell, no SQE fetch — and
    /// no NVMe completion either (the host polls a status word).
    fn submit_mmio_byte(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        sqe: SubmissionEntry,
        data: &[u8],
    ) -> Result<(), DriverError> {
        let total = SQE_BYTES + data.len();
        // Traffic: one posted MMIO write per 64-byte cacheline.
        let lines = total.div_ceil(64);
        for i in 0..lines {
            let len = (total - i * 64).min(64);
            p.link.host_posted_write(TrafficClass::Mmio, len);
        }
        // Latency: the cachelines stream through the WC buffer — pay the
        // serialization once plus one propagation and the flush, not a
        // round trip per line.
        let link = p.link.config();
        let wire = link.wire_time(total + lines * 24);
        self.bus
            .clock
            .advance(wire + link.propagation + self.timing.wc_flush);
        p.mmio_window.submissions.push_back(bx_ssd::MmioSubmission {
            qid: qid.0,
            sqe,
            payload: data.to_vec(),
        });
        Ok(())
    }

    /// Copies a payload into freshly mapped host pages, recorded in
    /// `inflight` (and their addresses in `page_addrs`) as they are
    /// allocated.
    fn map_payload_pages(
        &mut self,
        mem: &mut HostMemory,
        data: &[u8],
        inflight: &mut Inflight,
    ) -> Result<(), DriverError> {
        self.page_addrs.clear();
        for chunk in data.chunks(PAGE_SIZE) {
            let page = mem.alloc_page()?;
            inflight.pages.push(page);
            self.page_addrs.push(page.addr());
            mem.write(page.addr(), chunk)?;
        }
        self.stats.pages_mapped += self.page_addrs.len() as u64;
        Ok(())
    }

    /// Allocates a PRP-described response buffer, recorded in `inflight`
    /// page by page, and points the SQE at it.
    fn alloc_response_buf(
        &mut self,
        mem: &mut HostMemory,
        len: usize,
        sqe: &mut SubmissionEntry,
        inflight: &mut Inflight,
    ) -> Result<(), DriverError> {
        if len == 0 {
            return Err(DriverError::EmptyPayload);
        }
        inflight.response_len = len;
        self.page_addrs.clear();
        for _ in 0..pages_spanned(0, len) {
            let page = mem.alloc_page()?;
            inflight.pages.push(page);
            self.page_addrs.push(page.addr());
        }
        let (prp1, prp2) = prp::describe(mem, &self.page_addrs, 0, len, &mut inflight.pages)?;
        sqe.set_prp1(prp1);
        sqe.set_prp2(prp2);
        Ok(())
    }

    fn insert_and_ring(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        sqe: SubmissionEntry,
        insert_cost: Nanos,
    ) -> Result<(), DriverError> {
        let qp = queue_in(&mut self.queues, qid)?;
        if !qp.sq.can_push(1) {
            return Err(DriverError::QueueFull { needed: 1, free: 0 });
        }
        let slot = qp.sq.push_slot();
        p.mem.write(qp.sq.slot_addr(slot), sqe.as_bytes())?;
        self.bus.clock.advance(insert_cost);
        let tail = qp.sq.tail();
        self.note_sq_tail(p, qid, tail)
    }

    /// Routes a freshly advanced SQ tail either straight to the doorbell
    /// (no flush policy) or into the queue's deferral state, ringing only
    /// when the policy's max-batch or max-delay bound is hit.
    fn note_sq_tail(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        tail: u16,
    ) -> Result<(), DriverError> {
        let Some(policy) = self.flush_policy else {
            self.ring_sq_doorbell(p, qid, tail);
            return Ok(());
        };
        let now = self.bus.clock.now();
        let qp = self.queue_mut(qid)?;
        if qp.pending_tail.is_none() {
            qp.first_pending_at = now;
        }
        qp.pending_tail = Some(tail);
        qp.pending_cmds += 1;
        if qp.pending_cmds >= policy.max_batch.max(1)
            || now.saturating_sub(qp.first_pending_at) >= policy.max_delay
        {
            self.flush_staged(p, qid)?;
        }
        Ok(())
    }

    /// Rings the SQ tail doorbell for any staged-but-unrung entries on
    /// `qid`: one posted MMIO write covers the whole pending group. Returns
    /// whether a doorbell was rung (false when nothing was pending).
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownQueue`] for a bad queue id.
    pub fn flush_sq(&mut self, qid: QueueId) -> Result<bool, DriverError> {
        // The reactor calls this per shard per turn: look before borrowing.
        if self.queue_mut(qid)?.pending_tail.is_none() {
            return Ok(false);
        }
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        self.flush_staged(p, qid)
    }

    /// [`NvmeDriver::flush_sq`] below the entry point.
    fn flush_staged(&mut self, p: &mut Platform, qid: QueueId) -> Result<bool, DriverError> {
        let qp = self.queue_mut(qid)?;
        let Some(tail) = qp.pending_tail.take() else {
            return Ok(false);
        };
        let cmds = qp.pending_cmds;
        qp.pending_cmds = 0;
        self.stats.batch_flushes += 1;
        self.stats.batched_cmds += cmds as u64;
        self.bus
            .trace
            .emit(None, || EventKind::BatchFlush { cmds, tail });
        self.ring_sq_doorbell(p, qid, tail);
        Ok(true)
    }

    /// Flushes `qid` if its oldest staged command has exceeded the flush
    /// policy's max-delay bound. The reactor's `poll_submit` calls it, which
    /// lets the installed [`FlushPolicy`] decide whether a doorbell is due
    /// without forcing one per call; [`NvmeDriver::poll_completions_into`]
    /// makes the same check itself.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownQueue`] for a bad queue id.
    pub(crate) fn flush_sq_if_due(&mut self, qid: QueueId) -> Result<(), DriverError> {
        if self.flush_is_due(qid)? {
            self.flush_sq(qid)?;
        }
        Ok(())
    }

    /// Whether the oldest command staged on `qid` has outwaited the flush
    /// policy's max-delay bound.
    fn flush_is_due(&mut self, qid: QueueId) -> Result<bool, DriverError> {
        let Some(policy) = self.flush_policy else {
            return Ok(false);
        };
        let now = self.bus.clock.now();
        let qp = self.queue_mut(qid)?;
        Ok(
            qp.pending_tail.is_some()
                && now.saturating_sub(qp.first_pending_at) >= policy.max_delay,
        )
    }

    /// Submits a group of commands to one queue, ringing the SQ tail
    /// doorbell once for the whole group — §3.2's one-doorbell-per-train,
    /// extended to one doorbell per *batch of trains*. SQEs and ByteExpress
    /// chunk trains are packed back-to-back in the ring.
    ///
    /// If an installed [`FlushPolicy`]'s max-batch bound is hit midway the
    /// intermediate flushes ring as configured; the final flush always
    /// happens before this returns, so the controller can fetch every
    /// accepted command. Without a policy the whole batch coalesces into a
    /// single doorbell.
    ///
    /// On a mid-batch submit error the batch stops early: commands already
    /// placed are doorbelled and returned in
    /// [`BatchSubmission::submitted`]; the offending command's error lands
    /// in [`BatchSubmission::error`] and the rest are not attempted. Each
    /// accepted command is tracked in flight individually, so the timeout
    /// reap applies to partially-acked batches with no special casing.
    pub fn submit_batch(
        &mut self,
        qid: QueueId,
        cmds: &[(PassthruCmd, TransferMethod)],
    ) -> BatchSubmission {
        // Deferral must be active for the duration of the batch even when
        // no policy is installed; restored before returning.
        let restore = self.flush_policy;
        if restore.is_none() {
            self.flush_policy = Some(FlushPolicy::unbounded());
        }
        let mut submitted = Vec::with_capacity(cmds.len());
        let mut error = None;
        for (cmd, method) in cmds {
            match self.submit(qid, cmd, *method) {
                Ok(s) => submitted.push(s),
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        self.flush_policy = restore;
        match self.flush_sq(qid) {
            Ok(_) => {}
            Err(e) => error = error.or(Some(e)),
        }
        BatchSubmission { submitted, error }
    }

    fn ring_sq_doorbell(&mut self, p: &mut Platform, qid: QueueId, tail: u16) {
        p.ring_sq_tail(qid, tail);
        self.stats.doorbells += 1;
        self.bus
            .trace
            .emit(None, || EventKind::DoorbellRing { tail });
    }

    /// Consumes all ready completions on `qid`, appending them to the
    /// caller-owned `out`.
    ///
    /// Reads CQEs by phase bit, releases the command's mapped pages, copies
    /// out any response data, updates SQ flow control, and rings the CQ head
    /// doorbell once per batch. Hot loops reuse one buffer (`clear()`
    /// between sweeps) so the polling side of a pipelined submit→complete
    /// window is allocation-free.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownQueue`] for a bad queue id.
    pub fn poll_completions_into(
        &mut self,
        qid: QueueId,
        out: &mut Vec<Completion>,
    ) -> Result<(), DriverError> {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        // Staged SQ tails past the flush policy's delay bound ring here —
        // the poll loop is where virtual time advances while submissions
        // sit deferred.
        if self.flush_is_due(qid)? {
            self.flush_staged(p, qid)?;
        }
        let (bus, timing) = (&self.bus, &self.timing);
        let coalesce = self.cq_coalesce as u64;
        let mut cq_rings = 0u64;
        let mut consumed_since_ring = 0u64;
        let qp = queue_in(&mut self.queues, qid)?;
        // One completion, from a byte-interface status word or a ring CQE.
        let (inflight, spare) = (&mut qp.inflight, &mut self.spare_page_lists);
        let mut consume = |p: &mut Platform, cid: u16, status: Status, result: u32| {
            let cmd = inflight.remove(cid);
            bus.trace
                .emit_cmd(CmdKey::new(qid.0, cid), || EventKind::CompletionConsumed {
                    status: status.to_wire(),
                });
            let now = bus.clock.now();
            retire(p, spare, cmd, (cid, status, result), now).map(|done| out.push(done))
        };
        // Byte-interface completions are polled from the BAR status area
        // (one synchronous MMIO read per poll sweep when any are pending).
        // Only status words stamped with THIS queue's id are consumed — the
        // window is shared by every queue, and cids are only unique per
        // queue, so a poll on queue B must never steal (and mis-time)
        // completions belonging to queue A. Foreign entries stay queued, in
        // order, for their own queue's poll.
        if p.mmio_window.completions.iter().any(|c| c.qid == qid.0) {
            bus.clock
                .advance(p.link.host_mmio_read(TrafficClass::Mmio, 8));
            let mut i = 0;
            while let Some(&c) = p.mmio_window.completions.get(i) {
                if c.qid != qid.0 {
                    i += 1;
                    continue;
                }
                p.mmio_window.completions.remove(i);
                consume(p, c.cid, c.status, c.result)?;
            }
        }
        loop {
            let slot = qp.cq.head();
            let addr = qp.cq.slot_addr(slot);
            let mut img = [0u8; CQE_BYTES];
            p.mem.read(addr, &mut img)?;
            let cqe = CompletionEntry::from_bytes(&img);
            if cqe.phase() != qp.cq.expected_phase() {
                break;
            }
            qp.cq.pop_slot();
            qp.sq.complete_up_to(cqe.sq_head());
            bus.clock.advance(timing.completion_handling);
            consumed_since_ring += 1;
            if coalesce > 0 && consumed_since_ring >= coalesce {
                // Reap-limit reached: acknowledge this group of CQEs with
                // a head doorbell write and keep draining.
                p.ring_cq_head();
                cq_rings += 1;
                consumed_since_ring = 0;
            }
            consume(p, cqe.cid(), cqe.status(), cqe.result())?;
        }
        // Only a dark device's commands are reaped: it will neither fetch
        // nor complete them before the power cycle resets its queues. A live
        // device may still fetch a command past its deadline (its doorbell
        // was staged), so the pages of a command on one are released only
        // with its completion, or at reset.
        let reaped = if p.powered_off {
            let spare = &mut self.spare_page_lists;
            reap_expired(p, qid, &mut qp.inflight, spare, bus, out)?
        } else {
            0
        };
        if consumed_since_ring > 0 {
            p.ring_cq_head();
            cq_rings += 1;
        }
        self.stats.doorbells += cq_rings;
        self.recovery.timeouts += reaped;
        Ok(())
    }

    /// One pass of the blocking engine: let the controller run, then poll
    /// `qid` into `out`.
    fn pump(
        &mut self,
        qid: QueueId,
        ctrl: &mut Controller,
        out: &mut Vec<Completion>,
    ) -> Result<(), DriverError> {
        ctrl.process_available();
        self.poll_completions_into(qid, out)
    }

    /// The one blocking wait: pumps `ctrl` and polls `qid` into `out`
    /// until none of `cmds` (submitted on `qid`) is in flight any more —
    /// each has been consumed as a CQE or status word, or reaped by the
    /// timeout sweep. Everything polled along the way lands in `out`,
    /// awaited or not.
    ///
    /// A pass that completes none of `cmds` is followed by a
    /// `RetryPolicy::poll_step` of virtual time when a [`RetryPolicy`] is
    /// installed and waiting can still help: on a dark device the reaper's
    /// deadline lies ahead, on a live one a staged doorbell falls due under
    /// the flush policy. On a dark device a pass that yields nothing is
    /// followed by one step past every poll that could not act either
    /// (`skip_dark_polls`). Otherwise nothing can unblock a stalled
    /// command, so a pass that completes none of `cmds` and yields nothing
    /// at all gives up.
    ///
    /// # Errors
    ///
    /// Propagates poll failures. [`DriverError::Timeout`] when nothing can
    /// complete a command; it stays tracked in flight, so a later poll
    /// still consumes its completion if one arrives, and a reset returns
    /// its pages.
    pub fn wait_for(
        &mut self,
        qid: QueueId,
        ctrl: &mut Controller,
        cmds: &[SubmittedCmd],
        out: &mut Vec<Completion>,
    ) -> Result<(), DriverError> {
        let mut missing = self.still_inflight(qid, cmds).count();
        while missing > 0 {
            let polled = out.len();
            self.pump(qid, ctrl, out)?;
            let still = self.still_inflight(qid, cmds).count();
            if still == missing {
                let dark = ctrl.is_powered_off();
                match self.retry_policy {
                    Some(policy) if self.waiting_can_help(qid, dark) => {
                        let step = policy.poll_step();
                        if out.len() == polled && dark {
                            self.skip_dark_polls(qid, step);
                        }
                        self.bus.clock.advance(step);
                    }
                    _ if out.len() == polled => {
                        if let Some((cid, _)) = self.still_inflight(qid, cmds).next() {
                            return Err(self.timeout(qid, cid));
                        }
                    }
                    _ => {}
                }
            }
            missing = still;
        }
        Ok(())
    }

    /// Whether virtual time alone can still move a command on `qid`: on a
    /// dark device the reaper takes a command once its deadline passes, on
    /// a live one a staged tail rings once the flush policy's delay runs
    /// out.
    fn waiting_can_help(&self, qid: QueueId, dark: bool) -> bool {
        if dark {
            self.has_deadline(qid)
        } else {
            self.flush_policy.is_some()
                && self.queue(qid).is_some_and(|qp| qp.pending_tail.is_some())
        }
    }

    /// The [`DriverError::Timeout`] for command `cid` in flight on `qid`:
    /// the one way a wait gives up on a command, whichever front end waits.
    pub(crate) fn timeout(&self, qid: QueueId, cid: u16) -> DriverError {
        let cmd = self.queue(qid).and_then(|qp| qp.inflight.get(cid));
        let now = self.bus.clock.now();
        DriverError::Timeout {
            ctx: CmdContext {
                qid,
                cid,
                opcode: cmd.map_or(0, |c| c.opcode),
            },
            waited: now.saturating_sub(cmd.map_or(now, |c| c.submitted_at)),
        }
    }

    /// The members of `cmds` still tracked in flight on `qid`.
    fn still_inflight<'a>(
        &'a self,
        qid: QueueId,
        cmds: &'a [SubmittedCmd],
    ) -> impl Iterator<Item = (u16, &'a Inflight)> {
        let table = self.queue(qid).map(|qp| &qp.inflight);
        cmds.iter()
            .filter_map(move |cmd| Some((cmd.cid, table?.get(cmd.cid)?)))
    }

    /// After a poll of `qid` that yielded nothing from a dark controller,
    /// advances the clock in one step past every further poll, `step` apart,
    /// that could not act either, so the next poll is the first that can.
    /// Nothing reaches the host from a dark device, so a poll can act only
    /// by reaping a command past its deadline or by ringing a staged tail
    /// past the flush policy's delay. Skips nothing when neither will ever
    /// happen.
    fn skip_dark_polls(&self, qid: QueueId, step: Nanos) {
        let Some(qp) = self.queue(qid) else {
            return;
        };
        let (now, step) = (self.bus.clock.now().as_ns(), step.as_ns());
        // Polls are numbered from 1, the next one, at `now + k * step`. The
        // reaper takes a command at the first poll past its deadline, the
        // flush happens at the first one `max_delay` after staging.
        let reap = qp
            .inflight
            .iter()
            .filter_map(|(_, cmd)| cmd.deadline)
            .map(|deadline| deadline.as_ns().saturating_sub(now) / step + 1);
        let flush = self
            .flush_policy
            .filter(|_| qp.pending_tail.is_some())
            .map(|policy| {
                let waited = now.saturating_sub(qp.first_pending_at.as_ns());
                policy
                    .max_delay
                    .as_ns()
                    .saturating_sub(waited)
                    .div_ceil(step)
                    .max(1)
            });
        let Some(idle) = reap.chain(flush).min().map(|first| first - 1) else {
            return;
        };
        // A flush delay near `u64::MAX` ns would run the clock over; such a
        // wait never ends either way, so keep stepping.
        let Some(skipped) = step
            .checked_mul(idle)
            .filter(|s| now.checked_add(*s).is_some())
        else {
            return;
        };
        self.bus.clock.advance(Nanos::from_ns(skipped));
    }

    /// Submit, ring, wait: the synchronous convenience the examples and
    /// benchmarks use, and the driver's only submit-and-wait loop. One
    /// attempt: a command the device never completes — one cut down in
    /// flight by a power cut — is [`DriverError::Timeout`], reaped at its
    /// [`RetryPolicy`] deadline when one is installed, given up on at once
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates submit/poll failures; [`DriverError::Timeout`] when the
    /// command never completes.
    pub fn execute(
        &mut self,
        qid: QueueId,
        ctrl: &mut Controller,
        cmd: &PassthruCmd,
        method: TransferMethod,
    ) -> Result<Completion, DriverError> {
        let mut polled = std::mem::take(&mut self.polled);
        polled.clear();
        let done = self.execute_polling_into(qid, ctrl, cmd, method, &mut polled);
        self.polled = polled;
        done
    }

    /// [`NvmeDriver::execute`] over a caller-owned poll buffer.
    fn execute_polling_into(
        &mut self,
        qid: QueueId,
        ctrl: &mut Controller,
        cmd: &PassthruCmd,
        method: TransferMethod,
        polled: &mut Vec<Completion>,
    ) -> Result<Completion, DriverError> {
        let submitted = self.submit(qid, cmd, method)?;
        // Synchronous callers see one doorbell per command regardless of
        // any installed flush policy.
        self.flush_sq(qid)?;
        // Returns once our cid has been polled — a real completion, or the
        // synthetic CommandAborted the reaper posts past the deadline.
        self.wait_for(qid, ctrl, &[submitted], polled)?;
        let idx = polled
            .iter()
            .position(|c| c.cid == submitted.cid)
            .ok_or_else(|| self.timeout(qid, submitted.cid))?;
        let completion = polled.swap_remove(idx);
        if completion.status == Status::CommandAborted {
            return Err(DriverError::Timeout {
                ctx: CmdContext {
                    qid,
                    cid: submitted.cid,
                    opcode: cmd.opcode,
                },
                waited: completion.latency(),
            });
        }
        Ok(completion)
    }
}

/// The pair `qid` names — borrowing the queue table alone, so the caller
/// keeps the driver's bus, timing and recycled lists at hand.
fn queue_in(queues: &mut [Option<QueuePair>], qid: QueueId) -> Result<&mut QueuePair, DriverError> {
    queues
        .get_mut(qid.0 as usize)
        .and_then(Option::as_mut)
        .ok_or(DriverError::UnknownQueue(qid))
}

/// Allocates SQ and CQ rings of `depth` entries; the CQ zeroed.
fn alloc_rings(
    mem: &mut HostMemory,
    depth: u16,
) -> Result<(bx_hostsim::DmaRegion, bx_hostsim::DmaRegion), DriverError> {
    let sq_pages = (depth as usize * SQE_BYTES).div_ceil(PAGE_SIZE);
    let cq_pages = (depth as usize * CQE_BYTES).div_ceil(PAGE_SIZE);
    let sq = mem.alloc_contiguous(sq_pages)?;
    // A pair that cannot be completed keeps nothing.
    let cq = mem
        .alloc_contiguous(cq_pages)
        .or_else(|e| mem.free_contiguous(sq).and(Err(e)))?;
    // Frames come back from earlier rings and data buffers with their
    // old contents. In the CQ a stale entry whose phase bit happens to
    // match would be consumed as a completion. The SQ keeps its bytes: the
    // controller reads only slots between its fetch head and the tail
    // rung, and the host writes every one of those before ringing.
    mem.fill(cq.base(), cq.len(), 0)?;
    Ok((
        bx_hostsim::DmaRegion::new(sq.base(), depth as usize * SQE_BYTES),
        bx_hostsim::DmaRegion::new(cq.base(), depth as usize * CQE_BYTES),
    ))
}

/// Reaps the commands in flight on `qid` whose deadline has passed, in cid
/// order, as synthetic `CommandAborted` completions into `out`; returns how
/// many. The one place a command's pages go back on a timer, so it runs only
/// on a dark device, whose queues nothing reads again before their reset.
fn reap_expired(
    p: &mut Platform,
    qid: QueueId,
    inflight: &mut InflightTable<Inflight>,
    spare: &mut Vec<Vec<PageRef>>,
    bus: &SystemBus,
    out: &mut Vec<Completion>,
) -> Result<u64, MemError> {
    debug_assert!(
        p.powered_off,
        "the reaper frees pages only while the controller is dark"
    );
    let now = bus.clock.now();
    let mut expired: Vec<u16> = inflight
        .iter()
        .filter(|(_, i)| matches!(i.deadline, Some(d) if now > d))
        .map(|(cid, _)| cid)
        .collect();
    // Slab iteration is slot order (deterministic but allocation history
    // dependent); sort so reaps surface in cid order.
    expired.sort_unstable();
    for &cid in &expired {
        let cmd = inflight.remove(cid);
        bus.trace
            .emit_cmd(CmdKey::new(qid.0, cid), || EventKind::TimeoutReap);
        let done = (cid, Status::CommandAborted, 0);
        out.push(retire(p, spare, cmd, done, now)?);
    }
    Ok(expired.len() as u64)
}

/// Retires one command as `done` — `(cid, status, result)` — at `now`:
/// copies out the response a successful read left in its buffer, as many
/// bytes as DW0 (`result`) reports, and returns the command's mapped pages,
/// their emptied list to `spare`. `inflight` is `None` for a completion of
/// a cid not in flight, which has no submission time but its own.
fn retire(
    p: &mut Platform,
    spare: &mut Vec<Vec<PageRef>>,
    inflight: Option<Inflight>,
    (cid, status, result): (u16, Status, u32),
    now: Nanos,
) -> Result<Completion, MemError> {
    let mut data = None;
    let mut submitted_at = now;
    if let Some(inflight) = inflight {
        submitted_at = inflight.submitted_at;
        if inflight.response_len > 0 && status.is_success() {
            // Response pages are not physically contiguous; copy them out
            // page by page, as the PRP list describes.
            let len = inflight.response_len.min(result as usize);
            let mut buf = Vec::with_capacity(len);
            for page in &inflight.pages {
                let take = (len - buf.len()).min(PAGE_SIZE);
                if take == 0 {
                    break;
                }
                buf.extend_from_slice(p.mem.slice(page.addr(), take)?);
            }
            data = Some(buf);
        }
        spare.push(inflight.free_pages(&mut p.mem)?);
    }
    Ok(Completion {
        cid,
        status,
        result,
        data,
        submitted_at,
        completed_at: now,
    })
}

impl QueuePair {
    #[expect(
        clippy::panic,
        reason = "queue depth is bounded far below 65536 in-flight cids; exhaustion is unrepresentable"
    )]
    fn alloc_cid(&mut self) -> u16 {
        // Wrapping CID allocation, skipping ids still in flight.
        match self.inflight.next_free_cid(&mut self.next_cid) {
            Some(cid) => cid,
            None => panic!("no free command identifiers"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_hostsim::FaultConfig;
    use bx_nvme::IoOpcode;
    use bx_pcie::{LinkConfig, TrafficCounters};
    use bx_ssd::{BlockFirmware, ControllerConfig, ExecutionModel, FetchPolicy};
    use bx_trace::Event;

    struct Rig {
        bus: SystemBus,
        driver: NvmeDriver,
        ctrl: Controller,
        qid: QueueId,
    }

    /// A traced NAND-backed block device with the default retry policy,
    /// holding two completed writes.
    fn rig(model: ExecutionModel, fetch_policy: FetchPolicy) -> Rig {
        let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 4 << 20, 2);
        bus.enable_trace();
        let cfg = ControllerConfig {
            execution_model: model,
            fetch_policy,
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, true))
        });
        let mut driver = NvmeDriver::new(bus.clone());
        driver.set_retry_policy(Some(RetryPolicy::default()));
        let qid = driver.initialize(&mut ctrl, &[64]).unwrap()[0];
        for lba in 0..2 {
            let done = driver.execute(
                qid,
                &mut ctrl,
                &write(lba, 200),
                TransferMethod::ByteExpress,
            );
            assert!(done.unwrap().status.is_success());
        }
        Rig {
            bus,
            driver,
            ctrl,
            qid,
        }
    }

    fn write(lba: u64, len: usize) -> PassthruCmd {
        let mut cmd = PassthruCmd::to_device(IoOpcode::Write, 1, vec![lba as u8 ^ 0x5A; len]);
        cmd.cdw10_15[0] = lba as u32;
        cmd
    }

    /// What a run shows: its clock, counters, wire and event stream.
    fn observed(
        r: &Rig,
    ) -> (
        Nanos,
        RecoveryStats,
        DriverStats,
        TrafficCounters,
        Vec<Event>,
    ) {
        (
            r.bus.clock.now(),
            r.driver.recovery_stats(),
            r.driver.stats(),
            r.bus.traffic(),
            r.bus.trace.events(),
        )
    }

    /// `wait_for` as it was before dark waits were skipped: one poll per
    /// `poll_step` while none of `cmds` completes, whatever the device.
    fn wait_stepping(
        d: &mut NvmeDriver,
        qid: QueueId,
        ctrl: &mut Controller,
        cmds: &[SubmittedCmd],
        out: &mut Vec<Completion>,
    ) {
        let step = d.retry_policy.unwrap().poll_step();
        let mut missing = d.still_inflight(qid, cmds).count();
        while missing > 0 {
            ctrl.process_available();
            d.poll_completions_into(qid, out).unwrap();
            let still = d.still_inflight(qid, cmds).count();
            if still == missing {
                d.bus.clock.advance(step);
            }
            missing = still;
        }
    }

    /// `execute`'s one attempt over [`wait_stepping`].
    fn execute_stepping(
        d: &mut NvmeDriver,
        qid: QueueId,
        ctrl: &mut Controller,
        cmd: &PassthruCmd,
        method: TransferMethod,
    ) -> Result<Completion, DriverError> {
        let mut polled = Vec::new();
        let submitted = d.submit(qid, cmd, method)?;
        d.flush_sq(qid)?;
        wait_stepping(d, qid, ctrl, &[submitted], &mut polled);
        let idx = polled.iter().position(|c| c.cid == submitted.cid).unwrap();
        let completion = polled.swap_remove(idx);
        if completion.status == Status::CommandAborted {
            return Err(DriverError::Timeout {
                ctx: CmdContext {
                    qid,
                    cid: submitted.cid,
                    opcode: cmd.opcode,
                },
                waited: completion.latency(),
            });
        }
        Ok(completion)
    }

    /// A write cut down in flight by a power cut `cut_after` processing
    /// events in, on two identical rigs: `execute`, which skips the dark
    /// polls, leaves everything the stepping wait does — result, clock,
    /// counters, wire and every event, the `TimeoutReap` included.
    fn dark_execute_equals_stepping(model: ExecutionModel, fetch: FetchPolicy, cut_after: u64) {
        let (mut skip, mut step) = (rig(model, fetch), rig(model, fetch));
        for r in [&skip, &step] {
            r.bus.install_faults(FaultConfig {
                power_cut_after_events: Some(cut_after),
            });
        }
        let cmd = write(2, 200);
        let skipped =
            skip.driver
                .execute(skip.qid, &mut skip.ctrl, &cmd, TransferMethod::ByteExpress);
        let stepped = execute_stepping(
            &mut step.driver,
            step.qid,
            &mut step.ctrl,
            &cmd,
            TransferMethod::ByteExpress,
        );
        assert!(skip.ctrl.is_powered_off(), "the cut fired");
        match &skipped {
            Err(DriverError::Timeout { ctx, waited }) => {
                assert_eq!((ctx.qid, ctx.opcode), (skip.qid, IoOpcode::Write as u8));
                assert!(*waited > RetryPolicy::default().timeout, "{waited}");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(skipped, stepped);
        // The reap instant: the `TimeoutReap` event's stamp and the clock.
        let events = skip.bus.trace.events();
        assert!(events.iter().any(|e| e.kind == EventKind::TimeoutReap));
        assert_eq!(observed(&skip), observed(&step));
        // One attempt, waited out to its 5 ms deadline.
        assert_eq!(skip.driver.recovery_stats().timeouts, 1);
    }

    #[test]
    fn dark_wait_serial_queue_local_cut_mid_write() {
        // The SQE fetch, then the instant after dispatch: the write ran.
        dark_execute_equals_stepping(ExecutionModel::Serial, FetchPolicy::QueueLocal, 1);
        // Cut at the fetch itself: the write never ran.
        dark_execute_equals_stepping(ExecutionModel::Serial, FetchPolicy::QueueLocal, 0);
    }

    #[test]
    fn dark_wait_pipelined_reassembly_cut_mid_train() {
        // The SQE fetch and one of the train's four chunks.
        dark_execute_equals_stepping(ExecutionModel::Pipelined, FetchPolicy::Reassembly, 2);
    }

    /// Two writes staged under a flush policy whose delay runs out while
    /// the device is dark: the skipped wait stops at the poll that rings
    /// them, then at the one that reaps the first, as stepping does.
    #[test]
    fn dark_wait_stops_at_a_flush_due_inside_the_skipped_window() {
        let mut rigs = [
            rig(ExecutionModel::Serial, FetchPolicy::QueueLocal),
            rig(ExecutionModel::Serial, FetchPolicy::QueueLocal),
        ];
        let mut outs = [Vec::new(), Vec::new()];
        for (side, (r, out)) in rigs.iter_mut().zip(&mut outs).enumerate() {
            r.driver.set_flush_policy(Some(FlushPolicy {
                max_batch: 16,
                max_delay: Nanos::from_us(1_010),
            }));
            r.ctrl.force_power_cut();
            let sub: Vec<SubmittedCmd> = (2..4)
                .map(|lba| {
                    let cmd = write(lba, 64);
                    r.driver.submit(r.qid, &cmd, TransferMethod::Prp).unwrap()
                })
                .collect();
            for waited in [&sub[..1], &sub[1..]] {
                if side == 0 {
                    r.driver.wait_for(r.qid, &mut r.ctrl, waited, out).unwrap();
                } else {
                    wait_stepping(&mut r.driver, r.qid, &mut r.ctrl, waited, out);
                }
            }
            assert_eq!(r.driver.stats().batch_flushes, 1, "the staged pair rang");
            assert_eq!(r.driver.recovery_stats().timeouts, 2);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(observed(&rigs[0]), observed(&rigs[1]));
    }

    /// A NAND-less traced device with one I/O queue of `depth` slots whose
    /// empty ring starts at slot `offset`, every slot holding stale bytes.
    fn ring_rig(depth: u16, offset: u16, policy: FetchPolicy) -> Rig {
        let mut bus = SystemBus::new(LinkConfig::gen2_x8(), 4 << 20, 2);
        bus.enable_trace();
        let cfg = ControllerConfig {
            fetch_policy: policy,
            nand: bx_ssd::NandConfig::disabled(),
            ..ControllerConfig::default()
        };
        let mut ctrl = Controller::new(bus.clone(), cfg, |dram| {
            Box::new(BlockFirmware::new(dram, false))
        });
        let mut driver = NvmeDriver::new(bus.clone());
        let qid = driver.initialize(&mut ctrl, &[depth]).unwrap()[0];
        let sq = &mut queue_in(&mut driver.queues, qid).unwrap().sq;
        sq.push_slots(offset);
        sq.complete_up_to(sq.tail());
        let region = sq.region();
        bus.platform()
            .borrow_mut()
            .mem
            .fill(region.base(), region.len(), 0xEE)
            .unwrap();
        Rig {
            bus,
            driver,
            ctrl,
            qid,
        }
    }

    /// `submit_byteexpress` as it was before trains were written as ring
    /// spans: every chunk encoded into a stack buffer, one slot claimed,
    /// written and charged at a time. Kept as the reference the span write
    /// must equal.
    fn submit_byteexpress_per_slot(
        d: &mut NvmeDriver,
        p: &mut Platform,
        qid: QueueId,
        mut sqe: SubmissionEntry,
        data: &[u8],
    ) -> Result<(), DriverError> {
        let caps = d.identify.as_ref().ok_or(DriverError::NotReady)?.vendor;
        let (payload_id, n_chunks, per_chunk) = if caps.reassembly {
            let id = d.next_payload_id;
            d.next_payload_id = d.next_payload_id.wrapping_add(1).max(1);
            sqe.set_cdw3(id);
            (
                Some(id),
                inline::chunks_for_len_reassembly(data.len()),
                inline::REASSEMBLY_CHUNK_PAYLOAD,
            )
        } else {
            (
                None,
                inline::chunks_for_len(data.len()),
                inline::BYTEEXPRESS_CHUNK_SIZE,
            )
        };
        inline::set_inline_len(&mut sqe, data.len());
        let (bus, timing) = (&d.bus, &d.timing);
        let qp = queue_in(&mut d.queues, qid)?;
        let depth_limit = usize::from(qp.sq.depth() - 1);
        if 1 + n_chunks > depth_limit {
            return Err(DriverError::PayloadTooLarge {
                len: data.len(),
                max: (depth_limit - 1) * per_chunk,
            });
        }
        let needed = (1 + n_chunks) as u16;
        if !qp.sq.can_push(needed) {
            return Err(DriverError::QueueFull {
                needed,
                free: qp.sq.free_slots(),
            });
        }
        let slot = qp.sq.push_slot();
        p.mem.write(qp.sq.slot_addr(slot), &sqe.to_bytes())?;
        bus.clock.advance(timing.bx_cmd_insert);
        let chunks = match payload_id {
            None => inline::encode_chunks(data),
            Some(id) => inline::encode_reassembly_chunks(id, data),
        };
        let mut written = 0u64;
        for chunk in &chunks {
            let slot = qp.sq.push_slot();
            p.mem.write(qp.sq.slot_addr(slot), chunk)?;
            bus.clock.advance(timing.per_chunk_insert);
            written += 1;
        }
        let tail = qp.sq.tail();
        d.stats.chunks_written += written;
        bus.trace.emit_cmd(CmdKey::new(qid.0, sqe.cid()), || {
            EventKind::ChunkTrainWrite {
                chunks: written as u16,
                bytes: data.len(),
            }
        });
        d.note_sq_tail(p, qid, tail)
    }

    /// Depths for the span properties: the smallest ring, small ones,
    /// primes, and the largest prime the default controller admits.
    const SPAN_DEPTHS: [u16; 8] = [2, 3, 4, 7, 13, 64, 127, 1021];

    proptest::proptest! {
        /// Writing a train as at most two ring spans leaves exactly what
        /// the per-slot loop left: ring bytes (padding and untouched stale
        /// slots included), ring tail, clock, driver stats, per-class link
        /// counters and trace — for both framings, any depth, any starting
        /// offset (wrapping ones included) and every length up to one past
        /// the largest that fits.
        #[test]
        fn byteexpress_span_write_equals_per_slot(
            depth_i in 0usize..SPAN_DEPTHS.len(),
            offset_seed in proptest::prelude::any::<u16>(),
            len_seed in proptest::prelude::any::<u32>(),
            reassembly in proptest::prelude::any::<bool>(),
        ) {
            let depth = SPAN_DEPTHS[depth_i];
            let offset = offset_seed % depth;
            let (policy, per_chunk) = if reassembly {
                (FetchPolicy::Reassembly, inline::REASSEMBLY_CHUNK_PAYLOAD)
            } else {
                (FetchPolicy::QueueLocal, inline::BYTEEXPRESS_CHUNK_SIZE)
            };
            let fits = usize::from(depth - 2) * per_chunk;
            let len = 1 + len_seed as usize % (fits + 1);
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
            let mut rigs = [
                ring_rig(depth, offset, policy),
                ring_rig(depth, offset, policy),
            ];
            let mut results = Vec::new();
            for (per_slot, r) in rigs.iter_mut().enumerate() {
                let platform = r.bus.platform();
                let p = &mut *platform.borrow_mut();
                let mut sqe = SubmissionEntry::io(IoOpcode::Write, 5, 1);
                sqe.set_data_len(len as u32);
                results.push(if per_slot == 1 {
                    submit_byteexpress_per_slot(&mut r.driver, p, r.qid, sqe, &data)
                } else {
                    r.driver.submit_byteexpress(p, r.qid, sqe, &data)
                });
            }
            proptest::prop_assert_eq!(&results[0], &results[1]);
            proptest::prop_assert_eq!(results[0].is_ok(), len <= fits);
            let ring = |r: &mut Rig| {
                let sq = &queue_in(&mut r.driver.queues, r.qid).unwrap().sq;
                let region = sq.region();
                let bytes = r.bus.platform().borrow().mem.read_vec(region.base(), region.len());
                (bytes.unwrap(), sq.tail(), r.driver.next_payload_id)
            };
            let [a, b] = &mut rigs;
            proptest::prop_assert_eq!(ring(a), ring(b));
            proptest::prop_assert_eq!(observed(a), observed(b));
        }
    }
}
