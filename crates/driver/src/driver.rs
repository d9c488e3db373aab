//! The driver proper: queue pairs, submit engines, completion polling.

use crate::admin::AdminQueue;
use crate::inflight::InflightTable;
use crate::method::TransferMethod;
use crate::recovery::{CmdContext, RecoveryStats, RetryPolicy};
use crate::timing::DriverTiming;
use crate::transfer;
use bx_hostsim::{HostMemory, MemError, Nanos, PageRef, PhysAddr, PAGE_SIZE};
use bx_nvme::prp::PrpError;
use bx_nvme::{
    CompletionEntry, CqRing, IdentifyController, PassthruCmd, QueueId, SqRing, Status,
    SubmissionEntry, CQE_BYTES,
};
use bx_pcie::TrafficClass;
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
    /// [`RetryPolicy`] deadline on a dark device, or no poll could make
    /// progress on it any more.
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
pub(crate) struct Inflight {
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
    pub(crate) pages: Vec<PageRef>,
    /// Bytes of response buffer at the front of `pages` (0: a command that
    /// returns no data).
    pub(crate) response_len: usize,
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

pub(crate) struct QueuePair {
    pub(crate) sq: SqRing,
    pub(crate) cq: CqRing,
    pub(crate) next_cid: u16,
    pub(crate) inflight: InflightTable<Inflight>,
    /// Tail of entries staged in the ring but not yet doorbelled — the
    /// deferral state behind doorbell coalescing. `None` means the device's
    /// tail view is current.
    pub(crate) pending_tail: Option<u16>,
    /// Commands staged since the last doorbell.
    pub(crate) pending_cmds: u16,
}

impl QueuePair {
    /// Returns the ring pages, and the mapped pages of every command still
    /// in flight, to the allocator: the pair is gone from the device.
    pub(crate) fn release(self, mem: &mut HostMemory) -> Result<(), MemError> {
        for inflight in self.inflight.into_values() {
            inflight.free_pages(mem)?;
        }
        mem.free_contiguous(self.sq.region())?;
        mem.free_contiguous(self.cq.region())
    }
}

/// The host NVMe driver.
pub struct NvmeDriver {
    pub(crate) bus: SystemBus,
    pub(crate) timing: DriverTiming,
    /// I/O queue pairs by qid. Qids are the lowest free ones, so the table
    /// is dense; slot 0, the admin queue's id, stays `None`.
    pub(crate) queues: Vec<Option<QueuePair>>,
    pub(crate) admin: Option<AdminQueue>,
    pub(crate) identify: Option<IdentifyController>,
    pub(crate) next_payload_id: u32,
    pub(crate) stats: DriverStats,
    retry_policy: Option<RetryPolicy>,
    recovery: RecoveryStats,
    /// When set, `submit` stages its SQ tail and only `flush_sq` rings it;
    /// when clear every submission rings immediately.
    staged: bool,
    /// CQ head doorbell cadence: ring after every N consumed CQEs.
    /// 0 means once per poll sweep (the maximally coalesced default);
    /// 1 reproduces a naive per-CQE driver.
    cq_coalesce: u16,
    /// Emptied page lists of completed commands, handed to the next ones.
    spare_page_lists: Vec<Vec<PageRef>>,
    /// Addresses of the data pages of the command being mapped, for
    /// [`bx_nvme::prp::describe`]. Refilled per command.
    pub(crate) page_addrs: Vec<PhysAddr>,
}

impl fmt::Debug for NvmeDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NvmeDriver")
            .field("queues", &self.queues.iter().flatten().count())
            .field("stats", &self.stats)
            .finish()
    }
}

impl NvmeDriver {
    /// Creates a driver on `bus` with default timing.
    pub fn new(bus: SystemBus) -> Self {
        NvmeDriver {
            bus,
            timing: DriverTiming::default(),
            queues: Vec::new(),
            admin: None,
            identify: None,
            next_payload_id: 1,
            stats: DriverStats::default(),
            retry_policy: None,
            recovery: RecoveryStats::default(),
            staged: false,
            cq_coalesce: 0,
            spare_page_lists: Vec::new(),
            page_addrs: Vec::new(),
        }
    }

    /// Turns doorbell staging on or off, returning the old setting. Staged,
    /// [`NvmeDriver::submit`] leaves its SQ tail for
    /// [`NvmeDriver::flush_sq`] to ring, so a run of submissions shares one
    /// doorbell; unstaged (the default), every submission rings its own, as
    /// a conventional driver does.
    pub fn set_staged(&mut self, staged: bool) -> bool {
        std::mem::replace(&mut self.staged, staged)
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

    /// Activity counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    pub(crate) fn queue(&self, qid: QueueId) -> Option<&QueuePair> {
        self.queues.get(qid.0 as usize)?.as_ref()
    }

    /// Submits a passthrough command using `method` for its data phase.
    /// Unstaged it rings the SQ tail doorbell; staged
    /// ([`NvmeDriver::set_staged`]) it leaves the tail for
    /// [`NvmeDriver::flush_sq`].
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
        let cid = queue_in(&mut self.queues, qid)?.alloc_cid();
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
        if let Err(e) = transfer::place(self, p, qid, sqe, cmd, method, &mut inflight) {
            // A refusal maps nothing, but host memory can run out midway;
            // whatever was mapped goes back.
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

    /// Writes `sqe` into the next slot of `qid`'s ring, which the command's
    /// reservation left room for, and rings or stages the doorbell.
    pub(crate) fn insert_and_ring(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
        sqe: SubmissionEntry,
    ) -> Result<(), DriverError> {
        let qp = queue_in(&mut self.queues, qid)?;
        let slot = qp.sq.push_slot();
        p.mem.write(qp.sq.slot_addr(slot), sqe.as_bytes())?;
        self.bus.clock.advance(self.timing.sqe_insert);
        self.note_sq_tail(p, qid)
    }

    /// Routes `qid`'s freshly advanced SQ tail either straight to the
    /// doorbell or, staged, into the queue's deferral state for
    /// [`NvmeDriver::flush_sq`].
    pub(crate) fn note_sq_tail(
        &mut self,
        p: &mut Platform,
        qid: QueueId,
    ) -> Result<(), DriverError> {
        let qp = queue_in(&mut self.queues, qid)?;
        let tail = qp.sq.tail();
        if self.staged {
            qp.pending_tail = Some(tail);
            qp.pending_cmds += 1;
        } else {
            self.ring_sq_doorbell(p, qid, tail);
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
        let qp = queue_in(&mut self.queues, qid)?;
        // The reactor calls this per shard per turn: look before borrowing.
        let Some(tail) = qp.pending_tail.take() else {
            return Ok(false);
        };
        let cmds = std::mem::take(&mut qp.pending_cmds);
        self.stats.batch_flushes += 1;
        self.stats.batched_cmds += cmds as u64;
        self.bus
            .trace
            .emit(None, || EventKind::BatchFlush { cmds, tail });
        let platform = self.bus.platform();
        self.ring_sq_doorbell(&mut platform.borrow_mut(), qid, tail);
        Ok(true)
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

    /// The one blocking wait: pumps `ctrl` and polls `qid` into `out`
    /// until none of `cmds` (submitted on `qid`) is in flight any more —
    /// each has been consumed as a CQE or status word, or reaped by the
    /// timeout sweep. Everything polled along the way lands in `out`,
    /// awaited or not.
    ///
    /// A pass that completes none of `cmds` is followed by a
    /// `RetryPolicy::poll_step` of virtual time when a [`RetryPolicy`] is
    /// installed and the device is dark with a reaper's deadline ahead; a
    /// pass that yields nothing there is followed by one step past every
    /// poll that could not act either (`skip_dark_polls`). Otherwise
    /// nothing can unblock a stalled command — a staged tail no
    /// [`NvmeDriver::flush_sq`] rang included — so a pass that completes
    /// none of `cmds` and yields nothing at all gives up.
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
            ctrl.process_available();
            self.poll_completions_into(qid, out)?;
            let still = self.still_inflight(qid, cmds).count();
            if still == missing {
                match self.retry_policy {
                    Some(policy) if ctrl.is_powered_off() && self.has_deadline(qid) => {
                        let step = policy.poll_step();
                        if out.len() == polled {
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
    /// by reaping a command past its deadline. Skips nothing when no command
    /// has one.
    fn skip_dark_polls(&self, qid: QueueId, step: Nanos) {
        let Some(qp) = self.queue(qid) else {
            return;
        };
        let (now, step) = (self.bus.clock.now().as_ns(), step.as_ns());
        // Polls are numbered from 1, the next one, at `now + k * step`. The
        // reaper takes a command at the first poll past its deadline.
        let first_reap = qp
            .inflight
            .iter()
            .filter_map(|(_, cmd)| cmd.deadline)
            .map(|deadline| deadline.as_ns().saturating_sub(now) / step + 1)
            .min();
        // `step * idle` never passes the earliest deadline, so never runs the
        // clock over.
        if let Some(idle) = first_reap.map(|first| first - 1) {
            self.bus.clock.advance(Nanos::from_ns(step * idle));
        }
    }
}

/// The pair `qid` names — borrowing the queue table alone, so the caller
/// keeps the driver's bus, timing and recycled lists at hand.
pub(crate) fn queue_in(
    queues: &mut [Option<QueuePair>],
    qid: QueueId,
) -> Result<&mut QueuePair, DriverError> {
    queues
        .get_mut(qid.0 as usize)
        .and_then(Option::as_mut)
        .ok_or(DriverError::UnknownQueue(qid))
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
pub(crate) mod tests {
    use super::*;
    use bx_hostsim::FaultConfig;
    use bx_nvme::IoOpcode;
    use bx_pcie::{LinkConfig, TrafficCounters};
    use bx_ssd::{BlockFirmware, ControllerConfig, ExecutionModel, FetchPolicy};
    use bx_trace::Event;

    pub(crate) struct Rig {
        pub(crate) bus: SystemBus,
        pub(crate) driver: NvmeDriver,
        pub(crate) ctrl: Controller,
        pub(crate) qid: QueueId,
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
            let cmd = write(lba, 200);
            let done = execute(&mut driver, qid, &mut ctrl, &cmd, waiting);
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
    pub(crate) fn observed(
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

    type Wait =
        fn(&mut NvmeDriver, QueueId, &mut Controller, &[SubmittedCmd], &mut Vec<Completion>);

    /// [`NvmeDriver::wait_for`] as a [`Wait`].
    fn waiting(
        d: &mut NvmeDriver,
        qid: QueueId,
        ctrl: &mut Controller,
        cmds: &[SubmittedCmd],
        out: &mut Vec<Completion>,
    ) {
        d.wait_for(qid, ctrl, cmds, out).unwrap();
    }

    /// One attempt at a ByteExpress `cmd`, as `Device` makes it: submit,
    /// ring, `wait`, and a reaped command as [`DriverError::Timeout`].
    fn execute(
        d: &mut NvmeDriver,
        qid: QueueId,
        ctrl: &mut Controller,
        cmd: &PassthruCmd,
        wait: Wait,
    ) -> Result<Completion, DriverError> {
        let mut polled = Vec::new();
        let submitted = d.submit(qid, cmd, TransferMethod::ByteExpress)?;
        d.flush_sq(qid)?;
        wait(d, qid, ctrl, &[submitted], &mut polled);
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
    /// events in, on two identical rigs: `wait_for`, which skips the dark
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
        let skipped = execute(&mut skip.driver, skip.qid, &mut skip.ctrl, &cmd, waiting);
        let stepped = execute(
            &mut step.driver,
            step.qid,
            &mut step.ctrl,
            &cmd,
            wait_stepping,
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
}
