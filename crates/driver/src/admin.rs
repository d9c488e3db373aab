//! Admin handling: bring-up, I/O queue creation and deletion, and the reset
//! after a power cycle — every command that goes over the admin queue.

use crate::driver::{DriverError, NvmeDriver, QueuePair};
use crate::inflight::InflightTable;
use bx_hostsim::{DmaRegion, HostMemory, PAGE_SIZE};
use bx_nvme::{
    admin, CompletionEntry, CqRing, IdentifyController, QueueId, SqRing, Status, SubmissionEntry,
    CQE_BYTES, SQE_BYTES,
};
use bx_ssd::registers::{Register, RegisterFile, CC_ENABLE};
use bx_ssd::Controller;

/// The driver's admin queue pair.
pub(crate) struct AdminQueue {
    sq: SqRing,
    cq: CqRing,
    next_cid: u16,
}

impl NvmeDriver {
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
        let cqe = self.admin_execute(ctrl, |cid| admin::identify_controller(cid, buf.addr()));
        let page = {
            let mem = &mut platform.borrow_mut().mem;
            let page = mem.read_vec(buf.addr(), bx_nvme::IDENTIFY_BYTES);
            mem.free_page(buf)?;
            page?
        };
        succeeded(cqe?)?;
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
    /// coalescing — and cumulative stats survive; they live
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

    /// Synchronously executes one admin command, `build` of its cid.
    /// Borrows the platform on either side of the controller call it
    /// brackets, never across it.
    fn admin_execute(
        &mut self,
        ctrl: &mut Controller,
        build: impl FnOnce(u16) -> SubmissionEntry,
    ) -> Result<CompletionEntry, DriverError> {
        let (bus, timing) = (&self.bus, &self.timing);
        let platform = bus.platform();
        let a = self.admin.as_mut().ok_or(DriverError::NotReady)?;
        let sqe = build(a.next_cid);
        a.next_cid = a.next_cid.wrapping_add(1);
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
        });
        Ok(id)
    }

    /// The two admin commands of [`NvmeDriver::create_io_queue`], over its
    /// allocated rings.
    fn create_on_controller(
        &mut self,
        ctrl: &mut Controller,
        depth: u16,
        sq_region: DmaRegion,
        cq_region: DmaRegion,
    ) -> Result<QueueId, DriverError> {
        let qid = (1..=u16::MAX)
            .find(|&q| self.queue(QueueId(q)).is_none())
            .ok_or(DriverError::Unsupported("more than 65535 I/O queues"))?;
        let (cq, sq) = (cq_region.base(), sq_region.base());
        succeeded(self.admin_execute(ctrl, |cid| admin::create_io_cq(cid, qid, depth, cq))?)?;
        let created =
            self.admin_execute(ctrl, |cid| admin::create_io_sq(cid, qid, depth, sq, qid))?;
        if let Err(e) = succeeded(created) {
            // The CQ just created has no SQ and never will: delete it, or
            // the controller keeps the id bound and refuses the next pair.
            self.admin_execute(ctrl, |cid| admin::delete_io_cq(cid, qid))?;
            return Err(e);
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
        succeeded(self.admin_execute(ctrl, |cid| admin::delete_io_sq(cid, qid.0))?)?;
        succeeded(self.admin_execute(ctrl, |cid| admin::delete_io_cq(cid, qid.0))?)?;
        if let Some(qp) = self.queues.get_mut(qid.0 as usize).and_then(Option::take) {
            qp.release(&mut self.bus.platform().borrow_mut().mem)?;
        }
        Ok(())
    }
}

/// Refuses an admin command that completed with an error status.
fn succeeded(cqe: CompletionEntry) -> Result<(), DriverError> {
    match cqe.status() {
        status if status.is_success() => Ok(()),
        status => Err(DriverError::AdminFailed(status)),
    }
}

/// Allocates SQ and CQ rings of `depth` entries; the CQ zeroed.
fn alloc_rings(mem: &mut HostMemory, depth: u16) -> Result<(DmaRegion, DmaRegion), DriverError> {
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
        DmaRegion::new(sq.base(), depth as usize * SQE_BYTES),
        DmaRegion::new(cq.base(), depth as usize * CQE_BYTES),
    ))
}
