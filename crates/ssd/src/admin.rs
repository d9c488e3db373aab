//! The admin queue, device side: Identify, I/O queue creation and deletion.

use crate::bus::Platform;
use crate::controller::{fetch_entry, post_to_queue, Controller, IoQueue};
use crate::firmware::CommandOutcome;
use crate::gather::dptr;
use bx_nvme::admin::{self, QueueParams};
use bx_nvme::{AdminOpcode, QueueId, Status, SubmissionEntry};

impl Controller {
    /// Fetches and executes one admin command.
    pub(crate) fn process_admin_one(&mut self, p: &mut Platform) {
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

    /// Executes one admin command.
    pub(crate) fn handle_admin(
        &mut self,
        p: &mut Platform,
        sqe: &SubmissionEntry,
    ) -> CommandOutcome {
        let now = self.bus.clock.now();
        let refused = CommandOutcome::fail(Status::InvalidField, now);
        match sqe.opcode_raw() {
            op if op == AdminOpcode::Identify as u8 => {
                if sqe.cdw(10) != admin::CNS_CONTROLLER {
                    return refused;
                }
                let page = self.identify.encode();
                dptr::dma_response(self, p, sqe, &page);
            }
            op if op == AdminOpcode::CreateIoCq as u8 => {
                let cq = admin::queue_params(sqe);
                if !self.admits(cq)
                    || self.pending_cqs.contains_key(&cq.qid)
                    || self.queues.iter().any(|q| q.cqid == cq.qid)
                {
                    return refused;
                }
                self.pending_cqs.insert(cq.qid, (cq.base, cq.depth));
            }
            op if op == AdminOpcode::CreateIoSq as u8 => {
                let sq = admin::queue_params(sqe);
                let Some(&(cq_base, cq_depth)) = self.pending_cqs.get(&sq.cqid) else {
                    return refused;
                };
                if !self.admits(sq)
                    || self.queues.iter().any(|q| q.id.0 == sq.qid)
                    || (sq.qid as usize) >= p.doorbells.queues()
                {
                    return refused;
                }
                self.pending_cqs.remove(&sq.cqid);
                // A queue starts with its tail doorbell at zero, whatever a
                // deleted pair that had the id left in it.
                let id = QueueId(sq.qid);
                p.doorbells.ring_sq_tail(id, 0);
                let (sq_ring, cq_ring) = ((sq.base, sq.depth), (cq_base, cq_depth));
                self.queues
                    .push(IoQueue::new(id, sq_ring, cq_ring, sq.cqid));
            }
            op if op == AdminOpcode::DeleteIoSq as u8 => {
                let qid = admin::delete_target(sqe);
                let Some(pos) = self.queues.iter().position(|q| q.id.0 == qid) else {
                    return refused;
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
            }
            op if op == AdminOpcode::DeleteIoCq as u8 => {
                // The paired SQ must be deleted first.
                let qid = admin::delete_target(sqe);
                if self.queues.iter().any(|q| q.cqid == qid)
                    || self.pending_cqs.remove(&qid).is_none()
                {
                    return refused;
                }
            }
            _ => return CommandOutcome::fail(Status::InvalidOpcode, now),
        }
        CommandOutcome::ok(self.bus.clock.now())
    }

    /// Whether a queue of these parameters may be created at all.
    fn admits(&self, q: QueueParams) -> bool {
        q.qid != 0
            && (2..=self.regs.max_queue_entries).contains(&q.depth)
            && q.base.is_page_aligned()
    }
}
