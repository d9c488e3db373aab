//! The PCIe-MMIO byte interface, device side (§3.1 baseline): no SQE fetch
//! and no CQE. The buffer monitor hands the committed bytes straight to the
//! firmware and posts a status word.

use crate::bus::{MmioCompletion, Platform};
use crate::controller::{Controller, DeferredCompletion};
use bx_trace::{CmdKey, EventKind};

/// Consumes one byte-interface submission from the BAR window, if any.
///
/// Returns `None` when the window is empty, otherwise the number of
/// completions posted: 1 under `Serial`, 0 under `Pipelined` (the status
/// word posts later, when the scheduled completion is delivered).
pub(crate) fn process(c: &mut Controller, p: &mut Platform) -> Option<usize> {
    let sub = p.mmio_window.submissions.pop_front()?;
    if c.power_tick(p) {
        // The committed bytes were still in the volatile window.
        return None;
    }
    c.bus.clock.advance(c.timing.mmio_detect);
    // The byte-interface path has no SQ, but the command is still owned by
    // the submitting queue pair: spans carry its real id, matching the
    // driver's submit hook and the qid echoed on the status word.
    let key = CmdKey::new(sub.qid, sub.sqe.cid());
    c.bus.trace.emit_cmd(key, || EventKind::SqeFetch {
        opcode: sub.sqe.opcode_raw(),
    });
    c.bus.trace.emit_cmd(key, || EventKind::DataFetch {
        kind: "mmio",
        bytes: sub.payload.len(),
    });
    let payload = (!sub.payload.is_empty()).then_some(sub.payload.as_slice());
    let outcome = c.with_firmware(|firmware, ctx| firmware.handle(ctx, &sub.sqe, payload));
    let word = MmioCompletion {
        qid: sub.qid,
        cid: sub.sqe.cid(),
        status: outcome.status,
        result: outcome.result,
    };
    Some(c.finish(p, outcome.complete_at, DeferredCompletion::Mmio(word)))
}
