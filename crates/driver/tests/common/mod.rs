//! The submit-and-wait the driver tests share, over the driver's entry
//! points: `Device`'s own, without the device around it.

use bx_driver::{CmdContext, Completion, DriverError, NvmeDriver, TransferMethod};
use bx_nvme::{PassthruCmd, QueueId, Status};
use bx_ssd::Controller;

/// Submit, ring, wait: one attempt at `cmd` on `qid`. A command reaped at
/// its deadline is [`DriverError::Timeout`], as is one nothing can complete.
pub(crate) fn execute(
    driver: &mut NvmeDriver,
    qid: QueueId,
    ctrl: &mut Controller,
    cmd: &PassthruCmd,
    method: TransferMethod,
) -> Result<Completion, DriverError> {
    let submitted = driver.submit(qid, cmd, method)?;
    driver.flush_sq(qid)?;
    let mut polled = Vec::new();
    driver.wait_for(qid, ctrl, &[submitted], &mut polled)?;
    let idx = polled.iter().position(|c| c.cid == submitted.cid);
    let completion = polled.swap_remove(idx.expect("a waited command was polled"));
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
