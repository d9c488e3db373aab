//! The firmware extension point.
//!
//! The controller handles everything protocol-side (fetching SQEs, gathering
//! payloads via PRP/SGL/BandSlim/ByteExpress, posting completions); what a
//! command *means* is delegated to a [`FirmwareHandler`]. The block firmware
//! here serves ordinary read/write; the KV-SSD and CSD crates plug in their
//! own handlers — mirroring how ByteExpress's controller change (fetch the
//! chunk train) is independent of what the device does with the payload.

use crate::dram::DeviceDram;
use crate::ftl::{Ftl, FtlError};
use crate::nand::NandArray;
use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_nvme::{IoOpcode, Status, SubmissionEntry};

/// Mutable device state handed to firmware for one command.
pub struct FirmwareCtx<'a> {
    /// The NAND array.
    pub nand: &'a mut NandArray,
    /// The FTL over it.
    pub ftl: &'a mut Ftl,
    /// Device DRAM.
    pub dram: &'a mut DeviceDram,
    /// Virtual time at dispatch.
    pub now: Nanos,
}

/// What the firmware decided about one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutcome {
    /// Completion status.
    pub status: Status,
    /// CQE DW0 (command-specific result, e.g. value length).
    pub result: u32,
    /// Data to DMA back to the host (from-device commands).
    pub response: Option<Vec<u8>>,
    /// Instant at which device-side processing finishes (≥ dispatch time).
    pub complete_at: Nanos,
}

impl CommandOutcome {
    /// A success with no response data, completing at `at`.
    pub fn ok(at: Nanos) -> Self {
        CommandOutcome {
            status: Status::Success,
            result: 0,
            response: None,
            complete_at: at,
        }
    }

    /// A failure with `status`, completing at `at`.
    pub fn fail(status: Status, at: Nanos) -> Self {
        CommandOutcome {
            status,
            result: 0,
            response: None,
            complete_at: at,
        }
    }
}

/// Device personality: interprets commands once the controller has gathered
/// their payloads.
pub trait FirmwareHandler {
    /// Handles one command. `payload` is the gathered host→device data
    /// (inline chunks, PRP data, SGL data or BandSlim fragments — the
    /// firmware does not know or care which transfer method delivered it).
    fn handle(
        &mut self,
        ctx: FirmwareCtx<'_>,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> CommandOutcome;

    /// Called once after a power cut, when the controller has already
    /// rebuilt the FTL from its journal ([`Ftl::recover`]) and wiped DRAM.
    /// Firmware re-derives its volatile state (indexes, staging cursors)
    /// from the recovered durable state. The default is a no-op — stateless
    /// firmware like [`BlockFirmware`] needs nothing.
    fn on_power_cycle(&mut self, ctx: FirmwareCtx<'_>) {
        let _ = ctx;
    }
}

/// Plain block-SSD firmware: `Write`/`Read`/`Flush` against the FTL, one
/// 4 KB logical block per LBA, each in a NAND page of its own (a larger
/// NAND page's tail reads as zeros).
///
/// With `nand_io` disabled the payload is landed in a DRAM page buffer and
/// acknowledged without touching NAND — the paper's configuration for
/// measuring pure transfer latency (§4.2: "with NAND I/O disabled").
#[derive(Debug)]
pub struct BlockFirmware {
    nand_io: bool,
    /// Device-DRAM page buffer offset (landing zone in NAND-off mode).
    page_buffer: usize,
}

impl BlockFirmware {
    /// Creates block firmware; `nand_io = false` reproduces the paper's
    /// NAND-off transfer benchmarks.
    pub fn new(dram: &mut DeviceDram, nand_io: bool) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time sizing bug, not a runtime state; DRAM capacity is a build parameter"
        )]
        let region = dram
            .alloc_region("block-page-buffer", 4 * PAGE_SIZE)
            .expect("device DRAM too small for page buffer");
        BlockFirmware {
            nand_io,
            page_buffer: region.offset,
        }
    }
}

impl FirmwareHandler for BlockFirmware {
    fn handle(
        &mut self,
        ctx: FirmwareCtx<'_>,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> CommandOutcome {
        let Some(op) = sqe.io_opcode() else {
            return CommandOutcome::fail(Status::InvalidOpcode, ctx.now);
        };
        match op {
            IoOpcode::Flush => CommandOutcome::ok(ctx.now),
            IoOpcode::Write => {
                let Some(data) = payload else {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                };
                if data.is_empty() {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                }
                if !self.nand_io {
                    // Land in the DRAM page buffer; no NAND.
                    let take = data.len().min(4 * PAGE_SIZE);
                    if ctx.dram.write(self.page_buffer, &data[..take]).is_err() {
                        return CommandOutcome::fail(Status::InternalError, ctx.now);
                    }
                    return CommandOutcome::ok(ctx.now);
                }
                // Page-at-a-time through the FTL; a sub-page tail is
                // programmed as it is, and the rest of its page reads as
                // zeros.
                let mut t = ctx.now;
                let base_lpn = sqe.slba();
                for (i, chunk) in data.chunks(PAGE_SIZE).enumerate() {
                    match ctx.ftl.write(base_lpn + i as u64, chunk, ctx.nand, t) {
                        Ok(done) => t = done,
                        Err(e) => return CommandOutcome::fail(ftl_status(&e), ctx.now),
                    }
                }
                CommandOutcome::ok(t)
            }
            IoOpcode::Read => {
                let len = sqe.data_len() as usize;
                if len == 0 {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                }
                if !self.nand_io {
                    return CommandOutcome {
                        status: Status::Success,
                        result: len as u32,
                        response: Some(vec![0; len]),
                        complete_at: ctx.now,
                    };
                }
                let mut t = ctx.now;
                let mut out = Vec::with_capacity(len);
                let base_lpn = sqe.slba();
                let pages = len.div_ceil(PAGE_SIZE);
                for i in 0..pages {
                    let take = (len - out.len()).min(PAGE_SIZE);
                    match ctx
                        .ftl
                        .read_range(base_lpn + i as u64, 0, take, ctx.nand, t, &mut out)
                    {
                        Ok(done) => t = done,
                        Err(e) => return CommandOutcome::fail(ftl_status(&e), ctx.now),
                    }
                }
                CommandOutcome {
                    status: Status::Success,
                    result: len as u32,
                    response: Some(out),
                    complete_at: t,
                }
            }
            _ => CommandOutcome::fail(Status::InvalidOpcode, ctx.now),
        }
    }
}

fn ftl_status(e: &FtlError) -> Status {
    match e {
        FtlError::LpnOutOfRange { .. } => Status::LbaOutOfRange,
        FtlError::Unmapped(_) => Status::LbaOutOfRange,
        FtlError::NoFreeBlocks => Status::CapacityExceeded,
        FtlError::Nand(_) => Status::InternalError,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nand::NandConfig;

    struct Rig {
        nand: NandArray,
        ftl: Ftl,
        dram: DeviceDram,
        fw: BlockFirmware,
    }

    fn rig(nand_io: bool) -> Rig {
        let nand = NandArray::new(NandConfig::small());
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(1 << 20);
        let fw = BlockFirmware::new(&mut dram, nand_io);
        Rig {
            nand,
            ftl,
            dram,
            fw,
        }
    }

    fn handle(r: &mut Rig, sqe: &SubmissionEntry, payload: Option<&[u8]>) -> CommandOutcome {
        r.fw.handle(
            FirmwareCtx {
                nand: &mut r.nand,
                ftl: &mut r.ftl,
                dram: &mut r.dram,
                now: Nanos::ZERO,
            },
            sqe,
            payload,
        )
    }

    #[test]
    fn write_then_read_with_nand() {
        let mut r = rig(true);
        let mut w = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        w.set_cdw(10, 5);
        w.set_data_len(100);
        let data = vec![0x42; 100];
        let out = handle(&mut r, &w, Some(&data));
        assert_eq!(out.status, Status::Success);
        assert!(out.complete_at >= Nanos::from_us(300), "NAND program time");

        let mut rd = SubmissionEntry::io(IoOpcode::Read, 2, 1);
        rd.set_cdw(10, 5);
        rd.set_data_len(100);
        let out = handle(&mut r, &rd, None);
        assert_eq!(out.status, Status::Success);
        assert_eq!(out.response.unwrap(), data);
    }

    /// DW0 of a read is the length it returned, NAND on and off.
    #[test]
    fn read_dw0_is_the_response_length() {
        for nand_io in [true, false] {
            let mut r = rig(nand_io);
            let mut w = SubmissionEntry::io(IoOpcode::Write, 1, 1);
            w.set_data_len(300);
            assert!(handle(&mut r, &w, Some(&[9; 300])).status.is_success());
            let mut rd = SubmissionEntry::io(IoOpcode::Read, 2, 1);
            rd.set_data_len(300);
            let out = handle(&mut r, &rd, None);
            assert_eq!(
                out.result as usize,
                out.response.unwrap().len(),
                "nand_io {nand_io}"
            );
        }
    }

    #[test]
    fn multi_page_write_read() {
        let mut r = rig(true);
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 17).map(|i| (i % 256) as u8).collect();
        let mut w = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        w.set_cdw(10, 10);
        w.set_data_len(data.len() as u32);
        assert_eq!(handle(&mut r, &w, Some(&data)).status, Status::Success);

        let mut rd = SubmissionEntry::io(IoOpcode::Read, 2, 1);
        rd.set_cdw(10, 10);
        rd.set_data_len(data.len() as u32);
        assert_eq!(handle(&mut r, &rd, None).response.unwrap(), data);
    }

    #[test]
    fn nand_off_write_is_instant() {
        let mut r = rig(false);
        let mut w = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        w.set_data_len(64);
        let out = handle(&mut r, &w, Some(&[1u8; 64]));
        assert_eq!(out.status, Status::Success);
        assert_eq!(out.complete_at, Nanos::ZERO, "NAND off: no program time");
        assert_eq!(r.nand.stats().programs, 0);
    }

    #[test]
    fn read_unwritten_lba_fails() {
        let mut r = rig(true);
        let mut rd = SubmissionEntry::io(IoOpcode::Read, 1, 1);
        rd.set_cdw(10, 77);
        rd.set_data_len(10);
        assert_eq!(handle(&mut r, &rd, None).status, Status::LbaOutOfRange);
    }

    #[test]
    fn write_without_payload_fails() {
        let mut r = rig(true);
        let w = SubmissionEntry::io(IoOpcode::Write, 1, 1);
        assert_eq!(handle(&mut r, &w, None).status, Status::InvalidField);
    }

    #[test]
    fn vendor_opcode_rejected_by_block_firmware() {
        let mut r = rig(true);
        let sqe = SubmissionEntry::io(IoOpcode::KvPut, 1, 1);
        assert_eq!(
            handle(&mut r, &sqe, Some(&[1])).status,
            Status::InvalidOpcode
        );
    }

    #[test]
    fn flush_succeeds() {
        let mut r = rig(true);
        let sqe = SubmissionEntry::io(IoOpcode::Flush, 1, 1);
        assert_eq!(handle(&mut r, &sqe, None).status, Status::Success);
    }
}
