//! The NVMe-passthrough command surface.
//!
//! Computational-storage stacks (KV-SSDs, CSDs) talk to their devices by
//! encoding application operations into custom NVMe commands and handing
//! them to the driver through the passthrough interface, bypassing the block
//! layer (paper §2.1, Figure 2). [`PassthruCmd`] mirrors the relevant fields
//! of Linux's `nvme_passthru_cmd`: the user supplies an opcode, the
//! command-specific dwords, and a data buffer; the *driver* chooses how the
//! data moves (PRP, SGL, BandSlim fragments, or inline ByteExpress chunks) —
//! which is exactly the property that lets ByteExpress slot in "while
//! preserving full compatibility with existing APIs".

use crate::opcode::IoOpcode;

/// Direction of the passthrough data buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataDirection {
    /// No data transfer.
    #[default]
    None,
    /// Host buffer is written to the device.
    ToDevice,
    /// Device fills the host buffer.
    FromDevice,
}

/// A user-level passthrough command, before the driver turns it into a
/// [`crate::SubmissionEntry`] plus a data-transfer plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PassthruCmd {
    /// I/O opcode (typically vendor-specific).
    pub opcode: u8,
    /// Namespace id.
    pub nsid: u32,
    /// Command-specific dwords 10..=15.
    pub cdw10_15: [u32; 6],
    /// The data payload (to-device) or expected length (from-device).
    pub data: Vec<u8>,
    /// Expected response length for from-device transfers.
    pub response_len: usize,
    /// Buffer direction.
    pub direction: DataDirection,
}

impl PassthruCmd {
    /// A command carrying `data` to the device.
    pub fn to_device(opcode: IoOpcode, nsid: u32, data: Vec<u8>) -> Self {
        PassthruCmd {
            opcode: opcode as u8,
            nsid,
            data,
            direction: DataDirection::ToDevice,
            ..Default::default()
        }
    }

    /// A command expecting up to `response_len` bytes back from the device.
    /// The device reports in CQE DW0 how many it returned, and the driver
    /// hands back that many.
    pub fn from_device(opcode: IoOpcode, nsid: u32, response_len: usize) -> Self {
        PassthruCmd {
            opcode: opcode as u8,
            nsid,
            response_len,
            direction: DataDirection::FromDevice,
            ..Default::default()
        }
    }

    /// A command with no data phase.
    pub fn no_data(opcode: IoOpcode, nsid: u32) -> Self {
        PassthruCmd {
            opcode: opcode as u8,
            nsid,
            direction: DataDirection::None,
            ..Default::default()
        }
    }

    /// Replaces the payload with a copy of `data`, keeping the buffer: a
    /// caller that issues one command after another allocates it once.
    pub fn set_data(&mut self, data: &[u8]) {
        self.data.clear();
        self.data.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_device_carries_payload() {
        let c = PassthruCmd::to_device(IoOpcode::KvPut, 1, vec![1, 2, 3]);
        assert_eq!(c.opcode, 0xC1);
        assert_eq!(c.data.len(), 3);
        assert_eq!(c.direction, DataDirection::ToDevice);
    }

    #[test]
    fn set_data_replaces_the_payload_in_place() {
        let mut c = PassthruCmd::to_device(IoOpcode::KvPut, 1, vec![1; 64]);
        let buffer = c.data.as_ptr();
        c.set_data(&[2, 3]);
        assert_eq!(c.data, [2, 3]);
        assert_eq!(c.data.as_ptr(), buffer);
    }

    #[test]
    fn from_device_has_zero_data_len() {
        let c = PassthruCmd::from_device(IoOpcode::KvGet, 1, 4096);
        assert_eq!(c.data.len(), 0);
        assert_eq!(c.response_len, 4096);
    }
}
