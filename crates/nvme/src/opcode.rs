//! Command opcodes.
//!
//! Standard NVM command-set opcodes plus the vendor-specific range used by
//! the computational-storage substrates, mirroring how real KV-SSD and CSD
//! prototypes encode their operations into passthrough commands (§2.1 of the
//! paper).

use std::fmt;

/// Admin command opcodes (the subset the simulation uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AdminOpcode {
    /// Delete I/O submission queue.
    DeleteIoSq = 0x00,
    /// Create I/O submission queue.
    CreateIoSq = 0x01,
    /// Delete I/O completion queue.
    DeleteIoCq = 0x04,
    /// Create I/O completion queue.
    CreateIoCq = 0x05,
    /// Identify controller/namespace.
    Identify = 0x06,
}

/// I/O command opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IoOpcode {
    /// Flush.
    Flush = 0x00,
    /// Block write.
    Write = 0x01,
    /// Block read.
    Read = 0x02,
    /// Vendor-specific: key-value PUT (KV-SSD substrate).
    KvPut = 0xC1,
    /// Vendor-specific: key-value GET.
    KvGet = 0xC2,
    /// Vendor-specific: key-value DELETE.
    KvDelete = 0xC3,
    /// Vendor-specific: key-value iterator open/next.
    KvIter = 0xC4,
    /// Vendor-specific: bulk PUT of multiple key-value pairs in one command
    /// (the batching alternative the paper's §2.2.1 discusses).
    KvBatchPut = 0xC5,
    /// Vendor-specific: CSD SQL-pushdown task submission.
    CsdExec = 0xD0,
    /// Vendor-specific: CSD filter-result readback.
    CsdReadResult = 0xD1,
    /// Vendor-specific: CSD table-schema registration.
    CsdCreateTable = 0xD4,
    /// Vendor-specific: CSD bulk row load into a table.
    CsdLoadRows = 0xD5,
}

impl IoOpcode {
    /// Decodes an opcode byte.
    pub(crate) fn from_u8(v: u8) -> Option<IoOpcode> {
        Some(match v {
            0x00 => IoOpcode::Flush,
            0x01 => IoOpcode::Write,
            0x02 => IoOpcode::Read,
            0xC1 => IoOpcode::KvPut,
            0xC2 => IoOpcode::KvGet,
            0xC3 => IoOpcode::KvDelete,
            0xC4 => IoOpcode::KvIter,
            0xC5 => IoOpcode::KvBatchPut,
            0xD0 => IoOpcode::CsdExec,
            0xD1 => IoOpcode::CsdReadResult,
            0xD4 => IoOpcode::CsdCreateTable,
            0xD5 => IoOpcode::CsdLoadRows,
            _ => return None,
        })
    }

    /// Whether this opcode moves data from host to device.
    pub fn is_host_to_device(self) -> bool {
        matches!(
            self,
            IoOpcode::Write
                | IoOpcode::KvPut
                | IoOpcode::KvBatchPut
                | IoOpcode::CsdExec
                | IoOpcode::CsdCreateTable
                | IoOpcode::CsdLoadRows
        )
    }
}

impl fmt::Display for IoOpcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoOpcode::Flush => "flush",
            IoOpcode::Write => "write",
            IoOpcode::Read => "read",
            IoOpcode::KvPut => "kv-put",
            IoOpcode::KvGet => "kv-get",
            IoOpcode::KvDelete => "kv-delete",
            IoOpcode::KvIter => "kv-iter",
            IoOpcode::KvBatchPut => "kv-batch-put",
            IoOpcode::CsdExec => "csd-exec",
            IoOpcode::CsdReadResult => "csd-read-result",
            IoOpcode::CsdCreateTable => "csd-create-table",
            IoOpcode::CsdLoadRows => "csd-load-rows",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_opcode_round_trip() {
        for op in [
            IoOpcode::Flush,
            IoOpcode::Write,
            IoOpcode::Read,
            IoOpcode::KvPut,
            IoOpcode::KvGet,
            IoOpcode::KvDelete,
            IoOpcode::KvIter,
            IoOpcode::KvBatchPut,
            IoOpcode::CsdExec,
            IoOpcode::CsdReadResult,
            IoOpcode::CsdCreateTable,
            IoOpcode::CsdLoadRows,
        ] {
            assert_eq!(IoOpcode::from_u8(op as u8), Some(op));
        }
    }

    #[test]
    fn unknown_opcode_is_none() {
        assert_eq!(IoOpcode::from_u8(0x7F), None);
        assert_eq!(IoOpcode::from_u8(0xFF), None);
    }

    #[test]
    fn direction_classification() {
        assert!(IoOpcode::Write.is_host_to_device());
        assert!(IoOpcode::KvPut.is_host_to_device());
        assert!(IoOpcode::CsdExec.is_host_to_device());
        assert!(!IoOpcode::Read.is_host_to_device());
        assert!(!IoOpcode::KvGet.is_host_to_device());
    }
}
