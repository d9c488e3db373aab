//! Completion status codes.

use std::fmt;

/// NVMe completion status (generic command set plus the vendor codes the
/// computational-storage substrates return).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Status {
    /// Successful completion.
    #[default]
    Success,
    /// Invalid command opcode.
    InvalidOpcode,
    /// Invalid field in command.
    InvalidField,
    /// Data transfer error.
    DataTransferError,
    /// Internal device error.
    InternalError,
    /// Command aborted (host-requested or driver-timeout synthetic
    /// completion).
    CommandAborted,
    /// LBA out of range.
    LbaOutOfRange,
    /// Capacity exceeded.
    CapacityExceeded,
    /// Vendor: key does not exist (KV-SSD GET/DELETE).
    KvKeyNotFound,
    /// Vendor: key or value exceeds device limits.
    KvInvalidSize,
    /// Vendor: CSD task failed to parse or reference a known table.
    CsdBadTask,
    /// A wire encoding this driver build does not recognize. The raw code is
    /// preserved so logs can still show it instead of collapsing everything
    /// into [`Status::InternalError`].
    Unknown(u16),
}

impl Status {
    /// Whether the command succeeded.
    pub fn is_success(self) -> bool {
        self == Status::Success
    }

    /// Encodes into the CQE status field layout: status code in bits 7:0,
    /// status code type in bits 10:8 (0 = generic, 7 = vendor).
    pub fn to_wire(self) -> u16 {
        match self {
            Status::Success => 0x00,
            Status::InvalidOpcode => 0x01,
            Status::InvalidField => 0x02,
            Status::DataTransferError => 0x04,
            Status::InternalError => 0x06,
            Status::CommandAborted => 0x07,
            Status::LbaOutOfRange => 0x80,
            Status::CapacityExceeded => 0x81,
            Status::KvKeyNotFound => (7 << 8) | 0x10,
            Status::KvInvalidSize => (7 << 8) | 0x11,
            Status::CsdBadTask => (7 << 8) | 0x20,
            Status::Unknown(w) => w,
        }
    }

    /// Decodes from the CQE status field. Codes without a named variant
    /// decode to [`Status::Unknown`] with the raw encoding preserved, so
    /// `to_wire(from_wire(w)) == w` for every `w`.
    pub fn from_wire(w: u16) -> Status {
        match w {
            0x00 => Status::Success,
            0x01 => Status::InvalidOpcode,
            0x02 => Status::InvalidField,
            0x04 => Status::DataTransferError,
            0x06 => Status::InternalError,
            0x07 => Status::CommandAborted,
            0x80 => Status::LbaOutOfRange,
            0x81 => Status::CapacityExceeded,
            w if w == (7 << 8) | 0x10 => Status::KvKeyNotFound,
            w if w == (7 << 8) | 0x11 => Status::KvInvalidSize,
            w if w == (7 << 8) | 0x20 => Status::CsdBadTask,
            _ => Status::Unknown(w),
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Success => f.write_str("success"),
            Status::InvalidOpcode => f.write_str("invalid opcode"),
            Status::InvalidField => f.write_str("invalid field"),
            Status::DataTransferError => f.write_str("data transfer error"),
            Status::InternalError => f.write_str("internal error"),
            Status::CommandAborted => f.write_str("command aborted"),
            Status::LbaOutOfRange => f.write_str("lba out of range"),
            Status::CapacityExceeded => f.write_str("capacity exceeded"),
            Status::KvKeyNotFound => f.write_str("key not found"),
            Status::KvInvalidSize => f.write_str("invalid key/value size"),
            Status::CsdBadTask => f.write_str("bad csd task"),
            Status::Unknown(w) => write!(f, "unknown status 0x{w:04X}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        for s in [
            Status::Success,
            Status::InvalidOpcode,
            Status::InvalidField,
            Status::DataTransferError,
            Status::InternalError,
            Status::CommandAborted,
            Status::LbaOutOfRange,
            Status::CapacityExceeded,
            Status::KvKeyNotFound,
            Status::KvInvalidSize,
            Status::CsdBadTask,
        ] {
            assert_eq!(Status::from_wire(s.to_wire()), s);
        }
    }

    #[test]
    fn unknown_wire_preserves_raw_code() {
        assert_eq!(Status::from_wire(0x7777), Status::Unknown(0x7777));
        assert_eq!(Status::from_wire(0x7777).to_wire(), 0x7777);
    }

    #[test]
    fn success_predicate() {
        assert!(Status::Success.is_success());
        assert!(!Status::KvKeyNotFound.is_success());
    }

    #[test]
    fn vendor_codes_use_vendor_type() {
        assert_eq!(Status::KvKeyNotFound.to_wire() >> 8, 7);
        assert_eq!(Status::CsdBadTask.to_wire() >> 8, 7);
        assert_eq!(Status::Success.to_wire() >> 8, 0);
    }
}
