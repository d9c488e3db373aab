//! The Identify Controller data structure.
//!
//! A compact, versioned rendition of the 4 KB Identify page: enough fields
//! for the driver to negotiate queue limits and transfer capabilities —
//! including the vendor-specific capability bits that advertise ByteExpress
//! support, mirroring how a real deployment would gate the driver-side
//! feature (the paper's mechanism requires both ends to agree).

use std::fmt;

/// Vendor capability flags (byte 3072 of the identify page, vendor region):
/// bit 0 and bit 1; the rest of the byte is reserved, written as zero and
/// ignored on decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VendorCaps {
    /// Device fetches ByteExpress inline chunk trains (queue-local).
    pub byteexpress: bool,
    /// Device supports the identifier-based out-of-order reassembly
    /// extension (§3.3.2).
    pub reassembly: bool,
}

impl VendorCaps {
    fn to_byte(self) -> u8 {
        (self.byteexpress as u8) | (self.reassembly as u8) << 1
    }

    fn from_byte(b: u8) -> Self {
        VendorCaps {
            byteexpress: b & 1 != 0,
            reassembly: b & 2 != 0,
        }
    }
}

/// Size of the identify page.
pub const IDENTIFY_BYTES: usize = 4096;

/// Identify Controller data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifyController {
    /// PCI vendor id.
    pub vid: u16,
    /// Serial number (ASCII, ≤20 bytes).
    pub serial: String,
    /// Model number (ASCII, ≤40 bytes).
    pub model: String,
    /// Firmware revision (ASCII, ≤8 bytes).
    pub firmware: String,
    /// Maximum data transfer size as a power of two of the page size
    /// (0 = unlimited).
    pub mdts: u8,
    /// Submission queue entry size (log2; 6 = 64 bytes).
    pub sqes: u8,
    /// Completion queue entry size (log2; 4 = 16 bytes).
    pub cqes: u8,
    /// Number of namespaces.
    pub nn: u32,
    /// SGL support (bit 0 of SGLS).
    pub sgl_supported: bool,
    /// Vendor capability flags.
    pub vendor: VendorCaps,
}

impl Default for IdentifyController {
    fn default() -> Self {
        IdentifyController {
            vid: 0xB1E,
            serial: "BX-0001".to_string(),
            model: "ByteExpress Simulated OpenSSD".to_string(),
            firmware: "bx1.0".to_string(),
            mdts: 5, // 2^5 pages = 128 KB
            sqes: 6,
            cqes: 4,
            nn: 1,
            sgl_supported: true,
            vendor: VendorCaps {
                byteexpress: true,
                reassembly: true,
            },
        }
    }
}

impl IdentifyController {
    /// Encodes into the 4 KB identify page layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut page = vec![0u8; IDENTIFY_BYTES];
        page[0..2].copy_from_slice(&self.vid.to_le_bytes());
        write_ascii(&mut page[4..24], &self.serial);
        write_ascii(&mut page[24..64], &self.model);
        write_ascii(&mut page[64..72], &self.firmware);
        page[77] = self.mdts;
        page[512] = self.sqes;
        page[513] = self.cqes;
        page[516..520].copy_from_slice(&self.nn.to_le_bytes());
        page[536] = self.sgl_supported as u8;
        page[3072] = self.vendor.to_byte();
        page
    }

    /// Decodes from an identify page.
    ///
    /// Returns `None` if the buffer is too small or the ASCII fields are
    /// malformed.
    pub fn decode(page: &[u8]) -> Option<Self> {
        if page.len() < IDENTIFY_BYTES {
            return None;
        }
        Some(IdentifyController {
            vid: u16::from_le_bytes([page[0], page[1]]),
            serial: read_ascii(&page[4..24])?,
            model: read_ascii(&page[24..64])?,
            firmware: read_ascii(&page[64..72])?,
            mdts: page[77],
            sqes: page[512],
            cqes: page[513],
            nn: u32::from_le_bytes([page[516], page[517], page[518], page[519]]),
            sgl_supported: page[536] & 1 != 0,
            vendor: VendorCaps::from_byte(page[3072]),
        })
    }
}

impl fmt::Display for IdentifyController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (fw {}, serial {}) mdts=2^{} pages, sgl={}, bx={}, reasm={}",
            self.model.trim(),
            self.firmware.trim(),
            self.serial.trim(),
            self.mdts,
            self.sgl_supported,
            self.vendor.byteexpress,
            self.vendor.reassembly
        )
    }
}

fn write_ascii(dst: &mut [u8], s: &str) {
    // NVMe ASCII fields are space-padded.
    dst.fill(b' ');
    let bytes = s.as_bytes();
    let take = bytes.len().min(dst.len());
    dst[..take].copy_from_slice(&bytes[..take]);
}

fn read_ascii(src: &[u8]) -> Option<String> {
    let s = std::str::from_utf8(src).ok()?;
    Some(s.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let id = IdentifyController::default();
        let page = id.encode();
        assert_eq!(page.len(), IDENTIFY_BYTES);
        assert_eq!(IdentifyController::decode(&page), Some(id));
    }

    #[test]
    fn vendor_caps_bits() {
        let caps = VendorCaps {
            byteexpress: true,
            reassembly: false,
        };
        assert_eq!(caps.to_byte(), 0b01);
        assert_eq!(VendorCaps::from_byte(caps.to_byte()), caps);
        // Reserved bits are tolerated, not decoded.
        assert_eq!(VendorCaps::from_byte(0b1111_1101), caps);
    }

    #[test]
    fn ascii_fields_space_padded() {
        let page = IdentifyController::default().encode();
        assert_eq!(&page[4..11], b"BX-0001");
        assert_eq!(page[11], b' ');
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(IdentifyController::decode(&[0u8; 100]), None);
    }

    #[test]
    fn long_strings_truncate() {
        let id = IdentifyController {
            serial: "X".repeat(100),
            ..Default::default()
        };
        let decoded = IdentifyController::decode(&id.encode()).unwrap();
        assert_eq!(decoded.serial.len(), 20);
    }

    #[test]
    fn display_mentions_model() {
        let s = IdentifyController::default().to_string();
        assert!(s.contains("ByteExpress Simulated OpenSSD"));
    }
}
