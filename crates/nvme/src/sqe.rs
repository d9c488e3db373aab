//! The 64-byte submission queue entry.
//!
//! Stored as the 64-byte wire image itself, with typed accessors that read
//! and write little-endian dwords in place. Keeping the wire image primary
//! (instead of a field struct that gets serialized) means the "repurpose a
//! reserved field" trick at the heart of ByteExpress is expressed exactly the
//! way the kernel patch expresses it: a write into CDW2 of an otherwise
//! ordinary command. It also makes placing an entry in the ring a copy of
//! its bytes, with no encode step.

use crate::opcode::IoOpcode;
use bx_hostsim::PhysAddr;
use std::fmt;

/// PSDT field values (CDW0 bits 15:14): how the data pointer is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPointerKind {
    /// PRP1/PRP2.
    Prp,
    /// SGL, descriptor in DPTR.
    Sgl,
}

/// A 64-byte NVMe submission queue entry.
///
/// # Layout (dwords)
///
/// | DW    | Contents                                             |
/// |-------|------------------------------------------------------|
/// | 0     | opcode (7:0), flags (15:8, incl. PSDT), CID (31:16)  |
/// | 1     | NSID                                                 |
/// | 2–3   | reserved — **CDW2 carries the ByteExpress inline length** |
/// | 4–5   | MPTR                                                 |
/// | 6–9   | DPTR (PRP1+PRP2, or one SGL descriptor)              |
/// | 10–15 | CDW10–CDW15 (command-specific)                       |
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubmissionEntry {
    raw: [u8; 64],
}

// Wire-layout pin: one SQE is exactly one 64-byte SQ slot, in memory and on
// the wire. Anything that changes this silently breaks chunk-train geometry.
const _: () = assert!(SubmissionEntry::BYTES == 64);
const _: () = assert!(core::mem::size_of::<SubmissionEntry>() == SubmissionEntry::BYTES);

impl SubmissionEntry {
    /// Size of the wire image in bytes.
    pub const BYTES: usize = 64;

    /// An all-zero entry (opcode 0 = Flush; used as a blank slate).
    pub fn zeroed() -> Self {
        SubmissionEntry { raw: [0; 64] }
    }

    /// Creates an I/O command entry with opcode, command identifier and
    /// namespace.
    pub fn io(opcode: IoOpcode, cid: u16, nsid: u32) -> Self {
        let mut e = Self::zeroed();
        e.set_opcode_raw(opcode as u8);
        e.set_cid(cid);
        e.set_nsid(nsid);
        e
    }

    /// Dword `n` (0..16) of the image.
    fn dw(&self, n: usize) -> u32 {
        let b = &self.raw[n * 4..n * 4 + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    fn set_dw(&mut self, n: usize, v: u32) {
        self.raw[n * 4..n * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The quadword at byte `off` (dword-aligned) of the image.
    fn qw(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.raw[off..off + 8]);
        u64::from_le_bytes(b)
    }

    fn set_qw(&mut self, off: usize, v: u64) {
        self.raw[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    // --- CDW0 ---

    /// The raw opcode byte.
    pub fn opcode_raw(&self) -> u8 {
        self.raw[0]
    }

    /// Sets the raw opcode byte.
    pub fn set_opcode_raw(&mut self, op: u8) {
        self.raw[0] = op;
    }

    /// The decoded I/O opcode, if recognized.
    pub fn io_opcode(&self) -> Option<IoOpcode> {
        IoOpcode::from_u8(self.opcode_raw())
    }

    /// The command identifier (unique per queue among in-flight commands).
    pub fn cid(&self) -> u16 {
        u16::from_le_bytes([self.raw[2], self.raw[3]])
    }

    /// Sets the command identifier.
    pub fn set_cid(&mut self, cid: u16) {
        self.raw[2..4].copy_from_slice(&cid.to_le_bytes());
    }

    /// How the data pointer should be interpreted (PSDT bits).
    pub fn data_pointer_kind(&self) -> DataPointerKind {
        if self.raw[1] >> 6 == 0 {
            DataPointerKind::Prp
        } else {
            DataPointerKind::Sgl
        }
    }

    /// Selects PRP or SGL data-pointer interpretation.
    pub fn set_data_pointer_kind(&mut self, kind: DataPointerKind) {
        let bits = match kind {
            DataPointerKind::Prp => 0b00u8,
            DataPointerKind::Sgl => 0b01u8,
        };
        self.raw[1] = (self.raw[1] & !(0b11 << 6)) | (bits << 6);
    }

    // --- DW1 ---

    /// Namespace identifier.
    pub fn nsid(&self) -> u32 {
        self.dw(1)
    }

    /// Sets the namespace identifier.
    pub fn set_nsid(&mut self, nsid: u32) {
        self.set_dw(1, nsid);
    }

    // --- DW2/DW3 (reserved in ordinary NVM commands) ---

    /// Raw CDW2 — the reserved dword ByteExpress repurposes.
    pub fn cdw2(&self) -> u32 {
        self.dw(2)
    }

    /// Sets raw CDW2.
    pub fn set_cdw2(&mut self, v: u32) {
        self.set_dw(2, v);
    }

    /// Raw CDW3 (reserved; used by the reassembly extension for a payload id).
    pub(crate) fn cdw3(&self) -> u32 {
        self.dw(3)
    }

    /// Sets raw CDW3.
    pub fn set_cdw3(&mut self, v: u32) {
        self.set_dw(3, v);
    }

    // --- DPTR ---

    /// PRP entry 1 (byte address of the first data page/offset).
    pub fn prp1(&self) -> PhysAddr {
        PhysAddr(self.qw(24))
    }

    /// Sets PRP entry 1.
    pub fn set_prp1(&mut self, a: PhysAddr) {
        self.set_qw(24, a.0);
    }

    /// PRP entry 2 (second page, or PRP-list pointer when >2 pages).
    pub fn prp2(&self) -> PhysAddr {
        PhysAddr(self.qw(32))
    }

    /// Sets PRP entry 2.
    pub fn set_prp2(&mut self, a: PhysAddr) {
        self.set_qw(32, a.0);
    }

    /// The 16 DPTR bytes as an SGL descriptor image (valid when
    /// [`SubmissionEntry::data_pointer_kind`] is [`DataPointerKind::Sgl`]).
    pub fn sgl_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out.copy_from_slice(&self.raw[24..40]);
        out
    }

    /// Writes an SGL descriptor image into DPTR.
    pub fn set_sgl_bytes(&mut self, bytes: &[u8; 16]) {
        self.raw[24..40].copy_from_slice(bytes);
    }

    // --- command-specific dwords ---

    /// Command-specific dword 10..=15 (`n` must be in 10..=15).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside 10..=15.
    pub fn cdw(&self, n: usize) -> u32 {
        assert!((10..=15).contains(&n), "cdw index {n} out of range");
        self.dw(n)
    }

    /// Sets command-specific dword `n` (10..=15).
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside 10..=15.
    pub fn set_cdw(&mut self, n: usize, v: u32) {
        assert!((10..=15).contains(&n), "cdw index {n} out of range");
        self.set_dw(n, v);
    }

    /// Starting LBA for block I/O (CDW10/11).
    pub fn slba(&self) -> u64 {
        self.qw(40)
    }

    /// The data-phase transfer length in bytes.
    ///
    /// By workspace convention the length lives in the low 24 bits of CDW2,
    /// shared with the transfer-method tag in the top byte (`0x00` for
    /// DPTR-described transfers, `0xBE` for ByteExpress inline trains,
    /// `0xB5` for BandSlim). Keeping the length out of CDW10–15 leaves the
    /// command-specific dwords free for vendor commands (e.g. a 16-byte key
    /// in CDW10–13).
    pub fn data_len(&self) -> u32 {
        self.dw(2) & 0x00FF_FFFF
    }

    /// Sets the transfer length with the plain (DPTR) tag. ByteExpress and
    /// BandSlim framing overwrite CDW2 with their own tag + the same length.
    pub fn set_data_len(&mut self, len: u32) {
        assert!(len < (1 << 24), "transfer length {len} exceeds 24 bits");
        self.set_dw(2, len);
    }

    // --- wire image ---

    /// The 64-byte wire image, borrowed: what a ring write copies.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.raw
    }

    /// The wire image, mutably — for the framing codecs in this crate that
    /// place payload bytes into spare fields.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8; 64] {
        &mut self.raw
    }

    /// A copy of the 64-byte wire image.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.raw
    }

    /// An entry holding a copy of a 64-byte wire image.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        SubmissionEntry { raw: *bytes }
    }
}

impl Default for SubmissionEntry {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl fmt::Debug for SubmissionEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmissionEntry")
            .field("opcode", &format_args!("{:#04x}", self.opcode_raw()))
            .field("cid", &self.cid())
            .field("nsid", &self.nsid())
            .field("cdw2", &self.cdw2())
            .field("prp1", &self.prp1())
            .field("prp2", &self.prp2())
            .field("slba", &self.slba())
            .field("data_len", &self.data_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero() {
        assert_eq!(SubmissionEntry::zeroed().to_bytes(), [0u8; 64]);
    }

    #[test]
    fn io_constructor_sets_header() {
        let e = SubmissionEntry::io(IoOpcode::KvPut, 0xBEEF, 7);
        assert_eq!(e.opcode_raw(), 0xC1);
        assert_eq!(e.io_opcode(), Some(IoOpcode::KvPut));
        assert_eq!(e.cid(), 0xBEEF);
        assert_eq!(e.nsid(), 7);
    }

    #[test]
    fn cid_does_not_clobber_opcode() {
        let mut e = SubmissionEntry::io(IoOpcode::Write, 0, 1);
        e.set_cid(0xFFFF);
        assert_eq!(e.opcode_raw(), 0x01);
        e.set_opcode_raw(0x02);
        assert_eq!(e.cid(), 0xFFFF);
    }

    #[test]
    fn prp_fields_round_trip_64_bit() {
        let mut e = SubmissionEntry::zeroed();
        e.set_prp1(PhysAddr(0x1234_5678_9ABC_D000));
        e.set_prp2(PhysAddr(0xFFFF_FFFF_FFFF_F000));
        assert_eq!(e.prp1(), PhysAddr(0x1234_5678_9ABC_D000));
        assert_eq!(e.prp2(), PhysAddr(0xFFFF_FFFF_FFFF_F000));
    }

    #[test]
    fn wire_image_is_little_endian() {
        let mut e = SubmissionEntry::zeroed();
        e.set_opcode_raw(0x01);
        e.set_cid(0x0302);
        let b = e.to_bytes();
        assert_eq!(b[0], 0x01); // opcode is byte 0
        assert_eq!(b[2], 0x02); // CID low byte
        assert_eq!(b[3], 0x03); // CID high byte
    }

    #[test]
    fn byte_round_trip() {
        let mut e = SubmissionEntry::io(IoOpcode::CsdExec, 9, 3);
        e.set_cdw2(100);
        e.set_cdw3(0xA5A5_A5A5);
        e.set_prp1(PhysAddr(0x2000));
        e.set_cdw(11, 1 << 8);
        e.set_cdw(12, 15);
        e.set_data_len(4096);
        e.set_cdw(15, 77);
        assert_eq!(SubmissionEntry::from_bytes(&e.to_bytes()), e);
    }

    #[test]
    fn psdt_selects_sgl() {
        let mut e = SubmissionEntry::zeroed();
        assert_eq!(e.data_pointer_kind(), DataPointerKind::Prp);
        e.set_data_pointer_kind(DataPointerKind::Sgl);
        assert_eq!(e.data_pointer_kind(), DataPointerKind::Sgl);
        // Opcode untouched.
        assert_eq!(e.opcode_raw(), 0);
        e.set_data_pointer_kind(DataPointerKind::Prp);
        assert_eq!(e.data_pointer_kind(), DataPointerKind::Prp);
    }

    #[test]
    fn sgl_bytes_round_trip() {
        let mut e = SubmissionEntry::zeroed();
        let desc: [u8; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        e.set_sgl_bytes(&desc);
        assert_eq!(e.sgl_bytes(), desc);
        // Shares storage with PRP fields (same DPTR dwords).
        assert_ne!(e.prp1(), PhysAddr(0));
    }

    #[test]
    fn slba_round_trip() {
        let mut e = SubmissionEntry::zeroed();
        e.set_cdw(10, u32::MAX - 5);
        e.set_cdw(11, u32::MAX);
        assert_eq!(e.slba(), u64::MAX - 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cdw_out_of_range_panics() {
        SubmissionEntry::zeroed().cdw(9);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", SubmissionEntry::io(IoOpcode::Read, 1, 1));
        assert!(s.contains("opcode"));
    }
}
