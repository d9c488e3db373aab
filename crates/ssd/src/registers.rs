//! Controller BAR registers: CAP, CC, CSTS, AQA, ASQ, ACQ.
//!
//! The subset of the NVMe register map the bring-up sequence touches. The
//! driver reaches these through [`crate::Controller::mmio_write`] /
//! [`crate::Controller::mmio_read`], which charge PCIe traffic like any
//! other BAR access, so initialization costs show up in the measurements.

use bx_hostsim::PhysAddr;

/// Named controller registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Register {
    /// Controller capabilities (read-only).
    Cap,
    /// Controller configuration.
    Cc,
    /// Controller status (read-only).
    Csts,
    /// Admin queue attributes: SQ depth (11:0) and CQ depth (27:16), 0-based.
    Aqa,
    /// Admin submission queue base address.
    Asq,
    /// Admin completion queue base address.
    Acq,
}

/// CC.EN — controller enable.
pub const CC_ENABLE: u64 = 1;
/// CSTS.RDY — controller ready.
pub const CSTS_READY: u64 = 1;

/// The register file plus the capabilities the device advertises.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    /// Maximum queue entries supported (0-based in CAP.MQES).
    pub max_queue_entries: u16,
    cc: u64,
    csts: u64,
    aqa: u64,
    asq: u64,
    acq: u64,
}

impl RegisterFile {
    /// A register file advertising `max_queue_entries` per queue.
    pub(crate) fn new(max_queue_entries: u16) -> Self {
        RegisterFile {
            max_queue_entries,
            cc: 0,
            csts: 0,
            aqa: 0,
            asq: 0,
            acq: 0,
        }
    }

    /// Reads a register value.
    pub(crate) fn read(&self, reg: Register) -> u64 {
        match reg {
            // CAP: MQES in bits 15:0 (0-based), DSTRD 0, TO small.
            Register::Cap => (self.max_queue_entries as u64 - 1) | (1 << 24),
            Register::Cc => self.cc,
            Register::Csts => self.csts,
            Register::Aqa => self.aqa,
            Register::Asq => self.asq,
            Register::Acq => self.acq,
        }
    }

    /// Writes a register; read-only registers ignore writes (as hardware
    /// does). Returns whether the enable bit transitioned 0→1.
    pub(crate) fn write(&mut self, reg: Register, value: u64) -> bool {
        match reg {
            Register::Cap | Register::Csts => false,
            Register::Cc => {
                let was_enabled = self.cc & CC_ENABLE != 0;
                self.cc = value;
                let now_enabled = self.cc & CC_ENABLE != 0;
                if !now_enabled {
                    self.csts = 0; // disable clears ready
                }
                !was_enabled && now_enabled
            }
            Register::Aqa => {
                self.aqa = value;
                false
            }
            Register::Asq => {
                self.asq = value;
                false
            }
            Register::Acq => {
                self.acq = value;
                false
            }
        }
    }

    /// Marks the controller ready (set by the controller model once the
    /// admin queue is latched).
    pub(crate) fn set_ready(&mut self) {
        self.csts |= CSTS_READY;
    }

    /// A power cut: every writable register returns to its power-on value
    /// (CAP is derived from construction parameters and survives).
    pub(crate) fn power_cut(&mut self) {
        self.cc = 0;
        self.csts = 0;
        self.aqa = 0;
        self.asq = 0;
        self.acq = 0;
    }

    /// Whether CC.EN is set.
    pub(crate) fn enabled(&self) -> bool {
        self.cc & CC_ENABLE != 0
    }

    /// Whether CSTS.RDY is set.
    pub(crate) fn ready(&self) -> bool {
        self.csts & CSTS_READY != 0
    }

    /// Admin SQ depth from AQA (1-based).
    pub(crate) fn admin_sq_depth(&self) -> u16 {
        (self.aqa & 0xFFF) as u16 + 1
    }

    /// Admin CQ depth from AQA (1-based).
    pub(crate) fn admin_cq_depth(&self) -> u16 {
        ((self.aqa >> 16) & 0xFFF) as u16 + 1
    }

    /// Admin SQ base.
    pub(crate) fn admin_sq_base(&self) -> PhysAddr {
        PhysAddr(self.asq)
    }

    /// Admin CQ base.
    pub(crate) fn admin_cq_base(&self) -> PhysAddr {
        PhysAddr(self.acq)
    }

    /// Packs admin queue depths into an AQA value.
    pub fn aqa_value(sq_depth: u16, cq_depth: u16) -> u64 {
        (sq_depth as u64 - 1) | ((cq_depth as u64 - 1) << 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_reports_mqes() {
        let r = RegisterFile::new(1024);
        assert_eq!(r.read(Register::Cap) & 0xFFFF, 1023);
    }

    #[test]
    fn enable_transition_detected() {
        let mut r = RegisterFile::new(64);
        assert!(r.write(Register::Cc, CC_ENABLE));
        assert!(r.enabled());
        assert!(!r.write(Register::Cc, CC_ENABLE), "no 0->1 transition");
        assert!(!r.write(Register::Cc, 0));
        assert!(!r.enabled());
    }

    #[test]
    fn disable_clears_ready() {
        let mut r = RegisterFile::new(64);
        r.write(Register::Cc, CC_ENABLE);
        r.set_ready();
        assert!(r.ready());
        r.write(Register::Cc, 0);
        assert!(!r.ready());
    }

    #[test]
    fn read_only_registers_ignore_writes() {
        let mut r = RegisterFile::new(64);
        let cap = r.read(Register::Cap);
        r.write(Register::Cap, 0xFFFF_FFFF);
        assert_eq!(r.read(Register::Cap), cap);
        r.write(Register::Csts, 1);
        assert!(!r.ready());
    }

    #[test]
    fn aqa_round_trip() {
        let mut r = RegisterFile::new(64);
        r.write(Register::Aqa, RegisterFile::aqa_value(32, 32));
        assert_eq!(r.admin_sq_depth(), 32);
        assert_eq!(r.admin_cq_depth(), 32);
        r.write(Register::Asq, 0x1000);
        r.write(Register::Acq, 0x2000);
        assert_eq!(r.admin_sq_base(), PhysAddr(0x1000));
        assert_eq!(r.admin_cq_base(), PhysAddr(0x2000));
    }
}
