//! Power, device side: the power cut, what it takes with it, and the power
//! cycle that restores the device.

use crate::bus::Platform;
use crate::controller::Controller;
use crate::ftl::RecoveryReport;
use bx_trace::EventKind;

impl Controller {
    /// Whether a power cut has fired and [`Controller::power_cycle`] has not
    /// yet restored the device.
    pub fn is_powered_off(&self) -> bool {
        self.bus.platform().borrow().powered_off
    }

    /// Ticks the platform's power-cut countdown at one processing event;
    /// freezes the device if it fires. Returns whether the device is (now)
    /// dark.
    pub(crate) fn power_tick(&mut self, p: &mut Platform) -> bool {
        if !p.powered_off && p.power_cut_tick() {
            self.power_fail(p);
        }
        p.powered_off
    }

    /// Cuts power immediately, regardless of the armed countdown (harness
    /// hook for crash-schedule sweeps that pick the cut point externally).
    /// No-op if already dark.
    pub fn force_power_cut(&mut self) {
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        if !p.powered_off {
            self.power_fail(p);
        }
    }

    /// The power cut itself: durable state (programmed NAND pages, journal
    /// records already on media) survives; everything volatile — SQ/CQ
    /// rings, doorbells, BAR registers, device DRAM, reassembly buffers,
    /// in-flight NAND programs and completions — is lost at this instant.
    pub(crate) fn power_fail(&mut self, p: &mut Platform) {
        let at = self.bus.clock.now();
        let torn_pages = self.nand.power_cut(at) as u32;
        self.ftl.power_fail(at);
        self.dram.wipe();
        let dropped_trains = self.reassembly.power_cut() as u32;
        self.drop_queues();
        self.reset_bar(p);
        self.bus.trace.emit(None, || EventKind::PowerCut {
            torn_pages,
            dropped_trains,
        });
        p.powered_off = true;
    }

    /// Restores power after a cut: rebuilds the FTL from NAND and the
    /// mapping journal ([`crate::Ftl::recover`]), lets firmware re-derive its
    /// volatile state, and clears the dark flag. The *host* side (admin
    /// queue, I/O queues, identify) is gone — the driver must re-run its
    /// bring-up sequence afterwards, exactly as after a real power cycle.
    ///
    /// Cuts power first if the device was still live (a deliberate hard
    /// cycle).
    pub fn power_cycle(&mut self) -> RecoveryReport {
        self.force_power_cut();
        let platform = self.bus.platform();
        let p = &mut *platform.borrow_mut();
        // Power-on reset of BAR space. MMIO writes aimed at a dark device go
        // nowhere on real hardware, but the simulated doorbell array and MMIO
        // window live on the bus and still record writes from a host
        // submitting to the dead controller — without this reset those stale
        // tails would make bring-up chase phantom SQ entries around the ring.
        self.reset_bar(p);
        let report = self.ftl.recover(&self.nand);
        self.with_firmware(|firmware, ctx| firmware.on_power_cycle(ctx));
        p.powered_off = false;
        report
    }

    /// BAR space at its power-on values: doorbells, the byte-interface
    /// window, the register file.
    fn reset_bar(&mut self, p: &mut Platform) {
        p.doorbells.power_cut();
        p.mmio_window.submissions.clear();
        p.mmio_window.completions.clear();
        self.regs.power_cut();
    }
}
