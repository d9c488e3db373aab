//! The shared host↔device fabric: memory, link, doorbells, clock.
//!
//! The driver and the controller each hold a clone of [`SystemBus`] — one
//! driver and one controller per platform, whoever builds it (`Device`, the
//! reactor, a test rig). Clones share state, so a doorbell the driver rings
//! is visible to the controller on its next poll, and every DMA flows
//! through one set of traffic counters.
//! The simulation is single-threaded (deterministic virtual time), so shared
//! ownership is `Rc<RefCell<_>>`.
//!
//! Everything host and device both touch is one [`Platform`] behind one
//! cell, and one rule says who borrows it: **a public entry point of
//! `NvmeDriver` or `Controller` borrows the platform at its top; every
//! function below it takes `p: &mut Platform` and never borrows; a function
//! that is handed `&mut Controller` borrows around its calls into it and
//! holds no borrow across one.** So no path can nest two borrows, and that
//! is checkable from signatures. (The driver's private `admin_execute` is
//! the one function below an entry point that borrows: it brackets a
//! controller call.) What is left for the end state — entry points taking
//! `&mut Platform`, no `Rc` — is a signature change.
//!
//! The clock and the trace sink are cell-like handles already and are never
//! borrowed.

use bx_hostsim::{FaultConfig, FaultCounters, HostMemory, SimClock};
use bx_nvme::{DoorbellArray, QueueId, Status, SubmissionEntry};
use bx_pcie::{LinkConfig, PcieLink, TrafficClass, TrafficCounters};
use bx_trace::TraceSink;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A BAR-window submission for the PCIe-MMIO byte-interface path (§3.1 of
/// the paper — the 2B-SSD / ByteFS approach): the host writes the command
/// image and payload straight into a device buffer with cacheline MMIO
/// writes, bypassing the submission queue entirely.
#[derive(Debug, Clone)]
pub struct MmioSubmission {
    /// The I/O queue pair that logically owns this command. The byte
    /// interface bypasses the submission queue, but the host still issues
    /// the command *on behalf of* a queue pair (cids are allocated per
    /// queue), so the device must echo the id back on the completion for
    /// the host to route it to the right submitter.
    pub qid: u16,
    /// The command image the host wrote into the window.
    pub sqe: SubmissionEntry,
    /// The payload bytes following it.
    pub payload: Vec<u8>,
}

/// A completion the device posts into the BAR status area for the host to
/// poll (no CQE, no interrupt — part of why the MMIO path is fast, and why
/// it breaks the NVMe completion model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmioCompletion {
    /// The submitting queue pair's id, echoed from the [`MmioSubmission`].
    /// Cids are only unique *per queue*, and the status area is shared by
    /// every queue on the device — without the qid the host cannot tell
    /// whose command finished, and a poll on one queue would consume (and
    /// mis-time) completions belonging to another.
    pub qid: u16,
    /// Command identifier.
    pub cid: u16,
    /// Completion status.
    pub status: Status,
    /// Command-specific result.
    pub result: u32,
}

/// The shared BAR window state.
#[derive(Debug, Default)]
pub struct MmioWindow {
    /// Host→device submissions awaiting the device's buffer monitor.
    pub submissions: VecDeque<MmioSubmission>,
    /// Device→host completions awaiting the host's status poll.
    pub completions: VecDeque<MmioCompletion>,
}

/// Everything the host and the device both touch. One owner at a time: see
/// the module doc for who borrows it.
#[derive(Debug)]
pub struct Platform {
    /// Simulated host DRAM.
    pub mem: HostMemory,
    /// The PCIe link (traffic + timing).
    pub link: PcieLink,
    /// BAR doorbell registers.
    pub doorbells: DoorbellArray,
    /// The byte-interface BAR window (the §3.1 MMIO baseline).
    pub mmio_window: MmioWindow,
    /// The shared virtual clock ([`SystemBus::clock`]'s timeline), at hand
    /// so a link transaction can charge the latency it returns.
    pub clock: SimClock,
    /// Controller scheduling events left before the armed power cut fires
    /// ([`FaultConfig::power_cut_after_events`]); `None` when none is armed
    /// or the armed one already fired (a cut is one-shot).
    pub power_cut_after: Option<u64>,
    /// Power cuts the countdown fired.
    pub power_cuts: u64,
    /// Set by a power cut, cleared by the power cycle: the device is dark
    /// and will never again write to host memory or fetch from it before
    /// its queues are reset. The one state in which the driver's timeout
    /// reaper may hand a command's pages back.
    pub powered_off: bool,
}

impl Platform {
    /// A posted host→device write (BAR register, doorbell), charged to the
    /// clock.
    pub(crate) fn host_posted_write(&mut self, class: TrafficClass, len: usize) {
        self.clock.advance(self.link.host_posted_write(class, len));
    }

    /// Rings an SQ tail doorbell: the register update plus its posted
    /// 4-byte MMIO write.
    pub fn ring_sq_tail(&mut self, qid: QueueId, tail: u16) {
        self.doorbells.ring_sq_tail(qid, tail);
        self.host_posted_write(TrafficClass::Doorbell, 4);
    }

    /// Rings a CQ head doorbell: its posted 4-byte MMIO write. Nothing
    /// reads the register (the controller does not model CQ-full), so
    /// nothing is stored.
    pub fn ring_cq_head(&mut self) {
        self.host_posted_write(TrafficClass::Doorbell, 4);
    }

    /// Counts down one controller scheduling event toward the armed power
    /// cut; returns `true` exactly once, on the event the cut lands.
    pub(crate) fn power_cut_tick(&mut self) -> bool {
        match self.power_cut_after.as_mut() {
            None => false,
            Some(0) => {
                self.power_cut_after = None;
                self.power_cuts += 1;
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
        }
    }
}

/// Shared handles to the simulated platform.
#[derive(Debug, Clone)]
pub struct SystemBus {
    platform: Rc<RefCell<Platform>>,
    /// The shared virtual clock.
    pub clock: SimClock,
    /// The flight-recorder sink (disabled by default; see
    /// [`SystemBus::enable_trace`]). Clones share the event buffer.
    pub trace: TraceSink,
}

impl SystemBus {
    /// Creates a platform with `mem_capacity` bytes of host memory,
    /// `queue_pairs` doorbell pairs, and the given link configuration.
    pub fn new(link: LinkConfig, mem_capacity: usize, queue_pairs: usize) -> Self {
        let clock = SimClock::new();
        SystemBus {
            platform: Rc::new(RefCell::new(Platform {
                mem: HostMemory::with_capacity(mem_capacity),
                link: PcieLink::new(link),
                doorbells: DoorbellArray::new(queue_pairs),
                mmio_window: MmioWindow::default(),
                clock: clock.clone(),
                power_cut_after: None,
                power_cuts: 0,
                powered_off: false,
            })),
            clock,
            trace: TraceSink::disabled(),
        }
    }

    /// A handle to the platform cell, for an entry point to borrow at its
    /// top (module doc) and for tests to inspect memory and doorbells.
    pub fn platform(&self) -> Rc<RefCell<Platform>> {
        Rc::clone(&self.platform)
    }

    /// Turns on the flight recorder for every component built from this bus,
    /// stamping events with the shared clock. Must be called **before** the
    /// driver/controller are constructed (they copy the sink handle); the
    /// [`PcieLink`] hook is installed here. Returns the sink for reading
    /// events back.
    pub fn enable_trace(&mut self) -> TraceSink {
        let sink = TraceSink::recording(self.clock.clone());
        self.trace = sink.clone();
        self.platform.borrow_mut().link.set_trace(sink.clone());
        sink
    }

    /// Arms (or with [`FaultConfig::disabled`], disarms) the power-cut
    /// countdown.
    pub fn install_faults(&self, cfg: FaultConfig) {
        self.platform.borrow_mut().power_cut_after = cfg.power_cut_after_events;
    }

    /// How many power cuts the countdown has fired.
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            power_cuts: self.platform.borrow().power_cuts,
        }
    }

    /// A snapshot of the link's traffic counters.
    pub fn traffic(&self) -> TrafficCounters {
        self.platform.borrow().link.counters().clone()
    }

    /// Resets traffic counters and the clock (for back-to-back benchmark
    /// configurations on one platform).
    pub fn reset_measurements(&self) {
        self.platform.borrow_mut().link.reset_counters();
        self.clock.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_hostsim::Nanos;

    #[test]
    fn clones_share_state() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 1 << 20, 4);
        let view = bus.clone();
        bus.platform()
            .borrow_mut()
            .link
            .host_posted_write(TrafficClass::Doorbell, 4);
        assert_eq!(view.traffic().total_bytes(), 28);
        bus.clock.advance(Nanos::from_ns(10));
        assert_eq!(view.clock.now(), Nanos::from_ns(10));
    }

    #[test]
    fn power_cut_fires_exactly_once_at_the_scheduled_event() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 1 << 20, 4);
        bus.install_faults(FaultConfig {
            power_cut_after_events: Some(3),
        });
        let platform = bus.platform();
        let p = &mut *platform.borrow_mut();
        assert_eq!(
            (0..10).map(|_| p.power_cut_tick()).collect::<Vec<_>>(),
            [false, false, false, true, false, false, false, false, false, false],
        );
        assert_eq!(p.power_cuts, 1);
    }

    #[test]
    fn power_cut_at_zero_fires_on_first_event() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 1 << 20, 4);
        bus.install_faults(FaultConfig {
            power_cut_after_events: Some(0),
        });
        assert!(bus.platform().borrow_mut().power_cut_tick());
        assert!(!bus.platform().borrow_mut().power_cut_tick());
        assert_eq!(bus.fault_counters().power_cuts, 1);
        bus.install_faults(FaultConfig::disabled());
        assert!(!bus.platform().borrow_mut().power_cut_tick());
    }

    #[test]
    fn reset_measurements_clears_both() {
        let bus = SystemBus::new(LinkConfig::gen2_x8(), 1 << 20, 4);
        bus.platform()
            .borrow_mut()
            .host_posted_write(TrafficClass::Doorbell, 4);
        bus.clock.advance(Nanos::from_ns(100));
        bus.reset_measurements();
        assert_eq!(bus.traffic().total_bytes(), 0);
        assert_eq!(bus.clock.now(), Nanos::ZERO);
    }
}
