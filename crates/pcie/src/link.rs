//! The link itself: operations that generate TLPs, account traffic, and
//! return latency costs.

use crate::config::{LinkConfig, WireRate};
use crate::counters::{Direction, TrafficClass, TrafficCounters};
use crate::tlp::{segment_read_completions, segment_read_requests, segment_write, TlpStream};
use bx_hostsim::Nanos;
use bx_trace::{Dir, EventKind, TraceSink};

/// The simulated PCIe link.
///
/// Each method models one *logical* transaction (a posted write, a DMA read
/// round trip), decomposes it into TLPs per the configuration, accumulates
/// traffic counters, and returns the latency the transaction contributes.
/// Callers decide what to do with the latency (serial submit paths add it to
/// the clock; pipelined fetch engines may overlap it).
#[derive(Debug)]
pub struct PcieLink {
    cfg: LinkConfig,
    /// `cfg`'s serialization rate, derived once.
    rate: WireRate,
    counters: TrafficCounters,
    trace: TraceSink,
}

impl PcieLink {
    /// Creates a link with the given configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        PcieLink {
            rate: cfg.wire_rate(),
            cfg,
            counters: TrafficCounters::new(),
            trace: TraceSink::disabled(),
        }
    }

    /// Installs a flight-recorder sink; every TLP stream emits one event
    /// tagged with its [`TrafficClass`] label. Disabled sinks cost nothing.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Emits the TLP stream's event `after` past the current instant.
    #[inline]
    fn trace_tlp(&self, after: Nanos, class: TrafficClass, dir: Dir, stream: &TlpStream) {
        self.trace.emit_after(after, None, || EventKind::Tlp {
            class: class.label(),
            dir,
            wire_bytes: stream.wire_bytes() as u64,
            payload_bytes: stream.payload_bytes as u64,
            tlps: stream.count as u64,
        });
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// The cumulative traffic counters.
    pub fn counters(&self) -> &TrafficCounters {
        &self.counters
    }

    /// Resets traffic counters (not the configuration).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn wire_time_of(&self, stream: &TlpStream) -> Nanos {
        self.rate.time(stream.wire_bytes()) + self.cfg.per_tlp_overhead * stream.count as u64
    }

    /// A posted memory write from host to device (doorbell, MMIO register
    /// write). Returns the one-way delivery latency; posted writes do not
    /// stall the sender beyond serialization.
    pub fn host_posted_write(&mut self, class: TrafficClass, len: usize) -> Nanos {
        let stream = segment_write(len, self.cfg.max_payload_size);
        let t = self.wire_time_of(&stream) + self.cfg.propagation;
        self.counters
            .record(class, Direction::HostToDevice, &stream);
        self.trace_tlp(Nanos::ZERO, class, Dir::HostToDevice, &stream);
        t
    }

    /// A posted memory write from device to host (CQE post, MSI interrupt,
    /// device-computed results). Returns the one-way delivery latency.
    pub fn device_posted_write(&mut self, class: TrafficClass, len: usize) -> Nanos {
        let stream = segment_write(len, self.cfg.max_payload_size);
        let t = self.wire_time_of(&stream) + self.cfg.propagation;
        self.counters
            .record(class, Direction::DeviceToHost, &stream);
        self.trace_tlp(Nanos::ZERO, class, Dir::DeviceToHost, &stream);
        t
    }

    /// A device-issued DMA read of `len` bytes of host memory (SQE fetch, PRP
    /// data fetch, PRP list fetch). Returns the full round-trip latency:
    /// request propagation + host memory access + completion serialization.
    ///
    /// Requests are assumed pipelined (one request latency is paid, not one
    /// per MRRS segment), which matches how DMA engines stream large reads.
    pub fn device_read(&mut self, class: TrafficClass, len: usize) -> Nanos {
        self.device_read_n(class, len, 1, Nanos::ZERO)
    }

    /// `n` back-to-back device reads of `len` bytes each — a chunk train's
    /// slots — charged at once: the transfer is segmented once and the
    /// counters take `n×` its streams. Returns one read's round trip, as
    /// [`PcieLink::device_read`] does; the caller charges the clock.
    ///
    /// A recording trace still gets each read's two [`EventKind::Tlp`]
    /// events, the `i`-th pair stamped `i × step` past now: where a caller
    /// that advanced the clock by `step` after each read would have put them.
    pub fn device_read_n(&mut self, class: TrafficClass, len: usize, n: u64, step: Nanos) -> Nanos {
        let req = segment_read_requests(len, self.cfg.max_read_request_size);
        let cpl = segment_read_completions(len, self.cfg.max_payload_size);
        let t = self.cfg.propagation * 2
            + self.cfg.host_memory_read
            + self.wire_time_of(&req)
            + self.wire_time_of(&cpl);
        // Requests flow upstream, completions (with data) flow downstream.
        self.counters
            .record_n(class, Direction::DeviceToHost, &req, n);
        self.counters
            .record_n(class, Direction::HostToDevice, &cpl, n);
        for i in 0..n {
            self.trace_tlp(step * i, class, Dir::DeviceToHost, &req);
            self.trace_tlp(step * i, class, Dir::HostToDevice, &cpl);
        }
        t
    }

    /// A host-issued MMIO read of device BAR space (`len` ≤ 8 typical).
    /// Synchronous and expensive — the reason drivers avoid reading doorbells.
    pub fn host_mmio_read(&mut self, class: TrafficClass, len: usize) -> Nanos {
        let req = segment_read_requests(len, self.cfg.max_read_request_size);
        let cpl = segment_read_completions(len, self.cfg.max_payload_size);
        let t = self.cfg.propagation * 2
            + self.cfg.host_memory_read
            + self.wire_time_of(&req)
            + self.wire_time_of(&cpl);
        self.counters.record(class, Direction::HostToDevice, &req);
        self.counters.record(class, Direction::DeviceToHost, &cpl);
        self.trace_tlp(Nanos::ZERO, class, Dir::HostToDevice, &req);
        self.trace_tlp(Nanos::ZERO, class, Dir::DeviceToHost, &cpl);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> PcieLink {
        PcieLink::new(LinkConfig::gen2_x8())
    }

    #[test]
    fn doorbell_write_traffic() {
        let mut l = link();
        l.host_posted_write(TrafficClass::Doorbell, 4);
        assert_eq!(l.counters().total_bytes(), 4 + 24);
        assert_eq!(l.counters().host_to_device_bytes(), 28);
    }

    #[test]
    fn sqe_fetch_traffic_and_latency() {
        let mut l = link();
        let t = l.device_read(TrafficClass::SqeFetch, 64);
        // Request 24 B upstream + completion 84 B downstream.
        assert_eq!(l.counters().device_to_host_bytes(), 24);
        assert_eq!(l.counters().host_to_device_bytes(), 84);
        // 2*100 propagation + 250 mem + wire times (6+21 rounded) + 2 TLP overheads.
        assert!(
            t >= Nanos::from_ns(450) && t <= Nanos::from_ns(550),
            "t={t}"
        );
    }

    #[test]
    fn four_kib_dma_latency_matches_calibration() {
        // The PRP page fetch cost that yields the paper's ~256 B ByteExpress/PRP
        // latency crossover: about 1.6 us on Gen2 x8.
        let mut l = link();
        let t = l.device_read(TrafficClass::PrpData, 4096);
        assert!(
            t >= Nanos::from_ns(1500) && t <= Nanos::from_ns(1800),
            "4 KiB DMA latency {t} outside calibration band"
        );
    }

    #[test]
    fn traffic_scales_with_pages() {
        let mut l = link();
        l.device_read(TrafficClass::PrpData, 4096);
        let one_page = l.counters().total_bytes();
        l.reset_counters();
        l.device_read(TrafficClass::PrpData, 16384);
        let four_pages = l.counters().total_bytes();
        assert_eq!(four_pages, 4 * one_page);
    }

    #[test]
    fn amplification_for_32_byte_prp_write_exceeds_130x() {
        // Fig 1(c): a 32 B payload still moves a whole 4 KiB page.
        let mut l = link();
        l.device_read(TrafficClass::PrpData, 4096); // page DMA regardless of payload
        let amp = l.counters().total_bytes() as f64 / 32.0;
        assert!(amp > 130.0, "amplification {amp}");
    }

    #[test]
    fn gen4_is_faster_for_same_transfer() {
        let mut g2 = PcieLink::new(LinkConfig::gen2_x8());
        let mut g4 = PcieLink::new(LinkConfig::gen4_x4());
        let t2 = g2.device_read(TrafficClass::PrpData, 65536);
        let t4 = g4.device_read(TrafficClass::PrpData, 65536);
        assert!(t4 < t2);
    }

    #[test]
    fn mmio_read_is_round_trip() {
        let mut l = link();
        let t = l.host_mmio_read(TrafficClass::Mmio, 4);
        assert!(t > l.config().propagation * 2);
        assert_eq!(l.counters().total_tlps(), 2);
    }

    #[test]
    fn wire_bytes_always_exceed_payload() {
        let mut l = link();
        for len in [1usize, 63, 64, 65, 4096, 65536] {
            l.reset_counters();
            l.device_read(TrafficClass::PrpData, len);
            assert!(l.counters().total_bytes() > len as u64);
        }
    }

    /// One charge for a train equals a read per slot with the clock stepped
    /// after each: same counters, same round trip, and — traced — the same
    /// events at the same instants.
    #[test]
    fn device_read_n_equals_per_slot_reads() {
        use bx_hostsim::SimClock;
        let step = Nanos::from_ns(37);
        for n in [0u64, 1, 2, 7, 64] {
            for len in [1usize, 64, 300, 4096] {
                let (clock_a, clock_b) = (SimClock::new(), SimClock::new());
                let (trace_a, trace_b) = (
                    TraceSink::recording(clock_a.clone()),
                    TraceSink::recording(clock_b.clone()),
                );
                let (mut a, mut b) = (link(), link());
                a.set_trace(trace_a.clone());
                b.set_trace(trace_b.clone());
                clock_a.advance(Nanos::from_ns(1_000));
                clock_b.advance(Nanos::from_ns(1_000));
                let mut per_slot = None;
                for _ in 0..n {
                    per_slot = Some(a.device_read(TrafficClass::SqeFetch, len));
                    clock_a.advance(step);
                }
                let once = b.device_read_n(TrafficClass::SqeFetch, len, n, step);
                clock_b.advance(step * n);
                assert_eq!(a.counters(), b.counters(), "n {n} len {len}");
                assert_eq!(clock_a.now(), clock_b.now());
                assert_eq!(trace_a.events(), trace_b.events(), "n {n} len {len}");
                assert_eq!(trace_b.len() as u64, 2 * n);
                if let Some(t) = per_slot {
                    assert_eq!(t, once);
                }
            }
        }
    }
}
