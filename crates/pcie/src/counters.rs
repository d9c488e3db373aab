//! Traffic counters: TLP wire bytes (header, framing and payload) per
//! direction, and wire bytes, payload bytes and TLP counts per
//! [`TrafficClass`]. They count every TLP the link model carries, doorbells
//! included. Which meter the paper's PCM numbers correspond to is ROADMAP
//! item 18.

use crate::tlp::TlpStream;
use serde::Serialize;
use std::fmt;

/// Why a TLP was generated — lets benchmarks break aggregate traffic down the
/// way the paper's prose does ("doorbell ringing, tail pointer updates,
/// completion signaling" vs. actual data movement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum TrafficClass {
    /// SQ tail doorbell writes (host → device BAR).
    Doorbell,
    /// 64-byte SQ entry fetches (commands *and* inline ByteExpress chunks).
    SqeFetch,
    /// PRP list fetches (the extra DMA when a transfer spans >2 pages).
    PrpList,
    /// Page-granular PRP data transfers.
    PrpData,
    /// SGL descriptor fetches.
    SglDescriptor,
    /// Fine-grained SGL data transfers.
    SglData,
    /// Completion queue entry posts (device → host).
    Cqe,
    /// MSI/MSI-X interrupt writes (device → host).
    Interrupt,
    /// MMIO register reads/writes other than doorbells (admin, BAR setup).
    Mmio,
    /// Device-to-host data (e.g. KV GET results, CSD filter output).
    DeviceToHostData,
}

impl TrafficClass {
    /// All classes, in display order.
    pub(crate) const ALL: [TrafficClass; 10] = [
        TrafficClass::Doorbell,
        TrafficClass::SqeFetch,
        TrafficClass::PrpList,
        TrafficClass::PrpData,
        TrafficClass::SglDescriptor,
        TrafficClass::SglData,
        TrafficClass::Cqe,
        TrafficClass::Interrupt,
        TrafficClass::Mmio,
        TrafficClass::DeviceToHostData,
    ];

    /// Stable short label (also the `Display` form). `&'static` so layers
    /// below this crate (e.g. the trace recorder) can carry it without a
    /// type dependency.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Doorbell => "doorbell",
            TrafficClass::SqeFetch => "sqe-fetch",
            TrafficClass::PrpList => "prp-list",
            TrafficClass::PrpData => "prp-data",
            TrafficClass::SglDescriptor => "sgl-desc",
            TrafficClass::SglData => "sgl-data",
            TrafficClass::Cqe => "cqe",
            TrafficClass::Interrupt => "interrupt",
            TrafficClass::Mmio => "mmio",
            TrafficClass::DeviceToHostData => "dev-to-host-data",
        }
    }

    fn index(self) -> usize {
        match self {
            TrafficClass::Doorbell => 0,
            TrafficClass::SqeFetch => 1,
            TrafficClass::PrpList => 2,
            TrafficClass::PrpData => 3,
            TrafficClass::SglDescriptor => 4,
            TrafficClass::SglData => 5,
            TrafficClass::Cqe => 6,
            TrafficClass::Interrupt => 7,
            TrafficClass::Mmio => 8,
            TrafficClass::DeviceToHostData => 9,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Direction of a TLP stream relative to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Direction {
    /// Host (root complex) to device (downstream).
    HostToDevice,
    /// Device to host (upstream).
    DeviceToHost,
}

/// Byte totals for one traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ClassBytes {
    /// Wire bytes (payload + TLP overhead).
    pub wire_bytes: u64,
    /// Payload bytes only.
    pub payload_bytes: u64,
    /// TLP count.
    pub tlps: u64,
}

/// Cumulative traffic counters, per direction and per class.
///
/// This is the source of truth every figure's "PCIe traffic" series reads.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TrafficCounters {
    host_to_device_wire: u64,
    device_to_host_wire: u64,
    per_class: [ClassBytes; 10],
}

impl TrafficCounters {
    /// A zeroed counter set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a TLP stream.
    pub(crate) fn record(&mut self, class: TrafficClass, direction: Direction, stream: &TlpStream) {
        self.record_n(class, direction, stream, 1);
    }

    /// Records `n` identical TLP streams at once: the counters end where
    /// `n` calls to [`TrafficCounters::record`] would leave them.
    pub(crate) fn record_n(
        &mut self,
        class: TrafficClass,
        direction: Direction,
        stream: &TlpStream,
        n: u64,
    ) {
        let wire = stream.wire_bytes() as u64 * n;
        match direction {
            Direction::HostToDevice => self.host_to_device_wire += wire,
            Direction::DeviceToHost => self.device_to_host_wire += wire,
        }
        let c = &mut self.per_class[class.index()];
        c.wire_bytes += wire;
        c.payload_bytes += stream.payload_bytes as u64 * n;
        c.tlps += stream.count as u64 * n;
    }

    /// Total wire bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.host_to_device_wire + self.device_to_host_wire
    }

    /// Wire bytes flowing host → device.
    pub fn host_to_device_bytes(&self) -> u64 {
        self.host_to_device_wire
    }

    /// Wire bytes flowing device → host.
    pub fn device_to_host_bytes(&self) -> u64 {
        self.device_to_host_wire
    }

    /// Byte totals for one class.
    pub fn class(&self, class: TrafficClass) -> ClassBytes {
        self.per_class[class.index()]
    }

    /// Sum of payload bytes across all classes.
    pub fn total_payload_bytes(&self) -> u64 {
        self.per_class.iter().map(|c| c.payload_bytes).sum()
    }

    /// Total TLP count.
    pub fn total_tlps(&self) -> u64 {
        self.per_class.iter().map(|c| c.tlps).sum()
    }

    /// Number of doorbell MMIO writes (each SQ tail or CQ head update is one
    /// posted TLP). `batch_and_wrap.rs` asserts this drops while
    /// [`TrafficCounters::non_doorbell_wire_bytes`] stays byte-identical.
    pub fn doorbell_tlps(&self) -> u64 {
        self.class(TrafficClass::Doorbell).tlps
    }

    /// Wire bytes in every class *except* doorbells — the command, payload,
    /// and completion traffic that doorbell coalescing must not perturb.
    pub fn non_doorbell_wire_bytes(&self) -> u64 {
        self.total_bytes() - self.class(TrafficClass::Doorbell).wire_bytes
    }

    /// Zeroes all counters.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }

    /// Difference `self - earlier`, for interval measurements.
    ///
    /// Each count saturates at zero: if `earlier` is not actually an earlier
    /// snapshot of the same counters (e.g. the counters were `reset()`
    /// between the two reads), the mismatched components clamp to zero
    /// instead of wrapping or panicking — interval math must never take a
    /// measurement run down.
    pub fn since(&self, earlier: &TrafficCounters) -> TrafficCounters {
        let mut out = self.clone();
        out.host_to_device_wire = out
            .host_to_device_wire
            .saturating_sub(earlier.host_to_device_wire);
        out.device_to_host_wire = out
            .device_to_host_wire
            .saturating_sub(earlier.device_to_host_wire);
        for (o, e) in out.per_class.iter_mut().zip(earlier.per_class.iter()) {
            o.wire_bytes = o.wire_bytes.saturating_sub(e.wire_bytes);
            o.payload_bytes = o.payload_bytes.saturating_sub(e.payload_bytes);
            o.tlps = o.tlps.saturating_sub(e.tlps);
        }
        out
    }
}

impl fmt::Display for TrafficCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pcie traffic: total={} B (h2d={} B, d2h={} B, {} TLPs)",
            self.total_bytes(),
            self.host_to_device_bytes(),
            self.device_to_host_bytes(),
            self.total_tlps()
        )?;
        for class in TrafficClass::ALL {
            let c = self.class(class);
            if c.tlps > 0 {
                writeln!(
                    f,
                    "  {class:<16} wire={:>12} payload={:>12} tlps={:>9}",
                    c.wire_bytes, c.payload_bytes, c.tlps
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlp::{segment_read_completions, segment_write};

    #[test]
    fn record_accumulates_per_direction() {
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::Doorbell,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        c.record(
            TrafficClass::Cqe,
            Direction::DeviceToHost,
            &segment_write(16, 256),
        );
        assert_eq!(c.host_to_device_bytes(), 4 + 24);
        assert_eq!(c.device_to_host_bytes(), 16 + 24);
        assert_eq!(c.total_bytes(), 68);
    }

    #[test]
    fn class_breakdown() {
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::PrpData,
            Direction::HostToDevice,
            &segment_read_completions(4096, 256),
        );
        let class = c.class(TrafficClass::PrpData);
        assert_eq!(class.payload_bytes, 4096);
        assert_eq!(class.tlps, 16);
        assert_eq!(class.wire_bytes, 4096 + 16 * 20);
        assert_eq!(c.class(TrafficClass::Cqe), ClassBytes::default());
    }

    #[test]
    fn since_computes_interval() {
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::Doorbell,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        let snap = c.clone();
        c.record(
            TrafficClass::Doorbell,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        let delta = c.since(&snap);
        assert_eq!(delta.total_bytes(), 28);
        assert_eq!(delta.class(TrafficClass::Doorbell).tlps, 1);
    }

    /// A "later" snapshot smaller than the baseline (counters reset mid
    /// interval) must saturate to zero, never wrap or panic.
    #[test]
    fn since_saturates_on_underflow() {
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::Doorbell,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        c.record(
            TrafficClass::Cqe,
            Direction::DeviceToHost,
            &segment_write(16, 256),
        );
        let baseline = c.clone();
        c.reset();
        c.record(
            TrafficClass::Mmio,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );

        let delta = c.since(&baseline);
        // Components smaller than the baseline clamp to zero...
        assert_eq!(delta.class(TrafficClass::Doorbell), ClassBytes::default());
        assert_eq!(delta.class(TrafficClass::Cqe), ClassBytes::default());
        assert_eq!(delta.device_to_host_bytes(), 0);
        // ...while genuinely new traffic still shows (h2d shrank overall, so
        // the direction total clamps, but the fresh class survives).
        assert_eq!(delta.class(TrafficClass::Mmio).tlps, 1);
        assert!(delta.total_bytes() < baseline.total_bytes());
    }

    #[test]
    fn accounting_helpers_partition_traffic() {
        let mut c = TrafficCounters::new();
        // Two doorbells, one SQE fetch, one CQE, one interrupt, one admin MMIO.
        c.record(
            TrafficClass::Doorbell,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        c.record(
            TrafficClass::Doorbell,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        c.record(
            TrafficClass::SqeFetch,
            Direction::DeviceToHost,
            &segment_read_completions(64, 256),
        );
        c.record(
            TrafficClass::Cqe,
            Direction::DeviceToHost,
            &segment_write(16, 256),
        );
        c.record(
            TrafficClass::Interrupt,
            Direction::DeviceToHost,
            &segment_write(4, 256),
        );
        c.record(
            TrafficClass::Mmio,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );

        assert_eq!(c.doorbell_tlps(), 2);
        // non-doorbell + doorbell == total, always.
        assert_eq!(
            c.non_doorbell_wire_bytes() + c.class(TrafficClass::Doorbell).wire_bytes,
            c.total_bytes()
        );
    }

    #[test]
    fn record_n_equals_n_records() {
        use crate::tlp::segment_read_requests;
        for len in [0usize, 1, 4, 63, 64, 65, 256, 257, 4096, 8191] {
            for (class, direction, stream) in [
                (
                    TrafficClass::SqeFetch,
                    Direction::DeviceToHost,
                    segment_read_requests(len, 512),
                ),
                (
                    TrafficClass::SqeFetch,
                    Direction::HostToDevice,
                    segment_read_completions(len, 256),
                ),
                (
                    TrafficClass::Doorbell,
                    Direction::HostToDevice,
                    segment_write(len, 128),
                ),
            ] {
                for n in 0..=40u64 {
                    let (mut once, mut each) = (TrafficCounters::new(), TrafficCounters::new());
                    once.record_n(class, direction, &stream, n);
                    for _ in 0..n {
                        each.record(class, direction, &stream);
                    }
                    assert_eq!(once, each, "{class} len {len} n {n}");
                }
            }
        }
    }

    #[test]
    fn reset_zeroes() {
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::Mmio,
            Direction::HostToDevice,
            &segment_write(4, 256),
        );
        c.reset();
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.total_tlps(), 0);
    }

    #[test]
    fn display_is_nonempty() {
        let mut c = TrafficCounters::new();
        c.record(
            TrafficClass::SqeFetch,
            Direction::DeviceToHost,
            &segment_write(64, 256),
        );
        let s = c.to_string();
        assert!(s.contains("sqe-fetch"));
        assert!(s.contains("pcie traffic"));
    }
}
