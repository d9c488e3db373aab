//! # byteexpress — inline small-payload transfer over NVMe submission queues
//!
//! A full-system reproduction of *ByteExpress: A High-Performance and
//! Traffic-Efficient Inline Transfer of Small Payloads over NVMe*
//! (HotStorage '25). The paper's observation: computational-storage payloads
//! (key-value pairs, SQL predicates) are tens to hundreds of bytes, yet the
//! NVMe PRP path moves a full 4 KB page for each — over 130× amplification
//! for a 32-byte payload. ByteExpress places the payload **inline in the
//! submission queue**, as 64-byte chunks right behind the command, reusing
//! the device's existing 64-byte SQE fetch as a fine-grained transfer path.
//!
//! This crate is the public face of the reproduction workspace:
//!
//! * [`Device`] / [`DeviceBuilder`] — a simulated OpenSSD-class device plus
//!   host driver on a modeled PCIe Gen2 ×8 link, ready for I/O in three
//!   lines.
//! * [`TransferMethod`] — PRP, SGL, BandSlim, ByteExpress, and the hybrid
//!   threshold switch, selectable per command.
//! * [`RunReport`] / [`LatencySamples`] — the measurement machinery behind
//!   the paper's figures (traffic, amplification, mean/percentile latency,
//!   throughput).
//! * Re-exports of the substrate crates (`bx-hostsim`, `bx-pcie`, `bx-nvme`,
//!   `bx-ssd`, `bx-driver`) for users who need the lower layers.
//!
//! ## Quickstart
//!
//! ```
//! use byteexpress::{Device, TransferMethod};
//!
//! # fn main() -> Result<(), byteexpress::DeviceError> {
//! let mut dev = Device::builder().nand_io(false).build();
//!
//! // One 64-byte payload via the conventional PRP path...
//! let prp = dev.measure_writes(10, 64, TransferMethod::Prp)?;
//! dev.reset_measurements();
//! // ...and via ByteExpress.
//! let bx = dev.measure_writes(10, 64, TransferMethod::ByteExpress)?;
//!
//! // The paper's headline: ~96% less PCIe traffic at 64 bytes.
//! assert!(bx.traffic.total_bytes() < prp.traffic.total_bytes() / 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// No input may panic the library, and nothing may depend on hash order: a
// site that stays carries an `#[expect]` with its reason (DESIGN.md §11).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::iter_over_hash_type
    )
)]
#![warn(missing_docs)]

mod device;
mod stats;

pub use device::{Device, DeviceBuilder, DeviceError, QueueBatch, RunReport};
pub use stats::LatencySamples;

// The pieces users routinely touch, re-exported at the top level.
pub use bx_driver::{
    Completion, DriverError, DriverTiming, FlushPolicy, NvmeDriver, Reactor, ReactorConfig,
    RecoveryStats, RetryPolicy, ShardHandle, TransferMethod,
};
pub use bx_hostsim::{EventQueue, FaultConfig, FaultCounters, Nanos, PhysAddr};
pub use bx_nvme::{IoOpcode, PassthruCmd, QueueId, Status, SubmissionEntry};
pub use bx_pcie::{LinkConfig, LinkConfigError, TrafficClass, TrafficCounters};
pub use bx_ssd::{
    ControllerTiming, ExecutionModel, FetchPolicy, FirmwareHandler, NandConfig, RecoveryReport,
    SystemBus,
};

// The flight recorder's user-facing pieces.
pub use bx_trace::{
    chrome_trace_json, reconstruct_spans, timeline, CmdKey, Event, EventKind, MetricsRegistry,
    TraceSink,
};

// Full substrate crates for advanced use.
pub use bx_driver as driver;
pub use bx_hostsim as hostsim;
pub use bx_nvme as nvme;
pub use bx_pcie as pcie;
pub use bx_ssd as ssd;
pub use bx_trace as trace;
