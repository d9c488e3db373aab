//! # bx-pcie — PCIe link model
//!
//! Transaction-layer-packet (TLP) accounting and serialization timing for the
//! simulated PCIe link between the host and the SSD. This crate is what turns
//! "the controller fetched a 64-byte SQ entry" into the *wire bytes* and
//! *nanoseconds* that the paper measures with Intel PCM.
//!
//! The model is deliberately at the same altitude the paper's measurements
//! are: every host↔device interaction is decomposed into memory-write
//! (`MWr`), memory-read-request (`MRd`) and completion-with-data (`CplD`)
//! TLPs, each carrying a fixed header + physical-layer framing overhead, with
//! payloads segmented by the link's Max Payload Size (MPS) and read requests
//! by the Max Read Request Size (MRRS). Traffic counters accumulate bytes per
//! direction and per [`TrafficClass`], so benchmarks can report both the
//! paper's aggregate numbers and a breakdown of *where* the bytes went.
//!
//! ## Example
//!
//! ```
//! use bx_pcie::{LinkConfig, PcieLink, TrafficClass};
//!
//! // The paper's platform: PCIe Gen2 ×8.
//! let mut link = PcieLink::new(LinkConfig::gen2_x8());
//! // A 4 KB PRP data fetch: one page of traffic plus TLP overheads.
//! link.device_read(TrafficClass::PrpData, 4096);
//! let total = link.counters().total_bytes();
//! assert!(total > 4096, "wire bytes must exceed payload bytes");
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

mod config;
mod counters;
mod energy;
mod link;
pub mod tlp;

pub use config::{Generation, LinkConfig, LinkConfigError};
pub use counters::{ClassBytes, TrafficClass, TrafficCounters};
pub use energy::{EnergyModel, Picojoules};
pub use link::PcieLink;
pub use tlp::{TlpKind, TlpStream};
