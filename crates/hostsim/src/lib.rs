//! # bx-hostsim — simulated host environment
//!
//! This crate provides the two host-side substrates every other crate in the
//! ByteExpress workspace builds on:
//!
//! * **Virtual time** ([`Nanos`], [`SimClock`]) — the whole reproduction runs in
//!   deterministic simulated time, calibrated to the paper's measured constants
//!   (Table 1 of the paper), rather than wall-clock time on unknown hardware.
//! * **Simulated host DRAM** ([`HostMemory`], [`PageAllocator`], [`DmaRegion`]) —
//!   a byte-addressable memory the NVMe driver allocates submission/completion
//!   queues and data pages from, and that the simulated SSD controller reads
//!   via DMA. Keeping a real backing store (not just byte *counts*) means the
//!   controller receives exactly the bytes the driver wrote, so end-to-end
//!   payload-integrity tests are meaningful.
//!
//! ## Example
//!
//! ```
//! use bx_hostsim::{HostMemory, PAGE_SIZE};
//!
//! # fn main() -> Result<(), bx_hostsim::MemError> {
//! let mut mem = HostMemory::with_capacity(16 * PAGE_SIZE);
//! let page = mem.alloc_page()?;
//! mem.write(page.addr(), b"hello nvme")?;
//! let mut buf = [0u8; 10];
//! mem.read(page.addr(), &mut buf)?;
//! assert_eq!(&buf, b"hello nvme");
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

mod clock;
mod event;
mod fault;
mod mem;
mod time;

pub use clock::SimClock;
pub use event::EventQueue;
pub use fault::{FaultConfig, FaultCounters, FaultInjector};
pub use mem::{DmaRegion, HostMemory, MemError, PageAllocator, PageRef, PhysAddr, PAGE_SIZE};
pub use time::Nanos;
