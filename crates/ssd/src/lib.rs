//! # bx-ssd — the simulated NVMe SSD
//!
//! A software model of the paper's device side (the Cosmos+ OpenSSD):
//!
//! * `controller` — the NVMe controller loop: doorbell polling, 64-byte SQE
//!   fetch, firmware dispatch, completion posting (`admin`, `power`: the
//!   admin queue and the power cut). `gather` holds one payload gather per
//!   transfer method: PRP / SGL, BandSlim fragments and **ByteExpress inline
//!   chunks** (queue-local or out-of-order reassembly): after fetching a
//!   tagged SQE, keep fetching entries from the same queue.
//! * `nand` / `ftl` — a channel/die-parallel NAND array with
//!   erase-before-program discipline and a page-mapped FTL with greedy GC,
//!   so NAND-on experiments (Fig 6) carry realistic background costs.
//! * `journal` — the append-only mapping-table journal (checksummed
//!   records, bounded checkpoints) behind the FTL's crash-consistency story:
//!   acks wait for the record, replay rebuilds the map after a power cut.
//! * `dram` — device DRAM: the landing buffer for inline payloads (KV value
//!   log, CSD workspace, or page buffer).
//! * `reassembly` — the paper's §3.3.2 identifier-based out-of-order chunk
//!   reassembly extension, with an explicit SRAM budget.
//! * `firmware` — the personality extension point ([`FirmwareHandler`]):
//!   block firmware here, KV-SSD and CSD firmware in their own crates.
//! * `pages` — [`PageStore`], where those personalities keep their pages:
//!   the FTL over NAND, or a DRAM page log in the paper's NAND-off mode.
//! * `bus` — the shared host↔device fabric handles.
//! * `timing` — controller latency constants calibrated to the paper's
//!   Table 1.

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

mod admin;
mod bus;
mod controller;
mod dram;
mod firmware;
mod ftl;
mod gather;
mod journal;
mod nand;
mod pages;
mod power;
mod reassembly;
pub mod registers;
mod rows;
mod timing;

pub use bus::{MmioCompletion, MmioSubmission, MmioWindow, Platform, SystemBus};
pub use controller::{Controller, ControllerConfig, ControllerStats, ExecutionModel, FetchPolicy};
pub use dram::{DeviceDram, DramError, DramRegion};
pub use firmware::{BlockFirmware, CommandOutcome, FirmwareCtx, FirmwareHandler};
pub use ftl::{Ftl, FtlError, FtlStats, RecoveryReport};
pub use journal::{JournalOp, MapJournal};
pub use nand::{NandArray, NandConfig, NandError, NandStats, Ppa};
pub use pages::PageStore;
pub use reassembly::{CompletedPayload, ReassemblyEngine, ReassemblyError};
pub use registers::{Register, RegisterFile, CC_ENABLE, CSTS_READY};
pub use timing::ControllerTiming;
