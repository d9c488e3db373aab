//! # bx-kvssd — a key-value SSD on the ByteExpress stack
//!
//! The paper's first application substrate (§2.2.1, §4.3): a KV-SSD in the
//! style of iLSM-SSD — key-value operations are encoded as vendor NVMe
//! commands and delivered through the passthrough path, with each PUT
//! persisted individually (the fine-grained persistence model the NVMe
//! key-value extension defines).
//!
//! Two halves:
//!
//! * [`KvFirmware`] — device-side: a DRAM-staged, NAND-flushed value log
//!   with an in-memory hash index and entry headers on media for index
//!   recovery. It decodes PUT, GET and DELETE; any other opcode completes
//!   `InvalidOpcode`.
//! * [`KvStore`] — host-side: `put`/`get`/`delete` over a
//!   [`byteexpress::Device`], with the transfer method chosen per store (the
//!   Fig 6 experiments swap PRP / BandSlim / ByteExpress here).
//!
//! Keys follow the NVMe KV convention of riding inside the command itself
//! (CDW10–13, up to 16 bytes, zero-padded); *values* are the transferred
//! payload — which is exactly the quantity the paper's Fig 1(a) shows to be
//! tens of bytes in production, and thus the quantity ByteExpress moves
//! inline.
//!
//! ## Example
//!
//! ```
//! use bx_kvssd::{KvStore, KvStoreConfig};
//! use byteexpress::TransferMethod;
//!
//! # fn main() -> Result<(), bx_kvssd::KvError> {
//! let mut store = KvStore::open(KvStoreConfig {
//!     method: TransferMethod::ByteExpress,
//!     ..Default::default()
//! });
//! store.put(b"user:42", b"inline value")?;
//! assert_eq!(store.get(b"user:42")?.as_deref(), Some(&b"inline value"[..]));
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

pub mod firmware;
mod store;

pub use firmware::{KvDeviceStats, KvFirmware, MAX_VALUE_LEN};
pub use store::{KvError, KvStore, KvStoreConfig};
