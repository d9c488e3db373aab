//! # bx-workloads — workload generators for the ByteExpress evaluation
//!
//! * [`mixgraph`] — the value-size and key-access model of Facebook's
//!   production RocksDB workloads (Cao et al., FAST '20), as implemented by
//!   db_bench's `mixgraph` benchmark: Generalized-Pareto value sizes whose
//!   defaults put >60 % of values under 32 bytes — the distribution behind
//!   the paper's Fig 1(a) and Fig 6(a).
//! * `fillrandom` — db_bench's FillRandom with fixed-size values (the
//!   paper uses 128-byte values in Fig 6(b)).
//! * `zipf` — a Zipfian key sampler for skewed read mixes.
//! * `sweep` — the payload-size ladders used by Fig 1(b/c) and Fig 5.
//!
//! Everything is seeded and deterministic: the same seed reproduces the same
//! operation stream.

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

mod fillrandom;
pub mod mixgraph;
mod sweep;
mod zipf;

pub use fillrandom::FillRandom;
pub use mixgraph::{MixGraph, MixGraphConfig};
pub use sweep::{amplification_sweep_sizes, fig5_sizes, latency_staircase_sizes};
pub use zipf::Zipf;

/// One key-value operation produced by a workload generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvOp {
    /// The key bytes.
    pub key: Vec<u8>,
    /// The value bytes (empty for GET-style ops).
    pub value: Vec<u8>,
}
