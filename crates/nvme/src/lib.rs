//! # bx-nvme — NVMe protocol data model
//!
//! Bit-exact NVMe structures shared by the host driver (`bx-driver`) and the
//! simulated controller (`bx-ssd`):
//!
//! * 64-byte submission queue entries ([`SubmissionEntry`]) and 16-byte
//!   completion queue entries ([`CompletionEntry`]), encoded/decoded to the
//!   exact wire layout — the ByteExpress mechanism is *defined* in terms of
//!   this layout (a reserved dword carries the inline payload length).
//! * PRP ([`prp`]) and SGL ([`sgl`]) data-pointer construction and parsing.
//! * Queue-ring geometry and doorbell state ([`queue`]).
//! * The NVMe-passthrough command surface ([`passthru`]) that computational
//!   storage APIs (KV-SSD, CSD) ride on.
//! * ByteExpress framing helpers ([`inline`]): chunk counts, the reserved-field
//!   length encoding, and the chunk-header codec used by the out-of-order
//!   reassembly extension.
//!
//! ## Example: building the paper's inline-write command
//!
//! ```
//! use bx_nvme::{IoOpcode, SubmissionEntry, inline};
//!
//! let mut sqe = SubmissionEntry::io(IoOpcode::Write, 42 /* cid */, 1 /* nsid */);
//! inline::set_inline_len(&mut sqe, 100);
//! assert_eq!(inline::inline_len(&sqe), Some(100));
//! assert_eq!(inline::chunks_for_len(100), 2); // two 64-byte SQ slots
//!
//! // Encode/decode round-trips through the exact 64-byte wire image.
//! let wire = sqe.to_bytes();
//! assert_eq!(SubmissionEntry::from_bytes(&wire), sqe);
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

pub mod admin;
pub mod bandslim;
mod cqe;
mod identify;
pub mod inline;
mod opcode;
pub mod passthru;
pub mod prp;
pub mod queue;
pub mod sgl;
pub mod sqe;
mod status;

pub use cqe::CompletionEntry;
pub use identify::{IdentifyController, VendorCaps, IDENTIFY_BYTES};
pub use inline::{ChunkHeader, BYTEEXPRESS_CHUNK_SIZE, REASSEMBLY_HEADER_BYTES};
pub use opcode::{AdminOpcode, IoOpcode};
pub use passthru::PassthruCmd;
pub use prp::{PrpError, PrpSegments};
pub use queue::{CqProducer, CqRing, DoorbellArray, QueueId, SqRing, CQE_BYTES, SQE_BYTES};
pub use sgl::{SglDescriptor, SglError};
pub use sqe::SubmissionEntry;
pub use status::Status;
