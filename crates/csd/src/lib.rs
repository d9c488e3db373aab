//! # bx-csd — SQL predicate pushdown on a computational SSD
//!
//! The paper's second application substrate (§2.2.2, §4.3): a YourSQL-style
//! computational SSD where the host pushes a filter task — a SQL string, or
//! just the table name + predicate segment — to the device, which scans the
//! NAND-resident table and returns the matching rows. The task message is
//! tens to a few hundred bytes (Fig 4), making its delivery exactly the
//! small-payload problem ByteExpress solves.
//!
//! Pieces:
//!
//! * `sql` — tokenizer, parser and printer for the `SELECT … FROM … WHERE`
//!   subset CSD prototypes push down, tolerant of the aggregate/GROUP BY
//!   clutter in real TPC-H text (those parts are the host's, and this crate
//!   does not compute them; only the filter is pushed).
//! * `schema` / `row` — table schemas and a compact row codec.
//! * `eval` — device-side predicate evaluation.
//! * `firmware` — the CSD personality: table catalog, NAND-backed row
//!   store, filter executor with a DRAM result workspace.
//! * [`session`] — the host API: create/load tables, push down tasks with
//!   any [`byteexpress::TransferMethod`], fetch filtered rows.
//! * `corpus` — the Fig 4 query corpus (VPIC, Laghos, Asteroid, TPC-H
//!   Q1/Q2) with full-string and segment payloads plus matching synthetic
//!   tables.

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

mod corpus;
mod eval;
mod firmware;
mod row;
mod schema;
pub mod session;
mod sql;

pub use corpus::{corpus, CorpusQuery};
pub use eval::{eval, EvalError, UnknownColumn};
pub use row::{Row, Value};
pub use schema::{Column, ColumnType, Schema};
pub use session::{CsdConfig, CsdError, CsdSession, PushdownReport, TaskEncoding};
pub use sql::{parse_predicate, CmpOp, Expr, Operand, ParseError};
