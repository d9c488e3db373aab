//! # bx-trace — the cross-layer flight recorder
//!
//! A zero-overhead-when-disabled, virtual-time event sink threaded through
//! every layer of the ByteExpress stack: driver submit paths, the PCIe link,
//! the controller's fetch/reassembly/completion machinery, the FTL/NAND
//! backend, and the recovery ladder.
//!
//! The design splits hot path from analysis:
//!
//! - **Recording** ([`TraceSink`]) is a clock-stamped `Vec` push behind an
//!   `Option<Rc<...>>`. Disabled (the default) it is inert: the event
//!   closure is never evaluated, nothing allocates, and wire traffic +
//!   virtual time are byte-identical to an untraced run.
//! - **Analysis** is offline over the recorded stream: span reconstruction
//!   ([`reconstruct_spans`]), a label-aware [`MetricsRegistry`] with
//!   log2-bucketed histograms and last-sample gauges, and exporters
//!   ([`chrome_trace_json`] for `chrome://tracing`/Perfetto, [`timeline`]
//!   for terminals, [`openmetrics`] for Prometheus-style scrapes).
//!
//! See DESIGN.md §8 for the event taxonomy and span model, §13 for the
//! telemetry plane (gauges, OpenMetrics mapping).

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

mod event;
mod export;
mod metrics;
mod openmetrics;
mod recorder;
mod span;

pub use event::{CmdKey, Dir, Event, EventKind};
pub use export::{chrome_trace_json, timeline};
pub use metrics::MetricsRegistry;
pub use openmetrics::{openmetrics, validate_openmetrics, OpenMetricsSummary};
pub use recorder::TraceSink;
pub use span::{reconstruct_spans, Span};
