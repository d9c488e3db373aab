//! The flight-recorder event taxonomy.
//!
//! Every layer of the simulated stack emits [`Event`]s into a shared
//! [`crate::TraceSink`]: the driver (submit path and timeout reaper), the
//! PCIe link (one event per TLP batch), the controller (fetch, reassembly,
//! completion) and the backend (NAND operations, garbage collection). Events
//! are timestamped in virtual time and — where a command is in scope — tagged
//! with a [`CmdKey`] so a command's full lifecycle can be reconstructed as a
//! span (see [`crate::reconstruct_spans`]).
//!
//! Cross-crate references (transfer method, traffic class) are carried as
//! `&'static str` labels rather than typed enums so this crate can sit below
//! `bx-pcie`/`bx-driver` in the dependency graph.

// A new `EventKind` variant must be named by every handler: with no `_ =>`
// arm allowed here, rustc's exhaustiveness check (E0004) finds each one.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use bx_hostsim::Nanos;
use serde::{Serialize, Value};
use std::fmt;

/// Identifies one submission-queue slot occupancy: queue id + command id.
///
/// Command ids are reused once a slot completes, so a `CmdKey` alone is not
/// globally unique — a new `SqeInsert` event for the same key starts a new
/// span instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct CmdKey {
    pub qid: u16,
    pub cid: u16,
}

impl CmdKey {
    pub fn new(qid: u16, cid: u16) -> Self {
        Self { qid, cid }
    }
}

impl fmt::Display for CmdKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}/c{}", self.qid, self.cid)
    }
}

/// Direction of a link-level transfer, host perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Dir {
    HostToDevice,
    DeviceToHost,
}

impl Dir {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Dir::HostToDevice => "h2d",
            Dir::DeviceToHost => "d2h",
        }
    }
}

/// What happened. Grouped by the layer that emits it; [`EventKind::layer`]
/// recovers the grouping for display and export.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    // ---- driver: submit path -------------------------------------------
    /// A command SQE was written into a submission-queue slot.
    SqeInsert {
        method: &'static str,
        opcode: u8,
        len: usize,
    },
    /// A ByteExpress chunk train was written into the SQ behind its command.
    ChunkTrainWrite { chunks: u16, bytes: usize },
    /// The SQ tail doorbell was rung.
    DoorbellRing { tail: u16 },
    /// A coalesced doorbell flush: one SQ tail write covering `cmds`
    /// staged commands (and their chunk trains).
    BatchFlush { cmds: u16, tail: u16 },
    /// The driver consumed a CQE for this command (phase-matched poll).
    CompletionConsumed { status: u16 },

    // ---- driver: recovery ---------------------------------------------
    /// The command's deadline lapsed on a dark device; the driver reaped it
    /// with a synthetic aborted status.
    TimeoutReap,

    // ---- PCIe link ------------------------------------------------------
    /// One logical transfer on the link (possibly several TLPs).
    Tlp {
        class: &'static str,
        dir: Dir,
        wire_bytes: u64,
        payload_bytes: u64,
        tlps: u64,
    },

    // ---- controller -----------------------------------------------------
    /// The controller fetched and parsed a command SQE.
    SqeFetch { opcode: u8 },
    /// The controller gathered an inline chunk train from SQ slots.
    InlineGather { chunks: u16, bytes: usize },
    /// A reassembly-mode chunk was accepted into device SRAM.
    ReassemblyAccept { seq: u16 },
    /// A stalled reassembly payload was evicted and its command failed.
    ReassemblyEvict,
    /// The controller moved payload data via a descriptor walk
    /// (`kind` is `"prp"`, `"sgl"`, `"bandslim"` or `"mmio"`).
    DataFetch { kind: &'static str, bytes: usize },
    /// The SQ arbiter granted one queue a turn: `served` scheduling units
    /// (commands or reassembly chunk fetches) were consumed from `qid`.
    ArbiterGrant { qid: u16, served: u16 },
    /// A CQE was posted to the host (includes the interrupt).
    CqePost { status: u16 },
    /// Pipelined execution deferred this command's completion: firmware
    /// dispatch returned immediately and the CQE is scheduled for `until`
    /// (the controller is free to fetch the next SQE in the meantime).
    CqeDeferred { until: Nanos },

    // ---- FTL / NAND -----------------------------------------------------
    /// A NAND array operation (`op` is `"program"`, `"read"` or `"erase"`).
    /// The die is occupied over the absolute span `[start, start + busy]` —
    /// `start` may lie past the emission timestamp when the op queued
    /// behind earlier work on the same die.
    NandOp {
        op: &'static str,
        channel: u32,
        die: u32,
        start: Nanos,
        busy: Nanos,
    },
    /// A foreground garbage-collection cycle inside the FTL.
    GcCycle {
        moved_pages: u32,
        erased_blocks: u32,
    },

    // ---- power / recovery ----------------------------------------------
    /// A whole-system power cut froze the device: `torn_pages` NAND programs
    /// were in flight (their data is lost), `dropped_trains` partial inline
    /// chunk trains were discarded from reassembly SRAM.
    PowerCut {
        torn_pages: u32,
        dropped_trains: u32,
    },
    /// FTL journal replay during restart: `replayed` records applied on top
    /// of the checkpoint, `torn_mappings` of them redirected to the previous
    /// PPA because the target page never finished programming.
    JournalReplay { replayed: u32, torn_mappings: u32 },

    // ---- reactor --------------------------------------------------------
    /// The reactor's completion dispatcher routed a sweep of completions
    /// (ring CQEs and byte-interface status words alike) to the waiters of
    /// one shard's queue.
    ReactorDispatch { shard: u16, completions: u16 },
    /// The reactor found no runnable task and no ready completion while
    /// commands were still in flight, and advanced virtual time to let the
    /// device (or the timeout reaper) make progress.
    ReactorIdleAdvance { step: Nanos },
}

impl EventKind {
    /// The layer that emits this event, for grouping in exports.
    pub fn layer(&self) -> &'static str {
        use EventKind::*;
        match self {
            SqeInsert { .. }
            | ChunkTrainWrite { .. }
            | DoorbellRing { .. }
            | BatchFlush { .. }
            | CompletionConsumed { .. } => "driver",
            TimeoutReap => "recovery",
            Tlp { .. } => "link",
            SqeFetch { .. }
            | InlineGather { .. }
            | ReassemblyAccept { .. }
            | ReassemblyEvict
            | DataFetch { .. }
            | ArbiterGrant { .. }
            | CqePost { .. }
            | CqeDeferred { .. } => "controller",
            NandOp { .. } | GcCycle { .. } => "nand",
            PowerCut { .. } => "controller",
            JournalReplay { .. } => "nand",
            ReactorDispatch { .. } | ReactorIdleAdvance { .. } => "reactor",
        }
    }

    /// Short stable name, used as the Chrome-trace event name.
    pub fn name(&self) -> &'static str {
        use EventKind::*;
        match self {
            SqeInsert { .. } => "sqe_insert",
            ChunkTrainWrite { .. } => "chunk_train_write",
            DoorbellRing { .. } => "doorbell_ring",
            BatchFlush { .. } => "batch_flush",
            CompletionConsumed { .. } => "completion_consumed",
            TimeoutReap => "timeout_reap",
            Tlp { .. } => "tlp",
            SqeFetch { .. } => "sqe_fetch",
            InlineGather { .. } => "inline_gather",
            ReassemblyAccept { .. } => "reassembly_accept",
            ReassemblyEvict => "reassembly_evict",
            DataFetch { .. } => "data_fetch",
            ArbiterGrant { .. } => "arbiter_grant",
            CqePost { .. } => "cqe_post",
            CqeDeferred { .. } => "cqe_deferred",
            NandOp { .. } => "nand_op",
            GcCycle { .. } => "gc_cycle",
            PowerCut { .. } => "power_cut",
            JournalReplay { .. } => "journal_replay",
            ReactorDispatch { .. } => "reactor_dispatch",
            ReactorIdleAdvance { .. } => "reactor_idle_advance",
        }
    }

    /// Event payload as a serialization tree (Chrome-trace `args`).
    pub(crate) fn args(&self) -> Value {
        use EventKind::*;
        match self {
            SqeInsert {
                method,
                opcode,
                len,
            } => Value::object([
                ("method", method.to_value()),
                ("opcode", opcode.to_value()),
                ("len", len.to_value()),
            ]),
            ChunkTrainWrite { chunks, bytes } => {
                Value::object([("chunks", chunks.to_value()), ("bytes", bytes.to_value())])
            }
            DoorbellRing { tail } => Value::object([("tail", tail.to_value())]),
            BatchFlush { cmds, tail } => {
                Value::object([("cmds", cmds.to_value()), ("tail", tail.to_value())])
            }
            CompletionConsumed { status } => Value::object([("status", status.to_value())]),
            TimeoutReap => Value::object(Vec::<(&str, Value)>::new()),
            Tlp {
                class,
                dir,
                wire_bytes,
                payload_bytes,
                tlps,
            } => Value::object([
                ("class", class.to_value()),
                ("dir", dir.label().to_value()),
                ("wire_bytes", wire_bytes.to_value()),
                ("payload_bytes", payload_bytes.to_value()),
                ("tlps", tlps.to_value()),
            ]),
            SqeFetch { opcode } => Value::object([("opcode", opcode.to_value())]),
            InlineGather { chunks, bytes } => {
                Value::object([("chunks", chunks.to_value()), ("bytes", bytes.to_value())])
            }
            ReassemblyAccept { seq } => Value::object([("seq", seq.to_value())]),
            ReassemblyEvict => Value::object(Vec::<(&str, Value)>::new()),
            DataFetch { kind, bytes } => {
                Value::object([("kind", kind.to_value()), ("bytes", bytes.to_value())])
            }
            ArbiterGrant { qid, served } => {
                Value::object([("qid", qid.to_value()), ("served", served.to_value())])
            }
            CqePost { status } => Value::object([("status", status.to_value())]),
            CqeDeferred { until } => Value::object([("until_ns", until.as_ns().to_value())]),
            NandOp {
                op,
                channel,
                die,
                start,
                busy,
            } => Value::object([
                ("op", op.to_value()),
                ("channel", channel.to_value()),
                ("die", die.to_value()),
                ("start_ns", start.as_ns().to_value()),
                ("busy_ns", busy.as_ns().to_value()),
            ]),
            GcCycle {
                moved_pages,
                erased_blocks,
            } => Value::object([
                ("moved_pages", moved_pages.to_value()),
                ("erased_blocks", erased_blocks.to_value()),
            ]),
            PowerCut {
                torn_pages,
                dropped_trains,
            } => Value::object([
                ("torn_pages", torn_pages.to_value()),
                ("dropped_trains", dropped_trains.to_value()),
            ]),
            JournalReplay {
                replayed,
                torn_mappings,
            } => Value::object([
                ("replayed", replayed.to_value()),
                ("torn_mappings", torn_mappings.to_value()),
            ]),
            ReactorDispatch { shard, completions } => Value::object([
                ("shard", shard.to_value()),
                ("completions", completions.to_value()),
            ]),
            ReactorIdleAdvance { step } => Value::object([("step_ns", step.as_ns().to_value())]),
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EventKind::*;
        match self {
            SqeInsert {
                method,
                opcode,
                len,
            } => {
                write!(f, "sqe-insert {method} op={opcode:#04x} len={len}")
            }
            ChunkTrainWrite { chunks, bytes } => {
                write!(f, "chunk-train {chunks} chunks / {bytes} B")
            }
            DoorbellRing { tail } => write!(f, "doorbell tail={tail}"),
            BatchFlush { cmds, tail } => write!(f, "batch-flush {cmds} cmds tail={tail}"),
            CompletionConsumed { status } => write!(f, "completion status={status:#06x}"),
            TimeoutReap => write!(f, "timeout reap"),
            Tlp {
                class,
                dir,
                wire_bytes,
                payload_bytes,
                tlps,
            } => write!(
                f,
                "{class} {dir} wire={wire_bytes}B payload={payload_bytes}B tlps={tlps}",
                dir = dir.label()
            ),
            SqeFetch { opcode } => write!(f, "sqe-fetch op={opcode:#04x}"),
            InlineGather { chunks, bytes } => {
                write!(f, "inline-gather {chunks} chunks / {bytes} B")
            }
            ReassemblyAccept { seq } => write!(f, "reassembly-accept seq={seq}"),
            ReassemblyEvict => write!(f, "reassembly-evict"),
            DataFetch { kind, bytes } => write!(f, "data-fetch {kind} {bytes} B"),
            ArbiterGrant { qid, served } => write!(f, "arbiter-grant q{qid} served={served}"),
            CqePost { status } => write!(f, "cqe-post status={status:#06x}"),
            CqeDeferred { until } => write!(f, "cqe-deferred until={until}"),
            NandOp {
                op,
                channel,
                die,
                start,
                busy,
            } => write!(
                f,
                "nand-{op} ch{channel}/die{die} start={start} busy={busy}"
            ),
            GcCycle {
                moved_pages,
                erased_blocks,
            } => write!(f, "gc moved={moved_pages}p erased={erased_blocks}blk"),
            PowerCut {
                torn_pages,
                dropped_trains,
            } => write!(
                f,
                "power-cut torn={torn_pages}p dropped-trains={dropped_trains}"
            ),
            JournalReplay {
                replayed,
                torn_mappings,
            } => write!(f, "journal-replay {replayed} records torn={torn_mappings}"),
            ReactorDispatch { shard, completions } => write!(
                f,
                "reactor-dispatch shard={shard} completions={completions}"
            ),
            ReactorIdleAdvance { step } => write!(f, "reactor-idle-advance step={step}"),
        }
    }
}

/// One recorded event: a virtual-time stamp, an optional command tag, and
/// what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub at: Nanos,
    pub cmd: Option<CmdKey>,
    pub kind: EventKind,
}

impl Event {
    /// Serialization tree for the raw event stream dump.
    pub(crate) fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("ts_ns".to_string(), self.at.as_ns().to_value()),
            ("layer".to_string(), self.kind.layer().to_value()),
            ("name".to_string(), self.kind.name().to_value()),
        ];
        if let Some(cmd) = self.cmd {
            pairs.push(("qid".to_string(), cmd.qid.to_value()));
            pairs.push(("cid".to_string(), cmd.cid.to_value()));
        }
        pairs.push(("args".to_string(), self.kind.args()));
        Value::Object(pairs)
    }
}
