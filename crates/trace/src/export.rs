//! Trace exporters: Chrome-trace-event JSON (loadable in `chrome://tracing`
//! and Perfetto) and a compact human-readable timeline dump.

use crate::event::Event;
use crate::span::reconstruct_spans;
use serde::{Serialize, Value};
use std::fmt::Write as _;

/// Virtual nanoseconds → Chrome-trace microsecond timestamps (float, so
/// sub-microsecond resolution survives).
fn ts_us(ns: u64) -> Value {
    Value::F64(ns as f64 / 1000.0)
}

/// Lowers an event stream into the Chrome trace-event JSON object format:
/// `{"traceEvents": [...], "displayTimeUnit": "ns"}`.
///
/// Each reconstructed command span becomes a `"ph": "X"` complete event
/// (named `method op=.. len=..`, `tid` = queue id) and every raw event
/// becomes a `"ph": "i"` instant with the event payload in `args`, so both
/// the per-command gantt rows and the raw cross-layer stream are visible in
/// the viewer.
pub(crate) fn chrome_trace(events: &[Event]) -> Value {
    let mut trace_events = Vec::new();

    for span in reconstruct_spans(events) {
        // Open spans (reaped / still in flight) end at their last observed
        // stage so they stay visible rather than vanishing.
        let end = span
            .consumed
            .or(span.completed)
            .or(span.fetched)
            .unwrap_or(span.submitted);
        let dur = end.saturating_sub(span.submitted);
        trace_events.push(Value::object([
            (
                "name",
                format!("{} op={:#04x} len={}", span.method, span.opcode, span.len).to_value(),
            ),
            ("cat", "cmd".to_value()),
            ("ph", "X".to_value()),
            ("ts", ts_us(span.submitted.as_ns())),
            ("dur", ts_us(dur.as_ns())),
            ("pid", Value::U64(1)),
            ("tid", span.key.qid.to_value()),
            (
                "args",
                Value::object([
                    ("qid", span.key.qid.to_value()),
                    ("cid", span.key.cid.to_value()),
                    ("opcode", span.opcode.to_value()),
                    ("method", span.method.to_value()),
                    ("len", span.len.to_value()),
                    ("complete", span.is_complete().to_value()),
                    ("reaped", span.reaped.to_value()),
                    ("status", span.status.to_value()),
                ]),
            ),
        ]));
    }

    for event in events {
        trace_events.push(Value::object([
            ("name", event.kind.name().to_value()),
            ("cat", event.kind.layer().to_value()),
            ("ph", "i".to_value()),
            ("s", "t".to_value()),
            ("ts", ts_us(event.at.as_ns())),
            ("pid", Value::U64(1)),
            (
                "tid",
                event.cmd.map(|c| c.qid).unwrap_or_default().to_value(),
            ),
            ("args", event.to_value()),
        ]));
    }

    Value::object([
        ("traceEvents", Value::Array(trace_events)),
        ("displayTimeUnit", "ns".to_value()),
    ])
}

/// `chrome_trace` rendered to a JSON string.
pub fn chrome_trace_json(events: &[Event]) -> String {
    chrome_trace(events).to_json()
}

/// A compact, line-oriented timeline for terminals and diffs:
///
/// ```text
///      1.220us  driver      q1/c0   sqe-insert ByteExpress op=0x01 len=64
///      2.410us  link        -       sqe-fetch d2h wire=90B ...
/// ```
pub fn timeline(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        let cmd = event
            .cmd
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:>12}  {:<10} {:<8} {}",
            event.at.to_string(),
            event.kind.layer(),
            cmd,
            event.kind
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CmdKey, EventKind};
    use bx_hostsim::Nanos;

    fn sample_events() -> Vec<Event> {
        let key = CmdKey::new(1, 0);
        let mk = |at: u64, cmd: Option<CmdKey>, kind: EventKind| Event {
            at: Nanos::from_ns(at),
            cmd,
            kind,
        };
        vec![
            mk(
                0,
                Some(key),
                EventKind::SqeInsert {
                    method: "ByteExpress",
                    opcode: 0x01,
                    len: 64,
                },
            ),
            mk(
                50,
                None,
                EventKind::Tlp {
                    class: "doorbell",
                    dir: crate::Dir::HostToDevice,
                    wire_bytes: 24,
                    payload_bytes: 4,
                    tlps: 1,
                },
            ),
            mk(100, Some(key), EventKind::SqeFetch { opcode: 0x01 }),
            mk(900, Some(key), EventKind::CqePost { status: 0 }),
            mk(1000, Some(key), EventKind::CompletionConsumed { status: 0 }),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_span_and_instants() {
        let events = sample_events();
        let json = chrome_trace_json(&events);
        let parsed = Value::parse_json(&json).expect("exporter output must parse");
        let trace_events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 1 span + 5 instants.
        assert_eq!(trace_events.len(), 6);
        let span = &trace_events[0];
        assert_eq!(span.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(span.get("tid").and_then(Value::as_u64), Some(1));
        assert_eq!(span.get("dur").and_then(Value::as_f64), Some(1.0));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("complete"))
                .and_then(Value::as_bool),
            Some(true)
        );
    }

    #[test]
    fn timeline_lists_every_event() {
        let events = sample_events();
        let text = timeline(&events);
        assert_eq!(text.lines().count(), events.len());
        assert!(text.contains("sqe-insert ByteExpress"));
        assert!(text.contains("q1/c0"));
        assert!(text.contains("doorbell"));
    }
}
