//! Span reconstruction: folding the flat event stream back into per-command
//! lifecycles.

use crate::event::{CmdKey, Event, EventKind};
use bx_hostsim::Nanos;
use std::collections::HashMap;

/// One command's reconstructed lifecycle: submit → fetch → complete →
/// consume, plus recovery-ladder annotations.
///
/// Command ids are reused, so several spans can share a [`CmdKey`]; each
/// `SqeInsert` event opens a fresh span instance for its key.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub key: CmdKey,
    pub method: &'static str,
    pub opcode: u8,
    pub len: usize,
    /// When the SQE was written (span start).
    pub submitted: Nanos,
    /// When the controller fetched the SQE.
    pub fetched: Option<Nanos>,
    /// When the controller posted the CQE.
    pub completed: Option<Nanos>,
    /// When the driver consumed the CQE (span end on the happy path).
    pub consumed: Option<Nanos>,
    /// Completion status as consumed by the driver, if any.
    pub status: Option<u16>,
    /// The driver reaped this attempt on timeout.
    pub reaped: bool,
    /// Number of events attributed to this span.
    pub events: usize,
}

impl Span {
    /// A full submit→fetch→complete→consume lifecycle was observed.
    pub fn is_complete(&self) -> bool {
        self.fetched.is_some() && self.completed.is_some() && self.consumed.is_some()
    }

    /// Submit-to-consume latency for complete spans.
    pub(crate) fn latency(&self) -> Option<Nanos> {
        self.consumed.map(|end| end.saturating_sub(self.submitted))
    }
}

/// Folds an event stream (in emission order) into spans, one per `SqeInsert`.
///
/// Later stage events (`SqeFetch`, `CqePost`, `CompletionConsumed`, recovery
/// events) attach to the most recent span with the same [`CmdKey`]. Events
/// with no command tag, or tagged before any submit for their key (e.g. admin
/// traffic recorded mid-setup), are ignored.
pub fn reconstruct_spans(events: &[Event]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    let mut open: HashMap<CmdKey, usize> = HashMap::new();

    for event in events {
        let Some(key) = event.cmd else { continue };
        if let EventKind::SqeInsert {
            method,
            opcode,
            len,
        } = event.kind
        {
            open.insert(key, spans.len());
            spans.push(Span {
                key,
                method,
                opcode,
                len,
                submitted: event.at,
                fetched: None,
                completed: None,
                consumed: None,
                status: None,
                reaped: false,
                events: 1,
            });
            continue;
        }
        let Some(&idx) = open.get(&key) else { continue };
        let span = &mut spans[idx];
        span.events += 1;
        match event.kind {
            EventKind::SqeFetch { .. } => span.fetched = Some(event.at),
            EventKind::CqePost { .. } => span.completed = Some(event.at),
            EventKind::CompletionConsumed { status } => {
                span.consumed = Some(event.at);
                span.status = Some(status);
            }
            EventKind::TimeoutReap => span.reaped = true,
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, cmd: Option<CmdKey>, kind: EventKind) -> Event {
        Event {
            at: Nanos::from_ns(at),
            cmd,
            kind,
        }
    }

    #[test]
    fn lifecycle_folds_into_one_span() {
        let key = CmdKey::new(1, 0);
        let events = vec![
            ev(
                0,
                Some(key),
                EventKind::SqeInsert {
                    method: "ByteExpress",
                    opcode: 0x01,
                    len: 64,
                },
            ),
            ev(100, Some(key), EventKind::SqeFetch { opcode: 0x01 }),
            ev(900, Some(key), EventKind::CqePost { status: 0 }),
            ev(1000, Some(key), EventKind::CompletionConsumed { status: 0 }),
        ];
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.is_complete());
        assert_eq!(s.latency(), Some(Nanos::from_ns(1000)));
        assert_eq!(s.method, "ByteExpress");
        assert_eq!(s.status, Some(0));
    }

    #[test]
    fn cid_reuse_opens_a_new_span() {
        let key = CmdKey::new(1, 3);
        let submit = EventKind::SqeInsert {
            method: "PRP",
            opcode: 0x02,
            len: 4096,
        };
        let events = vec![
            ev(0, Some(key), submit.clone()),
            ev(10, Some(key), EventKind::SqeFetch { opcode: 0x02 }),
            ev(20, Some(key), EventKind::CompletionConsumed { status: 0 }),
            ev(30, Some(key), submit),
            ev(40, Some(key), EventKind::TimeoutReap),
        ];
        let spans = reconstruct_spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].consumed, Some(Nanos::from_ns(20)));
        assert!(spans[1].reaped);
        assert_eq!(spans[1].consumed, None);
    }

    #[test]
    fn untagged_and_orphan_events_are_ignored() {
        let events = vec![
            ev(
                0,
                None,
                EventKind::Tlp {
                    class: "doorbell",
                    dir: crate::Dir::HostToDevice,
                    wire_bytes: 24,
                    payload_bytes: 4,
                    tlps: 1,
                },
            ),
            // Fetch for a key that never submitted.
            ev(
                5,
                Some(CmdKey::new(0, 9)),
                EventKind::SqeFetch { opcode: 0 },
            ),
        ];
        assert!(reconstruct_spans(&events).is_empty());
    }
}
