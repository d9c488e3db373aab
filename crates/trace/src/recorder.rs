//! The event sink and its zero-overhead disabled path.

use crate::event::{CmdKey, Event, EventKind};
use bx_hostsim::{Nanos, SimClock};
use std::cell::RefCell;
use std::rc::Rc;

struct Recorder {
    clock: SimClock,
    events: Vec<Event>,
}

/// A cheaply cloneable handle to the flight recorder.
///
/// The sink is either **disabled** — the default, and the state every
/// component is built with — or **recording**, bound to the simulation's
/// shared [`SimClock`] so events stamp themselves with virtual time.
///
/// The disabled path is the whole point: [`TraceSink::emit`] takes a closure
/// so that when the sink is off, *nothing* happens — the closure is never
/// called, no event is constructed, nothing allocates, and neither the clock
/// nor any counter is touched. A traced run and an untraced run therefore
/// put byte-identical traffic on the wire in identical virtual time
/// (asserted across a power cut by `tests/crash_sweep.rs`).
///
/// Clones share the same event buffer, mirroring how [`SimClock`] clones
/// share one timeline.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl TraceSink {
    /// A sink that drops everything at zero cost. This is `Default`.
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording sink stamping events from `clock`.
    pub fn recording(clock: SimClock) -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(Recorder {
                clock,
                events: Vec::new(),
            }))),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. `f` is only invoked when the sink is recording;
    /// build the [`EventKind`] (and any formatting it needs) inside the
    /// closure so the disabled path stays free.
    #[inline]
    pub fn emit(&self, cmd: Option<CmdKey>, f: impl FnOnce() -> EventKind) {
        self.emit_after(Nanos::ZERO, cmd, f);
    }

    /// Records one event stamped `after` past the current virtual instant,
    /// for a batched operation that charges the clock once for many steps
    /// but must leave each step's event where a step-by-step run would
    /// have stamped it. Same inertness contract as [`TraceSink::emit`].
    #[inline]
    pub fn emit_after(&self, after: Nanos, cmd: Option<CmdKey>, f: impl FnOnce() -> EventKind) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.borrow_mut();
            let at = rec.clock.now() + after;
            let kind = f();
            rec.events.push(Event { at, cmd, kind });
        }
    }

    /// Records a command-tagged event.
    #[inline]
    pub fn emit_cmd(&self, cmd: CmdKey, f: impl FnOnce() -> EventKind) {
        self.emit(Some(cmd), f);
    }

    /// Snapshot of all recorded events, in emission order. Empty when
    /// disabled.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.borrow().events.clone(),
            None => Vec::new(),
        }
    }

    /// Number of recorded events (0 when disabled).
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events, keeping the sink recording.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().events.clear();
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.is_enabled())
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_hostsim::Nanos;

    #[test]
    fn disabled_sink_never_runs_the_closure() {
        let sink = TraceSink::disabled();
        let mut ran = false;
        sink.emit(None, || {
            ran = true;
            EventKind::TimeoutReap
        });
        assert!(!ran, "disabled sink must not evaluate the event closure");
        assert!(sink.is_empty());
        assert_eq!(sink.events(), Vec::new());
    }

    #[test]
    fn recording_sink_stamps_virtual_time() {
        let clock = SimClock::new();
        let sink = TraceSink::recording(clock.clone());
        sink.emit(None, || EventKind::TimeoutReap);
        clock.advance(Nanos::from_ns(250));
        sink.emit_cmd(CmdKey::new(1, 7), || EventKind::DoorbellRing { tail: 3 });

        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, Nanos::ZERO);
        assert_eq!(events[1].at, Nanos::from_ns(250));
        assert_eq!(events[1].cmd, Some(CmdKey::new(1, 7)));
    }

    #[test]
    fn clones_share_the_buffer() {
        let sink = TraceSink::recording(SimClock::new());
        let clone = sink.clone();
        clone.emit(None, || EventKind::TimeoutReap);
        assert_eq!(sink.len(), 1);
        sink.clear();
        assert!(clone.is_empty());
    }
}
