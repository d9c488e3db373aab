//! The shared virtual clock.
//!
//! Every component that contributes latency (driver submit path, PCIe link,
//! controller firmware, NAND array) advances one [`SimClock`]. The clock is a
//! plain monotonically non-decreasing counter: the simulation is sequential
//! and cost-model based, so no event queue is required — each component adds
//! the cost of the work it just performed.

use crate::time::Nanos;
use std::cell::Cell;
use std::rc::Rc;

/// A shareable, monotonically non-decreasing virtual clock.
///
/// `SimClock` is cheaply cloneable: clones share the same underlying counter,
/// so the driver and the device can each hold a handle and observe one
/// timeline.
///
/// # Example
///
/// ```
/// use bx_hostsim::{Nanos, SimClock};
///
/// let clock = SimClock::new();
/// let device_view = clock.clone();
/// clock.advance(Nanos::from_ns(100));
/// assert_eq!(device_view.now(), Nanos::from_ns(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time.
    pub fn now(&self) -> Nanos {
        Nanos::from_ns(self.now.get())
    }

    /// Advances the clock by `delta` and returns the new time.
    pub fn advance(&self, delta: Nanos) -> Nanos {
        let next = self.now.get() + delta.as_ns();
        self.now.set(next);
        Nanos::from_ns(next)
    }

    /// Moves the clock forward to `instant` if it is in the future; a no-op
    /// otherwise. Returns the (possibly unchanged) current time.
    ///
    /// This is how "wait until the NAND program finishes" is expressed: the
    /// NAND model computes an absolute completion instant and the caller
    /// advances to it.
    pub fn advance_to(&self, instant: Nanos) -> Nanos {
        if instant.as_ns() > self.now.get() {
            self.now.set(instant.as_ns());
        }
        self.now()
    }

    /// Resets the clock to zero. Intended for reusing a simulation harness
    /// across benchmark configurations.
    pub fn reset(&self) {
        self.now.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), Nanos::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(Nanos::from_ns(10));
        c.advance(Nanos::from_ns(5));
        assert_eq!(c.now(), Nanos::from_ns(15));
    }

    #[test]
    fn clones_share_timeline() {
        let c = SimClock::new();
        let d = c.clone();
        c.advance(Nanos::from_ns(7));
        assert_eq!(d.now(), Nanos::from_ns(7));
        d.advance(Nanos::from_ns(3));
        assert_eq!(c.now(), Nanos::from_ns(10));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance(Nanos::from_ns(100));
        // Moving "back" is a no-op.
        c.advance_to(Nanos::from_ns(50));
        assert_eq!(c.now(), Nanos::from_ns(100));
        c.advance_to(Nanos::from_ns(150));
        assert_eq!(c.now(), Nanos::from_ns(150));
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = SimClock::new();
        c.advance(Nanos::from_ms(1_000));
        c.reset();
        assert_eq!(c.now(), Nanos::ZERO);
    }
}
