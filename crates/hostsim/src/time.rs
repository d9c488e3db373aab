//! Virtual-time quantities.
//!
//! All latency accounting in the workspace is expressed in [`Nanos`], a newtype
//! over `u64` nanoseconds. Using a dedicated type (rather than bare `u64`)
//! keeps durations from being confused with byte counts or addresses, which
//! all flow through the same cost-model code.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in simulated time, in nanoseconds.
///
/// `Nanos` is used both as a point on the virtual timeline (since simulation
/// start) and as a span between two points; the two uses never mix in a way
/// that matters because the timeline starts at zero.
///
/// # Example
///
/// ```
/// use bx_hostsim::Nanos;
///
/// let fetch = Nanos::from_ns(2_400);
/// let per_chunk = Nanos::from_ns(400);
/// assert_eq!(fetch + per_chunk * 4, Nanos::from_ns(4_000));
/// assert_eq!((fetch + per_chunk * 4).as_micros_f64(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Constructs a duration from whole nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Constructs a duration from whole microseconds.
    pub const fn from_us(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Constructs a duration from whole milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// The raw nanosecond count.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// The duration in microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in seconds, as a float (for throughput computation).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; clamps at zero instead of panicking.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl From<u64> for Nanos {
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    fn from(n: Nanos) -> u64 {
        n.0
    }
}

/// Serializes as the raw nanosecond count (reports stay unit-stable).
impl serde::Serialize for Nanos {
    fn to_value(&self) -> serde::Value {
        serde::Value::U64(self.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Nanos::from_us(3).as_ns(), 3_000);
        assert_eq!(Nanos::from_ms(2).as_ns(), 2_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_ns(100);
        let b = Nanos::from_ns(40);
        assert_eq!(a + b, Nanos::from_ns(140));
        assert_eq!(a - b, Nanos::from_ns(60));
        assert_eq!(a * 3, Nanos::from_ns(300));
        assert_eq!(a / 4, Nanos::from_ns(25));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Nanos::from_ns(10);
        let b = Nanos::from_ns(30);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(b.saturating_sub(a), Nanos::from_ns(20));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Nanos = (1..=4).map(Nanos::from_ns).sum();
        assert_eq!(total, Nanos::from_ns(10));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Nanos::from_ns(999).to_string(), "999ns");
        assert_eq!(Nanos::from_ns(1_500).to_string(), "1.500us");
        assert_eq!(Nanos::from_ms(2).to_string(), "2.000ms");
        assert_eq!(Nanos::from_ms(3_000).to_string(), "3.000s");
    }

    #[test]
    fn conversions() {
        let n: Nanos = 42u64.into();
        let raw: u64 = n.into();
        assert_eq!(raw, 42);
    }

    #[test]
    fn throughput_math() {
        // 1M ops over 1 second of virtual time = 1 Mops/s.
        let elapsed = Nanos::from_ms(1_000);
        let ops = 1_000_000f64;
        assert!((ops / elapsed.as_secs_f64() - 1e6).abs() < 1e-6);
    }
}
