//! Simulation time.
//!
//! Time is measured in integer **tenths of a millisecond** — the same unit
//! as physical link delays — so message arrival times can be computed with
//! exact integer arithmetic and runs are bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::Serialize;

/// A point in simulation time (tenths of a millisecond since start).
///
/// # Examples
///
/// ```
/// use ace_engine::SimTime;
/// let t = SimTime::ZERO + SimTime::from_millis(2).as_ticks();
/// assert_eq!(t.as_ticks(), 20);
/// assert_eq!(t.to_string(), "2.0ms");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future (used as an "until" bound meaning "run everything").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Number of ticks (tenths of a millisecond) per second.
    pub const TICKS_PER_SECOND: u64 = 10_000;

    /// Creates a time from raw ticks.
    pub const fn from_ticks(ticks: u64) -> Self {
        SimTime(ticks)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 10)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * Self::TICKS_PER_SECOND)
    }

    /// Raw tick count.
    pub const fn as_ticks(self) -> u64 {
        self.0
    }

    /// Time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 10.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / Self::TICKS_PER_SECOND as f64
    }

    /// Saturating addition of a tick count.
    pub const fn saturating_add(self, ticks: u64) -> Self {
        SimTime(self.0.saturating_add(ticks))
    }

    /// Checked subtraction; `None` when `other` is later than `self`.
    pub const fn checked_sub(self, other: SimTime) -> Option<u64> {
        self.0.checked_sub(other.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ticks: u64) -> SimTime {
        SimTime(self.0 + ticks)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ticks: u64) {
        self.0 += ticks;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    /// Elapsed ticks between two times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "∞")
        } else if self.0 >= Self::TICKS_PER_SECOND {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.1}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(5).as_ticks(), 50);
        assert_eq!(SimTime::from_secs(2).as_ticks(), 20_000);
        assert!((SimTime::from_ticks(15).as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_millis(1);
        assert_eq!((t + 5).as_ticks(), 15);
        let mut u = t;
        u += 5;
        assert_eq!(u.as_ticks(), 15);
        assert_eq!(u - t, 5);
        assert_eq!(t.checked_sub(u), None);
        assert_eq!(SimTime::MAX.saturating_add(9), SimTime::MAX);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::from_ticks(7).to_string(), "0.7ms");
        assert_eq!(SimTime::from_secs(3).to_string(), "3.000s");
        assert_eq!(SimTime::MAX.to_string(), "∞");
    }
}
