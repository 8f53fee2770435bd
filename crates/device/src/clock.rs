//! Deterministic simulated time.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the simulated timeline, in seconds.
///
/// A thin `f64` newtype: simulated time is continuous and derived from the
/// analytic cost model, not from the host clock. Ordering, addition, and
/// subtraction behave like plain seconds.
///
/// # Example
///
/// ```
/// use helios_device::SimTime;
///
/// let a = SimTime::from_secs(90.0);
/// let b = SimTime::from_secs(60.0);
/// assert!(a > b);
/// assert_eq!((a - b).as_secs_f64(), 30.0);
/// assert_eq!(format!("{b}"), "1m00.0s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite — simulated time always
    /// moves forward.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "simulated time must be finite and non-negative, got {secs}"
        );
        SimTime(secs)
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// Hours as `f64`.
    pub fn as_hours_f64(self) -> f64 {
        self.0 / 3600.0
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// Saturating subtraction: simulated spans never go negative.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0;
        if total >= 3600.0 {
            let h = (total / 3600.0).floor();
            let m = (total - h * 3600.0) / 60.0;
            write!(f, "{h:.0}h{m:04.1}m")
        } else if total >= 60.0 {
            let m = (total / 60.0).floor();
            let s = total - m * 60.0;
            write!(f, "{m:.0}m{s:04.1}s")
        } else {
            write!(f, "{total:.2}s")
        }
    }
}

/// A monotonically advancing simulated clock.
///
/// # Example
///
/// ```
/// use helios_device::{SimClock, SimTime};
///
/// let mut clock = SimClock::new();
/// clock.advance(SimTime::from_secs(5.0));
/// assert_eq!(clock.now().as_secs_f64(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by a span.
    pub fn advance(&mut self, span: SimTime) {
        self.now += span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_secs(120.0).as_secs_f64(), 120.0);
        assert_eq!(SimTime::from_secs(5400.0).as_hours_f64(), 1.5);
        assert_eq!(SimTime::ZERO.as_secs_f64(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_panics() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_secs(10.0);
        let b = SimTime::from_secs(4.0);
        assert_eq!((a + b).as_secs_f64(), 14.0);
        assert_eq!((a - b).as_secs_f64(), 6.0);
        assert_eq!((b - a).as_secs_f64(), 0.0, "saturating");
        assert_eq!(a.max(b), a);
    }

    #[test]
    fn display_formats_by_magnitude() {
        assert_eq!(SimTime::from_secs(5.25).to_string(), "5.25s");
        assert_eq!(SimTime::from_secs(90.0).to_string(), "1m30.0s");
        assert_eq!(SimTime::from_secs(9000.0).to_string(), "2h30.0m");
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new();
        c.advance(SimTime::from_secs(7.0));
        assert_eq!(c.now().as_secs_f64(), 7.0);
        c.advance(SimTime::ZERO);
        assert_eq!(c.now().as_secs_f64(), 7.0);
        c.advance(SimTime::from_secs(4.0));
        assert_eq!(c.now().as_secs_f64(), 11.0);
    }
}
