//! Virtual time for the discrete-event engine.
//!
//! All protocol logic is written against [`SimTime`] / [`SimDuration`]
//! (microsecond resolution) rather than `std::time`, so the same code can be
//! driven by the deterministic simulator (virtual time) or by the threaded
//! runtime (where the engine maps wall-clock onto `SimTime`).
//!
//! Microsecond resolution comfortably covers the paper's measurement range:
//! its smallest reported quantity is the 0.468 ms phase-1 delay of Table 2
//! and its largest is the 200 s run of Figure 8.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant in virtual time (microseconds since the start of the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Microseconds since the origin.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Span from `earlier` to `self`; zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a span from fractional seconds (rounds to nearest µs).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Whole microseconds in the span.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds as a float (for reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the span by an integer factor.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the span by a float factor (rounds to nearest µs).
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k).round().max(0.0) as u64)
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_micros(2_000_000));
    }

    #[test]
    fn float_constructors_round() {
        assert_eq!(SimDuration::from_secs_f64(0.000_001_4), SimDuration(1));
    }

    #[test]
    fn arithmetic_basics() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        // Subtraction saturates rather than panicking.
        assert_eq!(SimTime::from_secs(1) - SimDuration::from_secs(5), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_is_zero_for_future() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn display_scales_unit() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn reporting_conversions() {
        assert!((SimDuration::from_millis(314).as_millis_f64() - 314.0).abs() < 1e-9);
        assert!((SimTime::from_secs(100).as_secs_f64() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.saturating_mul(3), SimDuration::from_millis(300));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(50));
    }

    proptest! {
        #[test]
        fn add_then_sub_round_trips(base in 0u64..1_000_000_000, d in 0u64..1_000_000_000) {
            let t = SimTime(base);
            let dur = SimDuration(d);
            prop_assert_eq!((t + dur) - dur, t);
            prop_assert_eq!((t + dur) - t, dur);
        }

        #[test]
        fn since_never_panics(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let _ = SimTime(a).saturating_since(SimTime(b));
        }

        #[test]
        fn duration_sub_saturates(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let d = SimDuration(a) - SimDuration(b);
            prop_assert_eq!(d.0, a.saturating_sub(b));
        }
    }
}
