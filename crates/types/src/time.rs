//! Deterministic simulated time.
//!
//! The discrete-event simulator needs a totally ordered, hashable notion of
//! time with exact arithmetic; floating point is unsuitable because ties and
//! accumulated rounding would make runs non-reproducible. Time is therefore
//! kept as an integer number of **microseconds** since the start of the
//! simulation. One microsecond of resolution is three orders of magnitude
//! below the smallest constant of the paper's model (the 2 ms per-broker
//! processing delay), so no modelled quantity is quantized noticeably.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds in a millisecond.
const MICROS_PER_MS: u64 = 1_000;
/// Number of microseconds in a second.
const MICROS_PER_SEC: u64 = 1_000_000;

/// A span of simulated time (non-negative), stored in microseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration; used as an "effectively infinite" deadline.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * MICROS_PER_MS)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * MICROS_PER_SEC)
    }

    /// Creates a duration from fractional milliseconds, rounding to the nearest microsecond.
    ///
    /// Negative and non-finite inputs saturate to zero: the model only ever
    /// produces non-negative delays and this keeps sampling code panic-free.
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms.is_nan() || ms <= 0.0 {
            return Duration::ZERO;
        }
        if ms.is_infinite() {
            return Duration::MAX;
        }
        let micros = (ms * MICROS_PER_MS as f64).round();
        if micros >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(micros as u64)
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest microsecond.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self::from_millis_f64(secs * 1_000.0)
    }

    /// Returns the duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MS as f64
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction: returns zero if `other` is longer than `self`.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative scalar, saturating on overflow.
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration::from_millis_f64(self.as_millis_f64() * factor)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

/// An absolute instant of simulated time (microseconds since simulation start).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant from whole milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MS)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MICROS_PER_SEC)
    }

    /// Returns the instant in whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Returns the elapsed duration since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(Duration::from_millis(2).as_micros(), 2_000);
        assert_eq!(Duration::from_secs(10).as_millis_f64(), 10_000.0);
        assert_eq!(Duration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(Duration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn negative_or_nan_saturates_to_zero() {
        assert_eq!(Duration::from_millis_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_millis_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_millis_f64(f64::INFINITY), Duration::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_millis(10);
        let b = Duration::from_millis(4);
        assert_eq!((a + b).as_micros(), 14_000);
        assert_eq!((a - b).as_micros(), 6_000);
        assert_eq!((b - a), Duration::ZERO);
        assert_eq!((a * 3).as_micros(), 30_000);
        assert_eq!((a / 2).as_micros(), 5_000);
        assert_eq!(a.mul_f64(0.5).as_micros(), 5_000);
    }

    #[test]
    fn simtime_arithmetic() {
        let t0 = SimTime::from_secs(5);
        let t1 = t0 + Duration::from_millis(250);
        assert_eq!(t1.as_micros(), 5_250_000);
        assert_eq!(t1.duration_since(t0), Duration::from_millis(250));
        assert_eq!(t0.duration_since(t1), Duration::ZERO);
        assert_eq!(t1 - t0, Duration::from_millis(250));
    }

    #[test]
    fn ordering_is_total() {
        let times = [
            SimTime::from_millis(3),
            SimTime::from_millis(1),
            SimTime::from_millis(2),
        ];
        let mut sorted = times;
        sorted.sort();
        assert_eq!(
            sorted,
            [
                SimTime::from_millis(1),
                SimTime::from_millis(2),
                SimTime::from_millis(3)
            ]
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_millis).sum();
        assert_eq!(total, Duration::from_millis(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Duration::from_millis(1).to_string(), "1.000ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_secs(3).to_string(), "t=3.000s");
    }
}
