//! Fixed-point money for the SSD pricing model.
//!
//! In the SSD (subscriber-specified delay) scenario every subscription offers
//! a price that the system earns for each valid (on-time) message delivered
//! to it (paper §4.1, expression 2). Prices are small integers in the paper
//! ({3, 2, 1}); we store money in integer **milli-units** so that earnings of
//! long simulation runs accumulate without floating-point drift and compare
//! exactly across strategies.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Number of milli-units per whole unit of currency.
const MILLIS_PER_UNIT: i64 = 1_000;

/// The price a subscriber pays per valid message (non-negative).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Price(i64);

impl Price {
    /// The zero price (used for the PSD scenario where every delivery counts equally
    /// the caller usually uses [`Price::unit`] instead).
    pub const ZERO: Price = Price(0);

    /// A price of exactly one unit — the value used when applying the SSD
    /// machinery to the PSD scenario (paper §5: "set the price ... to be 1").
    pub const fn unit() -> Self {
        Price(MILLIS_PER_UNIT)
    }

    /// Creates a price from a whole number of units.
    pub const fn from_units(units: i64) -> Self {
        Price(units * MILLIS_PER_UNIT)
    }

    /// Creates a price from a raw milli-unit count (the inverse of
    /// [`Price::millis`]).
    pub const fn from_millis(millis: i64) -> Self {
        Price(millis)
    }

    /// Adds two prices, saturating at `i64::MAX` milli-units — envelope
    /// earning sums over large edge groups must never wrap.
    pub const fn saturating_add(self, rhs: Price) -> Price {
        Price(self.0.saturating_add(rhs.0))
    }

    /// Returns the price in fractional units.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_UNIT as f64
    }

    /// Returns the raw milli-unit count.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Returns true if the price is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Price {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_f64())
    }
}

/// Accumulated earnings of the system (sum of prices of valid deliveries).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Earning(i64);

impl Earning {
    /// No earnings.
    pub const ZERO: Earning = Earning(0);

    /// Creates an earning amount from whole units.
    pub const fn from_units(units: i64) -> Self {
        Earning(units * MILLIS_PER_UNIT)
    }

    /// Returns the earnings in fractional units.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_UNIT as f64
    }

    /// Returns the raw milli-unit count.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Adds the price of one more valid delivery.
    pub fn credit(&mut self, price: Price) {
        self.0 += price.0;
    }
}

impl From<Price> for Earning {
    fn from(p: Price) -> Self {
        Earning(p.0)
    }
}

impl Add for Earning {
    type Output = Earning;
    fn add(self, rhs: Earning) -> Earning {
        Earning(self.0 + rhs.0)
    }
}

impl AddAssign for Earning {
    fn add_assign(&mut self, rhs: Earning) {
        self.0 += rhs.0;
    }
}

impl Sub for Earning {
    type Output = Earning;
    fn sub(self, rhs: Earning) -> Earning {
        Earning(self.0 - rhs.0)
    }
}

impl Add<Price> for Earning {
    type Output = Earning;
    fn add(self, rhs: Price) -> Earning {
        Earning(self.0 + rhs.0)
    }
}

impl Mul<u64> for Price {
    type Output = Earning;
    fn mul(self, count: u64) -> Earning {
        Earning(self.0 * count as i64)
    }
}

impl Sum for Earning {
    fn sum<I: Iterator<Item = Earning>>(iter: I) -> Earning {
        iter.fold(Earning::ZERO, |acc, e| acc + e)
    }
}

impl fmt::Display for Earning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_construction() {
        assert_eq!(Price::from_units(3).as_f64(), 3.0);
        assert_eq!(Price::unit().as_f64(), 1.0);
        assert!(Price::ZERO.is_zero());
    }

    #[test]
    fn earning_accumulates_exactly() {
        let mut e = Earning::ZERO;
        for _ in 0..1_000 {
            e.credit(Price::from_millis(100));
        }
        assert_eq!(e.as_f64(), 100.0);
    }

    #[test]
    fn price_millis_round_trip_and_saturating_sum() {
        assert_eq!(Price::from_millis(2_500).millis(), 2_500);
        assert_eq!(
            Price::from_units(3).saturating_add(Price::from_units(2)),
            Price::from_units(5)
        );
        let huge = Price::from_millis(i64::MAX);
        assert_eq!(huge.saturating_add(Price::unit()), huge);
    }

    #[test]
    fn price_times_count() {
        let e = Price::from_units(2) * 7;
        assert_eq!(e.as_f64(), 14.0);
    }

    #[test]
    fn earning_arithmetic() {
        let a = Earning::from_units(5);
        let b = Earning::from_units(3);
        assert_eq!((a + b).as_f64(), 8.0);
        assert_eq!((a - b).as_f64(), 2.0);
        assert_eq!((a + Price::from_units(1)).as_f64(), 6.0);
        let total: Earning = vec![a, b].into_iter().sum();
        assert_eq!(total.as_f64(), 8.0);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Price::from_units(1) < Price::from_units(2));
        assert_eq!(Price::from_units(2).to_string(), "2.000");
        assert_eq!(Earning::from_units(2).to_string(), "2.000");
    }
}
