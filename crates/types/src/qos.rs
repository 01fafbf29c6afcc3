//! QoS descriptors: delay bounds, pricing tiers and the PSD/SSD requirement model.
//!
//! The paper studies two scenarios (§4.1):
//!
//! * **PSD** (publisher-specified delay): the publisher attaches an allowed
//!   delay to each message; subscribers specify nothing.
//! * **SSD** (subscriber-specified delay): each subscription carries its own
//!   allowed delay together with the price paid per valid message.

use crate::money::Price;
use crate::time::Duration;

/// The maximum allowed end-to-end delivery delay for a message or subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DelayBound(pub Duration);

impl DelayBound {
    /// Creates a delay bound from a duration.
    pub const fn new(d: Duration) -> Self {
        DelayBound(d)
    }

    /// Creates a delay bound of the given number of seconds.
    pub const fn from_secs(secs: u64) -> Self {
        DelayBound(Duration::from_secs(secs))
    }

    /// Returns the underlying duration.
    pub const fn duration(self) -> Duration {
        self.0
    }

    /// An effectively unbounded delay (used when a party specifies nothing).
    pub const UNBOUNDED: DelayBound = DelayBound(Duration::MAX);
}

/// A (delay bound, price) pair offered by a subscriber in the SSD scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosClass {
    /// The allowed delay for messages delivered to this subscription.
    pub delay: DelayBound,
    /// The price paid for each valid (on-time) message.
    pub price: Price,
}

impl QosClass {
    /// Creates a QoS class.
    pub const fn new(delay: DelayBound, price: Price) -> Self {
        QosClass { delay, price }
    }

    /// The three-tier pricing of the paper's SSD evaluation:
    /// 10 s → price 3, 30 s → price 2, 60 s → price 1 (§6.1).
    pub fn paper_tiers() -> [QosClass; 3] {
        [
            QosClass::new(DelayBound::from_secs(10), Price::from_units(3)),
            QosClass::new(DelayBound::from_secs(30), Price::from_units(2)),
            QosClass::new(DelayBound::from_secs(60), Price::from_units(1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tiers_match_section_6_1() {
        let tiers = QosClass::paper_tiers();
        assert_eq!(tiers[0].delay.duration(), Duration::from_secs(10));
        assert_eq!(tiers[0].price, Price::from_units(3));
        assert_eq!(tiers[2].delay.duration(), Duration::from_secs(60));
        assert_eq!(tiers[2].price, Price::from_units(1));
        assert_eq!(DelayBound::UNBOUNDED.duration(), Duration::MAX);
    }
}
