//! Subscriptions: a filter plus its subscriber identity and QoS class.
//!
//! Following the paper (§4.1/§4.2), a subscription carries the subscriber's
//! interest (a [`Filter`]), the worst-case delay `dl` the subscriber allows
//! for matching messages and the price `pr` it pays per valid message. In
//! the PSD scenario subscriptions carry no delay bound and a unit price.

use crate::filter::Filter;
use bdps_types::id::{SubscriberId, SubscriptionId};
use bdps_types::money::Price;
use bdps_types::qos::{DelayBound, QosClass};
use bdps_types::time::Duration;
use std::fmt;

/// A subscription registered by a subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Unique subscription identifier.
    pub id: SubscriptionId,
    /// The subscriber that owns the subscription.
    pub subscriber: SubscriberId,
    /// The content filter describing the subscriber's interest.
    pub filter: Filter,
    /// The subscriber-specified delay bound, if any (SSD scenario).
    pub(crate) delay_bound: Option<DelayBound>,
    /// The price paid per valid message.
    pub price: Price,
}

impl Subscription {
    /// Creates a best-effort subscription (no delay bound, unit price) —
    /// the form used in the PSD scenario.
    pub fn best_effort(id: SubscriptionId, subscriber: SubscriberId, filter: Filter) -> Self {
        Subscription {
            id,
            subscriber,
            filter,
            delay_bound: None,
            price: Price::unit(),
        }
    }

    /// Creates a subscription with an explicit QoS class (SSD scenario).
    pub fn with_qos(
        id: SubscriptionId,
        subscriber: SubscriberId,
        filter: Filter,
        qos: QosClass,
    ) -> Self {
        Subscription {
            id,
            subscriber,
            filter,
            delay_bound: Some(qos.delay),
            price: qos.price,
        }
    }

    /// The subscriber-specified allowed delay, treating "unspecified" as unbounded —
    /// the paper's `adl(s_i)` in the SSD scenario.
    pub fn allowed_delay(&self) -> Duration {
        self.delay_bound
            .map(DelayBound::duration)
            .unwrap_or(Duration::MAX)
    }

    /// Returns true if the subscription specifies a finite delay bound.
    pub fn is_delay_bounded(&self) -> bool {
        matches!(self.delay_bound, Some(b) if b != DelayBound::UNBOUNDED)
    }
}

impl fmt::Display for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {}: {}", self.id, self.subscriber, self.filter)?;
        if let Some(b) = self.delay_bound {
            write!(f, " [dl={} pr={}]", b.duration(), self.price)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;

    #[test]
    fn best_effort_subscription() {
        let s = Subscription::best_effort(
            SubscriptionId::new(1),
            SubscriberId::new(2),
            Filter::from(Predicate::lt("A1", 5.0)),
        );
        assert_eq!(s.allowed_delay(), Duration::MAX);
        assert!(!s.is_delay_bounded());
        assert_eq!(s.price, Price::unit());
    }

    #[test]
    fn qos_subscription() {
        let qos = QosClass::new(DelayBound::from_secs(10), Price::from_units(3));
        let s = Subscription::with_qos(
            SubscriptionId::new(1),
            SubscriberId::new(2),
            Filter::paper_conjunction(5.0, 5.0),
            qos,
        );
        assert_eq!(s.allowed_delay(), Duration::from_secs(10));
        assert!(s.is_delay_bounded());
        assert_eq!(s.price, Price::from_units(3));
    }

    #[test]
    fn display_includes_qos_when_present() {
        let s = Subscription::with_qos(
            SubscriptionId::new(4),
            SubscriberId::new(7),
            Filter::from(Predicate::lt("A1", 5.0)),
            QosClass::new(DelayBound::from_secs(30), Price::from_units(2)),
        );
        let text = s.to_string();
        assert!(text.contains("F4"));
        assert!(text.contains("S7"));
        assert!(text.contains("A1 < 5"));
        assert!(text.contains("dl=30.000s"));
    }
}
