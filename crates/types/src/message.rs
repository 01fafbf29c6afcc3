//! Messages and message heads.
//!
//! A published message is a *head* — a small set of attribute/value pairs
//! that content filters are evaluated against — plus the metadata the
//! paper's delay model prices it by: its size (in kilobytes), its
//! publication time and its publisher-specified delay bound (PSD scenario).
//! Brokers never open a payload, so [`Message`] carries none.

use crate::id::{MessageId, PublisherId};
use crate::qos::DelayBound;
use crate::time::{Duration, SimTime};
use crate::value::{AttrName, AttrValue};
use std::fmt;
use std::sync::Arc;

/// The attribute/value pairs of a message head.
///
/// Heads are small (two attributes in the paper's workload, rarely more than
/// a dozen in practice), so a sorted `Vec` of pairs beats a hash map both in
/// memory and in lookup time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MessageHead {
    attrs: Vec<(AttrName, AttrValue)>,
}

impl MessageHead {
    /// Creates an empty head.
    pub fn new() -> Self {
        MessageHead { attrs: Vec::new() }
    }

    /// Creates a head with pre-allocated space for `capacity` attributes.
    pub fn with_capacity(capacity: usize) -> Self {
        MessageHead {
            attrs: Vec::with_capacity(capacity),
        }
    }

    /// Sets an attribute, replacing any previous value with the same name.
    pub fn set(&mut self, name: impl Into<AttrName>, value: impl Into<AttrValue>) -> &mut Self {
        let name = name.into();
        let value = value.into();
        match self.attrs.binary_search_by(|(n, _)| n.cmp(&name)) {
            Ok(pos) => self.attrs[pos].1 = value,
            Err(pos) => self.attrs.insert(pos, (name, value)),
        }
        self
    }

    /// Returns the value of the named attribute, if present.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.attrs
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|pos| &self.attrs[pos].1)
    }

    /// Returns true when the named attribute is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of attributes in the head.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Returns true when the head has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over the attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &AttrValue)> {
        self.attrs.iter().map(|(n, v)| (n, v))
    }
}

impl<N, V> FromIterator<(N, V)> for MessageHead
where
    N: Into<AttrName>,
    V: Into<AttrValue>,
{
    fn from_iter<T: IntoIterator<Item = (N, V)>>(iter: T) -> Self {
        let mut head = MessageHead::new();
        for (n, v) in iter {
            head.set(n, v);
        }
        head
    }
}

impl fmt::Display for MessageHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, "}}")
    }
}

/// A published message.
///
/// Messages are reference-counted ([`Arc`]) by brokers so that a single copy
/// can sit in many output queues at once.
#[derive(Debug, Clone)]
pub struct Message {
    /// Globally unique, publication-ordered identifier.
    pub id: MessageId,
    /// The publisher that produced the message.
    pub publisher: PublisherId,
    /// Simulated time at which the message was published.
    pub publish_time: SimTime,
    /// Size of the message in kilobytes (the paper's unit for transmission rates).
    pub size_kb: f64,
    /// Delay bound attached by the publisher (PSD scenario), if any.
    pub publisher_bound: Option<DelayBound>,
    /// The content-addressable head.
    pub head: MessageHead,
}

impl Message {
    /// Starts building a message with the given id and publisher.
    pub fn builder(id: MessageId, publisher: PublisherId) -> MessageBuilder {
        MessageBuilder::new(id, publisher)
    }

    /// The delay that has already occurred for this message at time `now` —
    /// the paper's `hdl(m)` (§5.1), obtained "by subtracting the publishing
    /// time of the message from the current time".
    pub fn elapsed(&self, now: SimTime) -> Duration {
        now.duration_since(self.publish_time)
    }

    /// The absolute expiry instant implied by the publisher bound, if any.
    pub fn publisher_deadline(&self) -> Option<SimTime> {
        self.publisher_bound
            .map(|b| self.publish_time + b.duration())
    }

    /// Remaining lifetime with respect to the publisher bound at time `now`.
    /// Returns `None` when the publisher did not specify a bound.
    pub fn remaining_lifetime(&self, now: SimTime) -> Option<Duration> {
        self.publisher_bound
            .map(|b| b.duration().saturating_sub(self.elapsed(now)))
    }

    /// True when the publisher bound (if any) has already been exceeded at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        match self.publisher_deadline() {
            Some(deadline) => now > deadline,
            None => false,
        }
    }
}

/// A shared, immutable handle to a message.
pub type SharedMessage = Arc<Message>;

/// Builder for [`Message`].
#[derive(Debug, Clone)]
pub struct MessageBuilder {
    id: MessageId,
    publisher: PublisherId,
    publish_time: SimTime,
    size_kb: f64,
    publisher_bound: Option<DelayBound>,
    head: MessageHead,
}

impl MessageBuilder {
    /// Creates a builder with the paper's default message size (50 KB).
    pub fn new(id: MessageId, publisher: PublisherId) -> Self {
        MessageBuilder {
            id,
            publisher,
            publish_time: SimTime::ZERO,
            size_kb: 50.0,
            publisher_bound: None,
            head: MessageHead::new(),
        }
    }

    /// Sets the publication time.
    pub fn publish_time(mut self, t: SimTime) -> Self {
        self.publish_time = t;
        self
    }

    /// Sets the message size in kilobytes.
    pub fn size_kb(mut self, size: f64) -> Self {
        self.size_kb = size;
        self
    }

    /// Sets the publisher-specified delay bound (PSD scenario).
    pub fn publisher_bound(mut self, bound: DelayBound) -> Self {
        self.publisher_bound = Some(bound);
        self
    }

    /// Adds a head attribute.
    pub fn attr(mut self, name: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        self.head.set(name, value);
        self
    }

    /// Sets the whole head at once.
    pub fn head(mut self, head: MessageHead) -> Self {
        self.head = head;
        self
    }

    /// Finishes building the message.
    pub fn build(self) -> Message {
        Message {
            id: self.id,
            publisher: self.publisher,
            publish_time: self.publish_time,
            size_kb: self.size_kb,
            publisher_bound: self.publisher_bound,
            head: self.head,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::builder(MessageId::new(1), PublisherId::new(0))
            .publish_time(SimTime::from_secs(100))
            .size_kb(50.0)
            .publisher_bound(DelayBound::from_secs(10))
            .attr("A1", 3.5)
            .attr("A2", 7.25)
            .build()
    }

    #[test]
    fn head_set_get_and_replace() {
        let mut head = MessageHead::new();
        head.set("A2", 2.0).set("A1", 1.0);
        assert_eq!(head.len(), 2);
        assert_eq!(head.get("A1").unwrap().as_f64(), Some(1.0));
        head.set("A1", 9.0);
        assert_eq!(head.len(), 2);
        assert_eq!(head.get("A1").unwrap().as_f64(), Some(9.0));
        assert!(head.contains("A2"));
        assert!(!head.contains("A3"));
        assert!(head.get("missing").is_none());
    }

    #[test]
    fn head_iterates_in_name_order() {
        let head: MessageHead = vec![("B", 2.0), ("A", 1.0), ("C", 3.0)]
            .into_iter()
            .collect();
        let names: Vec<&str> = head.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn head_display() {
        let head: MessageHead = vec![("A1", 1.0), ("A2", 2.0)].into_iter().collect();
        assert_eq!(head.to_string(), "{A1=1, A2=2}");
        assert!(MessageHead::new().is_empty());
    }

    #[test]
    fn elapsed_and_expiry() {
        let m = msg();
        let now = SimTime::from_secs(104);
        assert_eq!(m.elapsed(now), Duration::from_secs(4));
        assert_eq!(m.remaining_lifetime(now), Some(Duration::from_secs(6)));
        assert!(!m.is_expired(now));
        let later = SimTime::from_secs(111);
        assert!(m.is_expired(later));
        assert_eq!(m.remaining_lifetime(later), Some(Duration::ZERO));
        assert_eq!(m.publisher_deadline(), Some(SimTime::from_secs(110)));
    }

    #[test]
    fn unbounded_message_never_expires() {
        let m = Message::builder(MessageId::new(2), PublisherId::new(1))
            .publish_time(SimTime::from_secs(5))
            .build();
        assert!(!m.is_expired(SimTime::from_secs(1_000_000)));
        assert_eq!(m.remaining_lifetime(SimTime::ZERO), None);
        assert_eq!(m.publisher_deadline(), None);
    }

    #[test]
    fn builder_defaults() {
        let m = Message::builder(MessageId::new(3), PublisherId::new(2)).build();
        assert_eq!(m.size_kb, 50.0);
        assert_eq!(m.publish_time, SimTime::ZERO);
        assert!(m.head.is_empty());
    }

    #[test]
    fn shared_message_is_cheap_to_clone() {
        let m = Arc::new(msg());
        let m2 = Arc::clone(&m);
        assert_eq!(m2.id, m.id);
        assert_eq!(Arc::strong_count(&m), 2);
    }
}
