//! Strongly-typed identifiers for the entities of a pub/sub system.
//!
//! Every participant of the paper's system model gets its own newtype so that
//! a broker index can never be confused with a subscriber index at compile
//! time. All identifiers are plain `u32` indices: the simulator allocates
//! them densely which lets downstream code use them directly as `Vec`
//! indices.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index backing this identifier.
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize`, convenient for vector indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                Self(raw as u32)
            }
        }
    };
}

define_id!(
    /// Identifier of a message broker (a node of the overlay network).
    BrokerId,
    "B"
);
define_id!(
    /// Identifier of an information publisher attached to an edge broker.
    PublisherId,
    "P"
);
define_id!(
    /// Identifier of an information subscriber attached to an edge broker.
    SubscriberId,
    "S"
);
define_id!(
    /// Identifier of a subscription registered by a subscriber.
    SubscriptionId,
    "F"
);
define_id!(
    /// Identifier of a directed overlay link between two brokers.
    LinkId,
    "L"
);

/// Identifier of a published message.
///
/// Messages are numbered globally in publication order, which makes the
/// identifier usable as a FIFO tie-breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl MessageId {
    /// Creates a message identifier from a raw sequence number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw sequence number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl From<u64> for MessageId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(BrokerId::new(3).to_string(), "B3");
        assert_eq!(PublisherId::new(0).to_string(), "P0");
        assert_eq!(SubscriberId::new(159).to_string(), "S159");
        assert_eq!(SubscriptionId::new(7).to_string(), "F7");
        assert_eq!(LinkId::new(12).to_string(), "L12");
        assert_eq!(MessageId::new(42).to_string(), "M42");
    }

    #[test]
    fn raw_round_trips() {
        let b = BrokerId::from(9u32);
        assert_eq!(b.raw(), 9);
        assert_eq!(b.index(), 9);
        assert_eq!(u32::from(b), 9);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(BrokerId::new(1));
        set.insert(BrokerId::new(2));
        set.insert(BrokerId::new(1));
        assert_eq!(set.len(), 2);
        assert!(BrokerId::new(1) < BrokerId::new(2));
    }

    #[test]
    fn message_ids_order_by_publication() {
        assert!(MessageId::new(1) < MessageId::new(2));
        assert_eq!(MessageId::from(5u64).raw(), 5);
    }

    #[test]
    fn usize_conversion() {
        let s = SubscriberId::from(11usize);
        assert_eq!(s.index(), 11);
    }
}
