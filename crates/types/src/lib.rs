//! # bdps-types
//!
//! Foundation types shared by every crate of the BDPS (Bounded-Delay
//! Publish/Subscribe) workspace: strongly-typed identifiers, a deterministic
//! simulated-time representation, attribute values carried in message heads,
//! fixed-point money for the SSD (subscriber-specified delay) pricing model,
//! QoS descriptors and the common error type.
//!
//! The crate depends on nothing but `std`, so every other crate can depend
//! on it without pulling in the simulator or the statistics substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod id;
pub mod message;
pub mod money;
pub mod qos;
pub mod registry;
pub mod time;
pub mod value;

pub use error::{BdpsError, Result};
pub use id::{BrokerId, LinkId, MessageId, PublisherId, SubscriberId, SubscriptionId};
pub use message::{Message, MessageBuilder, MessageHead};
pub use money::{Earning, Price};
pub use qos::{DelayBound, QosClass};
pub use time::{Duration, SimTime};
pub use value::{AttrName, AttrValue};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::error::{BdpsError, Result};
    pub use crate::id::{BrokerId, LinkId, MessageId, PublisherId, SubscriberId, SubscriptionId};
    pub use crate::message::{Message, MessageBuilder, MessageHead};
    pub use crate::money::{Earning, Price};
    pub use crate::qos::{DelayBound, QosClass};
    pub use crate::time::{Duration, SimTime};
    pub use crate::value::{AttrName, AttrValue};
}
