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
#![warn(unreachable_pub)]

pub mod error;
pub mod id;
pub mod message;
pub mod money;
pub mod qos;
pub mod time;
pub mod value;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::id::{BrokerId, LinkId, MessageId, PublisherId, SubscriberId, SubscriptionId};
    pub use crate::message::{Message, MessageHead};
    pub use crate::money::Price;
    pub use crate::qos::{DelayBound, QosClass};
    pub use crate::time::{Duration, SimTime};
}
