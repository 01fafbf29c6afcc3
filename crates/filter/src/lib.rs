//! # bdps-filter
//!
//! The content-based subscription language of BDPS and the machinery brokers
//! use to evaluate it:
//!
//! * [`Predicate`](prelude::Predicate) — atomic comparisons over message-head
//!   attributes (`A1 < 5.0`, `symbol == "ACME"`, ...);
//! * [`filter`] — conjunctive filters, matching against message heads, and
//!   the covering relation and join used when aggregating subscriptions;
//! * [`cover`] — incremental covering-set maintenance
//!   ([`CoverForest`](cover::CoverForest)): the maximal filters under the
//!   covering relation, the aggregate interior brokers route on;
//! * [`index`] — a counting-based matching index that evaluates one message
//!   against many subscriptions in sub-linear time per subscription;
//! * [`subscription`] — a subscription bundles a filter with its subscriber
//!   and its QoS class (delay bound + price, paper §4.2);
//! * [`scope`] — interned, sorted subscription-id sets
//!   ([`ScopeSet`](scope::ScopeSet) / [`ScopeInterner`](scope::ScopeInterner)):
//!   the scope a message copy carries through the overlay, hash-consed so
//!   forwarding stops allocating per event;
//! * [`selectivity`] — selectivity estimation for workload analysis (the
//!   paper's workload is designed so each message matches 25 % of
//!   subscriptions on average).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cover;
pub mod filter;
pub mod index;
mod predicate;
pub mod scope;
pub mod selectivity;
pub mod subscription;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::filter::Filter;
    pub use crate::index::MatchIndex;
    pub use crate::predicate::{CompOp, Predicate};
    pub use crate::scope::ScopeSet;
    pub use crate::subscription::Subscription;
}
