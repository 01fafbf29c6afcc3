//! # bdps-filter
//!
//! The content-based subscription language of BDPS and the machinery brokers
//! use to evaluate it:
//!
//! * [`predicate`] — atomic comparisons over message-head attributes
//!   (`A1 < 5.0`, `symbol == "ACME"`, ...);
//! * [`filter`] — boolean filter expressions, their normalisation to
//!   disjunctions of conjunctions, matching against message heads, and the
//!   covering / overlap relations used when aggregating subscriptions;
//! * [`cover`] — incremental covering-set maintenance ([`CoverForest`]):
//!   the maximal filters under the covering relation, the aggregate interior
//!   brokers route on;
//! * [`parser`] — a small recursive-descent parser for the textual filter
//!   syntax (`"A1 < 5 && A2 < 2"`), so examples and tests can write filters
//!   the way the paper writes them;
//! * [`index`] — a counting-based matching index that evaluates one message
//!   against many subscriptions in sub-linear time per subscription;
//! * [`subscription`] — a subscription bundles a filter with its subscriber
//!   and its QoS class (delay bound + price, paper §4.2);
//! * [`scope`] — interned, sorted subscription-id sets ([`ScopeSet`] /
//!   [`ScopeInterner`]): the scope a message copy carries through the
//!   overlay, hash-consed so forwarding stops allocating per event;
//! * [`selectivity`] — selectivity estimation for workload analysis (the
//!   paper's workload is designed so each message matches 25 % of
//!   subscriptions on average).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cover;
pub mod filter;
pub mod index;
pub mod parser;
pub mod predicate;
pub mod scope;
pub mod selectivity;
pub mod subscription;

pub use cover::CoverForest;
pub use filter::{Filter, FilterExpr};
pub use index::MatchIndex;
pub use parser::parse_filter;
pub use predicate::{CompOp, Predicate};
pub use scope::{ScopeInterner, ScopeSet};
pub use subscription::Subscription;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::cover::CoverForest;
    pub use crate::filter::{Filter, FilterExpr};
    pub use crate::index::MatchIndex;
    pub use crate::parser::parse_filter;
    pub use crate::predicate::{CompOp, Predicate};
    pub use crate::scope::{ScopeInterner, ScopeSet};
    pub use crate::subscription::Subscription;
}
