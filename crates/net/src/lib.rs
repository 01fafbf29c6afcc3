//! # bdps-net
//!
//! The network substrate of BDPS: models of the *underlay* connections that
//! overlay links are built on.
//!
//! The paper (§3.2) assumes that the available bandwidth of each overlay link
//! — expressed as the *transmission rate* `TR`, the time in milliseconds
//! needed to transmit one kilobyte — follows a normal distribution whose
//! parameters each broker estimates "by some tools of network measurement".
//! This crate provides:
//!
//! * [`bandwidth`] — pluggable per-link bandwidth models: the paper's
//!   normally-distributed rate and a fixed rate (the assumption of the
//!   QRON-style related work the paper contrasts with);
//! * [`link`] — directed overlay links carrying a bandwidth model;
//! * [`linkmodel`] — pluggable transfer-time models over those links: the
//!   paper's one-transfer-at-a-time sampled delay ([`linkmodel::ConstantDelay`],
//!   the oracle) and flow-level fair bandwidth sharing
//!   ([`linkmodel::FairShare`]);
//! * [`measure`] — deliberate estimation-error injection for ablation studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod link;
pub mod linkmodel;
pub mod measure;

pub use bandwidth::{AnyBandwidth, BandwidthModel, FixedRate, NormalRate};
pub use link::{Link, LinkQuality};
pub use linkmodel::{
    ConstantDelay, FairShare, LinkModel, LinkModelKind, LinkModelRegistry, LinkSharing,
};
pub use measure::EstimationError;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::bandwidth::{AnyBandwidth, BandwidthModel, FixedRate, NormalRate};
    pub use crate::link::{Link, LinkQuality};
    pub use crate::linkmodel::{
        ConstantDelay, FairShare, LinkModel, LinkModelKind, LinkModelRegistry, LinkSharing,
    };
    pub use crate::measure::EstimationError;
}
