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
//! * [`link`] — directed overlay links, each carrying one normal per-KB rate
//!   ([`LinkQuality`](link::LinkQuality)); a fixed rate (the assumption of the
//!   QRON-style related work the paper contrasts with) is the `σ = 0` case;
//! * [`linkmodel`] — the tag saying how a link shares itself among transfers: the
//!   paper's one-transfer-at-a-time link
//!   ([`LinkModelKind::Constant`](linkmodel::LinkModelKind::Constant), the
//!   oracle) or flow-level fair bandwidth sharing
//!   ([`LinkModelKind::FairShare`](linkmodel::LinkModelKind::FairShare));
//! * [`measure`] — deliberate estimation-error injection for ablation studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod link;
pub mod linkmodel;
pub mod measure;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::link::LinkQuality;
    pub use crate::linkmodel::LinkModelKind;
}
