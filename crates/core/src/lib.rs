//! # bdps-core
//!
//! The paper's primary contribution: message scheduling strategies that let a
//! content-based publish/subscribe overlay deliver as many messages as
//! possible within publisher- or subscriber-specified delay bounds, without
//! inflating network traffic.
//!
//! * [`config`] — scheduler configuration: strategy choice, the EBPC weight
//!   `r`, the invalid-message detection policy (ε), the per-broker processing
//!   delay `PD` and the average message size used for the `FT` estimate;
//! * [`metrics`] — the success probability (eq. 5), Expected Benefit
//!   (eq. 3), delayed Expected Benefit `EB'` (eq. 8), Postponing Cost
//!   (eq. 9) and EBPC (eq. 10) computations, evaluated once per
//!   [`SuccessClass`](queue::SuccessClass) of a queued copy;
//! * [`queue`] — per-neighbour output queues of
//!   [`QueuedMessage`](queue::QueuedMessage)s (targets grouped into success
//!   classes) with strategy-driven selection and expired/unlikely-message purging
//!   (eq. 11);
//! * [`strategy`] — the pluggable scheduling surface: the
//!   [`SchedulingStrategy`](strategy::SchedulingStrategy) trait (one
//!   `priority` per queued copy, scored into the queue's reusable
//!   [`ClassScratch`](metrics::ClassScratch)), the five paper
//!   strategies (FIFO, minimum Remaining Lifetime first, maximum EB first,
//!   maximum PC first, maximum EBPC first), the non-paper
//!   [`WeightedComposite`](strategy::WeightedComposite) blend, the type-erased
//!   [`StrategyHandle`](strategy::StrategyHandle) threaded through
//!   configs/queues/brokers, whose
//!   [`from_name`](strategy::StrategyHandle::from_name) CLI binaries and sweeps
//!   use. User-defined strategies implement the trait outside this crate and plug
//!   in through a handle — no core changes required;
//! * [`broker`] — the broker state machine of Fig. 2: matching arrivals
//!   against the subscription table, local delivery, enqueueing to
//!   downstream neighbours and choosing what to send when a link frees up;
//! * [`objective`] — the system objectives: delivery rate (eq. 1) for the
//!   PSD scenario and total earning (eq. 2) for the SSD scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod broker;
pub mod config;
pub mod metrics;
pub mod objective;
pub mod queue;
pub mod strategy;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::broker::BrokerState;
    pub use crate::config::{InvalidDetection, SchedulerConfig, StrategyKind};
    pub use crate::queue::{MatchedTarget, QueuedMessage};
    pub use crate::strategy::{SchedulingStrategy, StrategyHandle, WeightedComposite};
}
