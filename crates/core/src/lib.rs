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
//!   [`SuccessClass`] of a queued copy;
//! * [`queue`] — per-neighbour output queues of [`QueuedMessage`]s (targets
//!   grouped into success classes) with strategy-driven selection and
//!   expired/unlikely-message purging (eq. 11);
//! * [`strategy`] — the pluggable scheduling surface: the
//!   [`SchedulingStrategy`] trait (per-item `priority` plus a batch
//!   `score_all` hot-path hook), the five paper strategies (FIFO, minimum
//!   Remaining Lifetime first, maximum EB first, maximum PC first, maximum
//!   EBPC first), the non-paper [`WeightedComposite`] blend, the type-erased
//!   [`StrategyHandle`] threaded through configs/queues/brokers, and the
//!   name-based [`StrategyRegistry`] used by CLI binaries and sweeps.
//!   User-defined strategies implement the trait outside this crate and plug
//!   in through a handle — no core changes required;
//! * [`broker`] — the broker state machine of Fig. 2: matching arrivals
//!   against the subscription table, local delivery, enqueueing to
//!   downstream neighbours and choosing what to send when a link frees up;
//! * [`objective`] — the system objectives: delivery rate (eq. 1) for the
//!   PSD scenario and total earning (eq. 2) for the SSD scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod config;
pub mod metrics;
pub mod objective;
pub mod queue;
pub mod strategy;

pub use broker::{ArrivalOutcome, BrokerCounters, BrokerState, LocalDelivery, NextSend};
pub use config::{InvalidDetection, SchedulerConfig, StrategyKind};
pub use metrics::{
    expected_benefit, expected_benefit_delayed, max_success_probability, postponing_cost,
    success_probability, ClassScratch,
};
pub use objective::ObjectiveTracker;
pub use queue::{DropReason, DropRecord, MatchedTarget, OutputQueue, QueuedMessage, SuccessClass};
pub use strategy::{
    Fifo, MaxEb, MaxEbpc, MaxPc, RemainingLifetime, ScheduleContext, SchedulingStrategy,
    StrategyHandle, StrategyRegistry, WeightedComposite,
};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::broker::{ArrivalOutcome, BrokerCounters, BrokerState, LocalDelivery, NextSend};
    pub use crate::config::{InvalidDetection, SchedulerConfig, StrategyKind};
    pub use crate::objective::ObjectiveTracker;
    pub use crate::queue::{DropReason, DropRecord, MatchedTarget, OutputQueue, QueuedMessage};
    pub use crate::strategy::{
        ScheduleContext, SchedulingStrategy, StrategyHandle, StrategyRegistry, WeightedComposite,
    };
}
