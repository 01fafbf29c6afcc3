//! # bdps-sim
//!
//! The discrete-event simulator that reproduces the paper's evaluation
//! (§6): it builds an overlay topology, populates publishers and subscribers
//! according to the workload description of §6.1, drives every broker's
//! [`bdps_core::BrokerState`] through publish / arrival / transmission
//! events, and reports the paper's three metrics — delivery rate, total
//! earning and message number.
//!
//! * [`workload`] — workload configuration and generators (publishing rate,
//!   message heads, subscription filters, PSD/SSD delay requirements);
//! * [`engine`] — the [`Simulation`]: its one fallible constructor
//!   (crate-private, reached through the builder, so a `Simulation` is
//!   complete the moment it exists), the run loop and the stepping API;
//!   events, errors, outcome types and the audits are private modules
//!   re-exported from it. State is four groups split by who may write them:
//!   the **traffic core** (brokers, event queue, per-publisher / per-link
//!   streams, link occupancy, clock), the **shared context** only scenario
//!   actions mutate (topology, filter index, link liveness, rates,
//!   population registry), the **scenario core** traffic never touches
//!   (population, routing and its repair) and the **order-sensitive totals**
//!   (objective tracker, phases, delay summary). Two cores, one sink: the
//!   traffic handlers (the paper's broker loop) and the scenario handlers
//!   (everything around it) are each written once against (core, shared,
//!   effect sink);
//! * [`shard`] — the sharded executor: conservative `PD`-lookahead windows
//!   over per-shard traffic cores running those same handlers;
//! * [`sched`] — the event scheduler: the binary [`EventHeap`] every
//!   engine runs on, behind the [`EventQueue`] contract its tests hold it to
//!   against a plain `Vec` model;
//! * [`scenario`] — dynamic scenarios (subscription churn, publisher
//!   bursts, link failures, blackouts) materialised into a deterministic
//!   event stream, and the built-ins by name
//!   ([`DynamicScenario::from_name`]);
//! * [`builder`] — the fluent [`SimulationBuilder`] experiment API
//!   (`Simulation::builder().topology(..).workload(..).strategy(..).scenario(..).seed(..)`),
//!   the one place runs are assembled and validated: `try_build` /
//!   `try_build_on` / `try_report` return a misconfiguration as a
//!   [`SimError`], `build` / `report` panic with it;
//! * [`runner`] — thin wrappers over the builder: one-call execution of a
//!   materialised config (which reproduces its builder bit for bit, bar the
//!   `drain_grace` it does not carry) plus parallel parameter sweeps across
//!   strategies, rates and seeds;
//! * [`report`] — result records and Markdown rendering helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod builder;
pub mod engine;
mod error;
mod event;
mod outcome;
pub mod report;
pub mod runner;
pub mod scenario;
mod scenario_apply;
pub mod sched;
pub mod shard;
mod traffic;
pub mod workload;

pub use bdps_net::linkmodel::LinkModelKind;
pub use builder::{SimulationBuilder, TableLayout};
#[cfg(feature = "fault-injection")]
pub use engine::InjectedFault;
pub use engine::{
    ConservationBalance, ConservationViolation, DuplicateDeliveryViolation, ForwardingMode,
    LinkLoad, PhaseOutcome, SimError, Simulation, SimulationOutcome,
};
pub use report::{render_markdown_table, LinkReport, PhaseReport, SimulationReport};
pub use runner::{run, sweep, SimulationConfig, SweepCell, TopologySpec};
pub use scenario::{DynamicScenario, ScenarioAction, ScenarioEvent};
pub use sched::{EventHeap, EventQueue, Scheduled};
pub use shard::{run_sharded, try_run_sharded};
pub use workload::{
    ArrivalKind, BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, Scenario,
    WorkloadConfig,
};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::builder::{SimulationBuilder, TableLayout};
    pub use crate::engine::{
        ForwardingMode, LinkLoad, PhaseOutcome, SimError, Simulation, SimulationOutcome,
    };
    pub use crate::report::{render_markdown_table, LinkReport, PhaseReport, SimulationReport};
    pub use crate::runner::{run, sweep, SimulationConfig, SweepCell, TopologySpec};
    pub use crate::scenario::{DynamicScenario, ScenarioAction, ScenarioEvent};
    pub use crate::sched::EventQueue;
    pub use crate::workload::{
        ArrivalKind, BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, Scenario,
        WorkloadConfig,
    };
    pub use bdps_net::linkmodel::LinkModelKind;
}
