//! # bdps — Bounded-Delay Publish/Subscribe
//!
//! Facade crate re-exporting the whole BDPS workspace. See the README for a
//! tour and the individual crates for details:
//!
//! * [`types`] — identifiers, simulated time, attribute values, QoS.
//! * [`stats`] — the normal distribution, Poisson arrivals, the seedable RNG.
//! * [`filter`] — conjunctive content filters, covering and the matching index.
//! * [`net`] — link bandwidth models, link-sharing models, estimation error.
//! * [`overlay`] — broker overlay, topologies, routing, subscription tables.
//! * [`core`] — the pluggable `SchedulingStrategy` surface with the paper's
//!   EB / PC / EBPC strategies, the FIFO / RL baselines and the strategy
//!   registry.
//! * [`sim`] — discrete-event simulator, workloads, the fluent
//!   `Simulation::builder()` experiment API and the sweep runner.

pub use bdps_core as core;
pub use bdps_filter as filter;
pub use bdps_net as net;
pub use bdps_overlay as overlay;
pub use bdps_sim as sim;
pub use bdps_stats as stats;
pub use bdps_types as types;

/// Convenience prelude pulling in the most commonly used items of every crate.
pub mod prelude {
    pub use bdps_core::prelude::*;
    pub use bdps_filter::prelude::*;
    pub use bdps_net::prelude::*;
    pub use bdps_overlay::prelude::*;
    pub use bdps_sim::prelude::*;
    pub use bdps_stats::prelude::*;
    pub use bdps_types::prelude::*;
}
