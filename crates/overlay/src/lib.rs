//! # bdps-overlay
//!
//! The broker overlay network of BDPS: the graph of brokers and links, the
//! topology generators used by the paper's evaluation, single-path routing by
//! minimum mean path transmission rate, per-path statistics, and the
//! subscription table each broker keeps (paper §3.1, §3.3, §4.2).
//!
//! * [`graph`] — the overlay graph: brokers, directed links, publisher and
//!   subscriber attachment, validation;
//! * [`topology`] — generators: the paper's 32-broker layered mesh (Fig. 3),
//!   the acyclic tree of Fig. 1(a), random meshes, lines and stars;
//! * [`pathstats`] — per-path `(NN_p, μ_p, σ_p²)` statistics (§4.2);
//! * [`routing`] — destination-rooted Dijkstra over mean link rates, giving
//!   every broker a consistent next hop and path statistics per destination;
//! * [`subtable`] — the full subscription table
//!   `{(subscriber, filter, dl, pr, nb, NN_p, μ_p, σ_p²)}`: each broker's
//!   local (edge-expansion) entries, and built over the whole population
//!   the table-level oracle sparse resolution is checked against;
//! * [`sparse`] — the table every broker holds ([`SparseTable`] over the
//!   shared [`SharedPopulation`] registry): full entries for local
//!   subscribers, one route per remote destination edge, so per-broker
//!   state is sublinear in the global population.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod pathstats;
pub mod routing;
pub mod sparse;
pub mod subtable;
pub mod topology;

pub use graph::{BrokerNode, OverlayGraph};
pub use pathstats::PathStats;
pub use routing::{RouteDelta, RouteEntry, Routing};
pub use sparse::{
    AggregateEntry, PopulationHandle, QosEnvelope, ResolvedEntry, SharedPopulation, SparseTable,
};
pub use subtable::{RetargetOutcome, SubTableEntry, SubscriptionTable};
pub use topology::{LayeredMeshConfig, Topology};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::graph::{BrokerNode, OverlayGraph};
    pub use crate::pathstats::PathStats;
    pub use crate::routing::{RouteDelta, RouteEntry, Routing};
    pub use crate::sparse::{
        PopulationHandle, QosEnvelope, ResolvedEntry, SharedPopulation, SparseTable,
    };
    pub use crate::subtable::{RetargetOutcome, SubTableEntry, SubscriptionTable};
    pub use crate::topology::{LayeredMeshConfig, Topology};
}
