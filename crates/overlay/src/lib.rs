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
//! * [`subtable`] — construction of each broker's subscription table
//!   `{(subscriber, filter, dl, pr, nb, NN_p, μ_p, σ_p²)}`;
//! * [`sparse`] — the sparse covering-aggregated table layout
//!   ([`TableLayout`], [`SparseTable`], the shared [`SharedPopulation`]
//!   registry and the layout-agnostic [`BrokerTable`]): per-broker state
//!   sublinear in the global population, pinned bit-identical to the dense
//!   oracle.

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
    AggregateEntry, BrokerTable, PopulationHandle, QosEnvelope, ResolvedEntry, SharedPopulation,
    SparseTable, TableLayout,
};
pub use subtable::{RetargetOutcome, SubTableEntry, SubscriptionTable};
pub use topology::{LayeredMeshConfig, Topology};

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::graph::{BrokerNode, OverlayGraph};
    pub use crate::pathstats::PathStats;
    pub use crate::routing::{RouteDelta, RouteEntry, Routing};
    pub use crate::sparse::{
        BrokerTable, PopulationHandle, QosEnvelope, ResolvedEntry, SharedPopulation, SparseTable,
        TableLayout,
    };
    pub use crate::subtable::{RetargetOutcome, SubTableEntry, SubscriptionTable};
    pub use crate::topology::{LayeredMeshConfig, Topology};
}
