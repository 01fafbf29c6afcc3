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
//!   `{(subscriber, filter, dl, pr, nb, NN_p, μ_p, σ_p²)}`, built over the
//!   whole population: the table-level oracle sparse resolution is checked
//!   against;
//! * [`sparse`] — the table every broker holds
//!   ([`SparseTable`](sparse::SparseTable) over the shared
//!   [`SharedPopulation`](sparse::SharedPopulation) registry): one route per
//!   remote destination edge and nothing else — local rows are built from the
//!   registry — so per-broker state is independent of the population.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod graph;
pub mod pathstats;
pub mod routing;
pub mod sparse;
pub mod subtable;
pub mod topology;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::sparse::{PopulationHandle, SharedPopulation, SparseTable};
}
