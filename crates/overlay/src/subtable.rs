//! Broker subscription tables.
//!
//! The paper's subscription table (§4.2) has entries
//! `{(subscriber, filter, dl, pr, nb, NN_p, μ_p, σ_p²)}`: the subscription
//! itself, the neighbour `nb` through which the subscriber is reached, and
//! the statistics of the remaining path. Tables are built centrally here from
//! the topology and routing — equivalent to the subscription-propagation
//! protocol a deployed system would run, but deterministic and
//! side-effect-free, which keeps the simulator honest.
//!
//! No broker holds one: a [`SparseTable`] keeps routes only, and a broker
//! joins each registry record with the route towards its edge broker. Built
//! over the whole population, [`SubscriptionTable::build`] is the dense
//! oracle that join is checked against, through
//! [`SubscriptionTable::check_sparse`].

use crate::pathstats::PathStats;
use crate::routing::Routing;
use crate::sparse::{SharedPopulation, SparseTable};
use bdps_filter::subscription::Subscription;
use bdps_types::id::{BrokerId, LinkId, SubscriptionId};
use std::collections::HashMap;

/// One entry of a broker's subscription table.
#[derive(Debug, Clone)]
pub(crate) struct SubTableEntry {
    /// The subscription (subscriber, filter, delay bound `dl`, price `pr`).
    pub(crate) subscription: Subscription,
    /// The edge broker the subscriber attaches to.
    pub(crate) edge_broker: BrokerId,
    /// The neighbour to forward matching messages to (`nb`), or `None` when
    /// the subscriber is attached to this broker (local delivery).
    pub(crate) next_hop: Option<BrokerId>,
    /// The outgoing link towards `next_hop`, when remote.
    pub(crate) next_link: Option<LinkId>,
    /// Path statistics from this broker to the subscriber (`NN_p`, `μ_p`, `σ_p²`).
    pub(crate) stats: PathStats,
}

/// Counters of one incremental table patch
/// ([`SparseTable::sync_aggregate`](crate::sparse::SparseTable::sync_aggregate)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetargetOutcome {
    /// Entries whose routed fields (next hop, link, path statistics) were
    /// rewritten in place.
    pub(crate) retargeted: u64,
    /// Entries inserted because their edge broker became reachable.
    pub(crate) inserted: u64,
    /// Entries removed because their edge broker became unreachable.
    pub(crate) removed: u64,
}

impl RetargetOutcome {
    /// Total entries the patch touched.
    pub fn total(&self) -> u64 {
        self.retargeted + self.inserted + self.removed
    }

    /// Accumulates another patch's counters.
    pub fn absorb(&mut self, other: RetargetOutcome) {
        self.retargeted += other.retargeted;
        self.inserted += other.inserted;
        self.removed += other.removed;
    }
}

/// The subscription table of one broker.
#[derive(Debug, Clone)]
pub struct SubscriptionTable {
    entries: Vec<SubTableEntry>,
    by_id: HashMap<SubscriptionId, usize>,
}

impl SubscriptionTable {
    /// The entry for a subscription id, if present.
    pub(crate) fn entry(&self, id: SubscriptionId) -> Option<&SubTableEntry> {
        self.by_id.get(&id).map(|&i| &self.entries[i])
    }

    /// Builds the entry this broker should hold for one subscription attached
    /// at `edge`, consulting `routing` for remote subscribers. Returns `None`
    /// when the edge broker is currently unreachable (the subscription cannot
    /// be served from here until routing changes).
    pub(crate) fn entry_for(
        broker: BrokerId,
        routing: &Routing,
        sub: &Subscription,
        edge: BrokerId,
    ) -> Option<SubTableEntry> {
        if edge == broker {
            Some(SubTableEntry {
                subscription: sub.clone(),
                edge_broker: edge,
                next_hop: None,
                next_link: None,
                stats: PathStats::local(),
            })
        } else {
            routing.route(broker, edge).map(|route| SubTableEntry {
                subscription: sub.clone(),
                edge_broker: edge,
                next_hop: Some(route.next_hop),
                next_link: Some(route.next_link),
                stats: route.stats,
            })
        }
    }

    /// Builds the table of `broker` for a population of subscriptions, each
    /// attached at its edge broker. Subscriptions whose edge broker is
    /// unreachable from this broker are skipped (they can never be served
    /// from here). Subscription ids must be distinct — every population
    /// builder in the workspace guarantees that.
    pub fn build(
        broker: BrokerId,
        routing: &Routing,
        subscriptions: &[(Subscription, BrokerId)],
    ) -> SubscriptionTable {
        let entries: Vec<SubTableEntry> = subscriptions
            .iter()
            .filter_map(|(sub, edge)| Self::entry_for(broker, routing, sub, *edge))
            .collect();
        let by_id: HashMap<SubscriptionId, usize> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.subscription.id, i))
            .collect();
        debug_assert_eq!(by_id.len(), entries.len(), "duplicate subscription ids");
        SubscriptionTable { entries, by_id }
    }

    /// Holds `sparse` (same broker, registry `pop`) to this table at every
    /// id of `ids`: the id's record joined with the sparse route to its edge
    /// broker (none at the broker itself) must be exactly this table's
    /// entry, and an id with no entry here must have no record or no route.
    pub fn check_sparse(
        &self,
        sparse: &SparseTable,
        pop: &SharedPopulation,
        ids: impl IntoIterator<Item = SubscriptionId>,
    ) -> Result<(), String> {
        let broker = sparse.broker();
        for id in ids {
            let joined = pop.member(id).and_then(|record| {
                let route = if record.edge == broker {
                    (None, None, PathStats::local())
                } else {
                    let a = sparse.aggregate(record.edge)?;
                    (Some(a.next_hop), Some(a.next_link), a.stats)
                };
                Some((&record.subscription, record.edge, route))
            });
            let dense = self.entry(id).map(|e| {
                let route = (e.next_hop, e.next_link, e.stats);
                (&e.subscription, e.edge_broker, route)
            });
            if joined != dense {
                return Err(format!(
                    "broker {broker} resolves subscription {id} to {joined:?}, \
                     the dense table to {dense:?}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;
    use crate::topology::Topology;
    use bdps_filter::filter::Filter;
    use bdps_net::link::LinkQuality;
    use bdps_stats::rng::SimRng;
    use bdps_types::id::SubscriberId;
    use bdps_types::money::Price;
    use bdps_types::qos::{DelayBound, QosClass};

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::fixed(60.0)
    }

    /// A line B0 - B1 - B2 with a subscriber on B2 and one on B1.
    fn line_setup() -> (Topology, Routing, Vec<(Subscription, BrokerId)>) {
        let mut rng = SimRng::seed_from(1);
        let mut topo = Topology::line(3, &mut rng, fixed_quality);
        let s0 = SubscriberId::new(0);
        let s1 = SubscriberId::new(1);
        topo.graph.attach_subscriber(BrokerId::new(2), s0);
        topo.graph.attach_subscriber(BrokerId::new(1), s1);
        let routing = Routing::compute(&topo.graph);
        let subs = vec![
            (
                Subscription::with_qos(
                    SubscriptionId::new(0),
                    s0,
                    Filter::paper_conjunction(5.0, 5.0),
                    QosClass::new(DelayBound::from_secs(10), Price::from_units(3)),
                ),
                BrokerId::new(2),
            ),
            (
                Subscription::best_effort(
                    SubscriptionId::new(1),
                    s1,
                    Filter::paper_conjunction(9.0, 9.0),
                ),
                BrokerId::new(1),
            ),
        ];
        (topo, routing, subs)
    }

    #[test]
    fn build_produces_paper_table_fields() {
        let (_topo, routing, subs) = line_setup();
        let table = SubscriptionTable::build(BrokerId::new(0), &routing, &subs);
        assert_eq!(table.entries.len(), 2);

        let e0 = table.entry(SubscriptionId::new(0)).unwrap();
        assert_eq!(e0.next_hop, Some(BrokerId::new(1)));
        assert_eq!(e0.edge_broker, BrokerId::new(2));
        assert_eq!(e0.stats.downstream_brokers, 2);
        assert!((e0.stats.mean_rate() - 120.0).abs() < 1e-9);
        assert!(e0.next_hop.is_some());
        assert_eq!(e0.subscription.price, Price::from_units(3));

        let e1 = table.entry(SubscriptionId::new(1)).unwrap();
        assert_eq!(e1.next_hop, Some(BrokerId::new(1)));
        assert_eq!(e1.stats.downstream_brokers, 1);
    }

    #[test]
    fn local_entries_on_edge_broker() {
        let (_topo, routing, subs) = line_setup();
        let table = SubscriptionTable::build(BrokerId::new(2), &routing, &subs);
        let e0 = table.entry(SubscriptionId::new(0)).unwrap();
        assert!(e0.next_hop.is_none());
        assert_eq!(e0.stats, PathStats::local());
        // Subscription 1 lives on broker 1, reached via broker 1.
        let e1 = table.entry(SubscriptionId::new(1)).unwrap();
        assert_eq!(e1.next_hop, Some(BrokerId::new(1)));
    }

    #[test]
    fn entry_for_matches_build_semantics() {
        let (_topo, routing, subs) = line_setup();
        let (sub0, edge0) = &subs[0];
        let remote =
            SubscriptionTable::entry_for(BrokerId::new(0), &routing, sub0, *edge0).unwrap();
        assert_eq!(remote.next_hop, Some(BrokerId::new(1)));
        let local = SubscriptionTable::entry_for(BrokerId::new(2), &routing, sub0, *edge0).unwrap();
        assert!(local.next_hop.is_none());
        assert_eq!(local.stats, PathStats::local());
    }

    #[test]
    fn unreachable_edge_brokers_are_skipped() {
        // Two disconnected brokers.
        let mut g = OverlayGraph::new();
        let a = g.add_broker(None);
        let b = g.add_broker(None);
        let routing = Routing::compute(&g);
        let subs = vec![(
            Subscription::best_effort(
                SubscriptionId::new(0),
                SubscriberId::new(0),
                Filter::match_all(),
            ),
            b,
        )];
        let table = SubscriptionTable::build(a, &routing, &subs);
        assert!(table.entries.is_empty());
    }

    #[test]
    fn paper_topology_tables_reach_all_160_subscribers() {
        let mut rng = SimRng::seed_from(9);
        let topo = Topology::paper_topology(&mut rng);
        let routing = Routing::compute(&topo.graph);
        let subs: Vec<(Subscription, BrokerId)> = topo
            .subscribers
            .iter()
            .enumerate()
            .map(|(i, (s, b))| {
                (
                    Subscription::best_effort(
                        SubscriptionId::new(i as u32),
                        *s,
                        Filter::match_all(),
                    ),
                    *b,
                )
            })
            .collect();
        // Every broker must be able to reach every subscriber in the paper's mesh.
        let tables: Vec<SubscriptionTable> = (0..topo.graph.broker_count())
            .map(|i| SubscriptionTable::build(BrokerId::new(i as u32), &routing, &subs))
            .collect();
        for (broker, t) in tables.iter().enumerate() {
            assert_eq!(t.entries.len(), 160, "broker {broker} table incomplete");
        }
        // First-layer brokers must route everything downstream (no local subscribers).
        let first_layer = &tables[0];
        assert!(first_layer.entries.iter().all(|e| e.next_hop.is_some()));
    }
}
