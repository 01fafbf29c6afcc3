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
//! No broker holds one: a [`SparseTable`](crate::sparse::SparseTable) keeps
//! routes only and builds every row from the shared registry. Built over the
//! whole population, [`SubscriptionTable::build`] is the dense oracle that
//! sparse resolution is tested against.

use crate::pathstats::PathStats;
use crate::routing::Routing;
use bdps_filter::index::MatchIndex;
use bdps_filter::subscription::Subscription;
use bdps_types::id::{BrokerId, LinkId, SubscriptionId};
use bdps_types::message::MessageHead;
use std::collections::HashMap;

/// One entry of a broker's subscription table.
#[derive(Debug, Clone)]
pub struct SubTableEntry {
    /// The subscription (subscriber, filter, delay bound `dl`, price `pr`).
    pub subscription: Subscription,
    /// The edge broker the subscriber attaches to.
    pub edge_broker: BrokerId,
    /// The neighbour to forward matching messages to (`nb`), or `None` when
    /// the subscriber is attached to this broker (local delivery).
    pub next_hop: Option<BrokerId>,
    /// The outgoing link towards `next_hop`, when remote.
    pub next_link: Option<LinkId>,
    /// Path statistics from this broker to the subscriber (`NN_p`, `μ_p`, `σ_p²`).
    pub stats: PathStats,
}

/// Counters of one incremental table patch
/// ([`SparseTable::sync_aggregate`](crate::sparse::SparseTable::sync_aggregate)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetargetOutcome {
    /// Entries whose routed fields (next hop, link, path statistics) were
    /// rewritten in place.
    pub retargeted: u64,
    /// Entries inserted because their edge broker became reachable.
    pub inserted: u64,
    /// Entries removed because their edge broker became unreachable.
    pub removed: u64,
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
    broker: BrokerId,
    entries: Vec<SubTableEntry>,
    by_id: HashMap<SubscriptionId, usize>,
    index: MatchIndex,
}

impl SubscriptionTable {
    /// The broker this table belongs to.
    pub fn broker(&self) -> BrokerId {
        self.broker
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries.
    pub fn entries(&self) -> &[SubTableEntry] {
        &self.entries
    }

    /// The entry for a subscription id, if present.
    pub fn entry(&self, id: SubscriptionId) -> Option<&SubTableEntry> {
        self.by_id.get(&id).map(|&i| &self.entries[i])
    }

    /// Builds the entry this broker should hold for one subscription attached
    /// at `edge`, consulting `routing` for remote subscribers. Returns `None`
    /// when the edge broker is currently unreachable (the subscription cannot
    /// be served from here until routing changes).
    pub fn entry_for(
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

    /// Entries whose filter matches the message head.
    pub fn matching(&self, head: &MessageHead) -> Vec<&SubTableEntry> {
        self.index
            .matching(head)
            .into_iter()
            .filter_map(|id| self.entry(id))
            .collect()
    }

    /// Builds the table of `broker` for a population of subscriptions, each
    /// attached at its edge broker. Subscriptions whose edge broker is
    /// unreachable from this broker are skipped (they can never be served
    /// from here).
    pub fn build(
        broker: BrokerId,
        routing: &Routing,
        subscriptions: &[(Subscription, BrokerId)],
    ) -> SubscriptionTable {
        let entries: Vec<SubTableEntry> = subscriptions
            .iter()
            .filter_map(|(sub, edge)| Self::entry_for(broker, routing, sub, *edge))
            .collect();
        Self::from_entries(broker, entries)
    }

    /// Builds a table directly from a prepared entry list, constructing the
    /// matching index in one bulk pass (`O(n log n)`) instead of `n` sorted
    /// inserts (`O(n²)`). Entries must have distinct subscription ids —
    /// every population builder in the workspace guarantees that.
    pub fn from_entries(broker: BrokerId, entries: Vec<SubTableEntry>) -> SubscriptionTable {
        let by_id: HashMap<SubscriptionId, usize> = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.subscription.id, i))
            .collect();
        debug_assert_eq!(by_id.len(), entries.len(), "duplicate subscription ids");
        let index = MatchIndex::from_subscriptions(
            entries
                .iter()
                .map(|e| (e.subscription.id, &e.subscription.filter)),
        );
        SubscriptionTable {
            broker,
            entries,
            by_id,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OverlayGraph;
    use crate::topology::Topology;
    use bdps_filter::filter::Filter;
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;
    use bdps_stats::rng::SimRng;
    use bdps_types::id::SubscriberId;
    use bdps_types::money::Price;
    use bdps_types::qos::{DelayBound, QosClass};

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::new(FixedRate::new(60.0))
    }

    fn head(a1: f64, a2: f64) -> MessageHead {
        let mut h = MessageHead::new();
        h.set("A1", a1).set("A2", a2);
        h
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
        assert_eq!(table.len(), 2);
        assert_eq!(table.broker(), BrokerId::new(0));

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
    fn matching_and_grouping() {
        let (_topo, routing, subs) = line_setup();
        let table = SubscriptionTable::build(BrokerId::new(1), &routing, &subs);
        let split = |h: &MessageHead| {
            let mut local = Vec::new();
            let mut remote: HashMap<BrokerId, Vec<&SubTableEntry>> = HashMap::new();
            for e in table.matching(h) {
                match e.next_hop {
                    None => local.push(e),
                    Some(nb) => remote.entry(nb).or_default().push(e),
                }
            }
            (local, remote)
        };
        // A head matching both filters.
        let (local, remote) = split(&head(1.0, 1.0));
        assert_eq!(local.len(), 1); // subscription 1 is local to broker 1
        assert_eq!(remote.len(), 1);
        assert_eq!(remote[&BrokerId::new(2)].len(), 1);
        // A head matching only the wide filter.
        let (local, remote) = split(&head(7.0, 7.0));
        assert_eq!(local.len(), 1);
        assert!(remote.is_empty());
        // A head matching nothing.
        let (local, remote) = split(&head(9.5, 9.5));
        assert!(local.is_empty());
        assert!(remote.is_empty());
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
        assert!(table.is_empty());
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
        for t in &tables {
            assert_eq!(t.len(), 160, "broker {} table incomplete", t.broker());
        }
        // First-layer brokers must route everything downstream (no local subscribers).
        let first_layer = &tables[0];
        assert!(first_layer.entries().iter().all(|e| e.next_hop.is_some()));
    }
}
