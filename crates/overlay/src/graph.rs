//! The overlay graph of message brokers.

use bdps_net::link::{Link, LinkQuality};
use bdps_types::error::{BdpsError, Result};
use bdps_types::id::{BrokerId, LinkId, PublisherId, SubscriberId};
use std::collections::HashSet;

/// One broker of the overlay.
#[derive(Debug, Clone)]
pub struct BrokerNode {
    /// The broker's identifier (equal to its index in the graph).
    pub id: BrokerId,
    /// The layer the broker belongs to in a layered topology, if any.
    pub layer: Option<u32>,
    /// Publishers attached directly to this broker.
    pub publishers: Vec<PublisherId>,
    /// Subscribers attached directly to this broker.
    pub subscribers: Vec<SubscriberId>,
}

impl BrokerNode {
    /// Returns true when the broker serves at least one local subscriber
    /// (an *edge* broker in the paper's mesh terminology).
    pub fn is_edge(&self) -> bool {
        !self.subscribers.is_empty()
    }

    /// Returns true when the broker has at least one attached publisher.
    pub(crate) fn is_publisher_broker(&self) -> bool {
        !self.publishers.is_empty()
    }
}

/// The overlay network: brokers plus directed links.
#[derive(Debug, Clone, Default)]
pub struct OverlayGraph {
    brokers: Vec<BrokerNode>,
    links: Vec<Link>,
    /// Outgoing links per broker (indices into `links`).
    outgoing: Vec<Vec<LinkId>>,
    /// Incoming links per broker, ascending by link id (`add_link` mints
    /// ids in increasing order and appends).
    incoming: Vec<Vec<LinkId>>,
}

impl OverlayGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a broker and returns its identifier.
    pub fn add_broker(&mut self, layer: Option<u32>) -> BrokerId {
        let id = BrokerId::new(self.brokers.len() as u32);
        self.brokers.push(BrokerNode {
            id,
            layer,
            publishers: Vec::new(),
            subscribers: Vec::new(),
        });
        self.outgoing.push(Vec::new());
        self.incoming.push(Vec::new());
        id
    }

    /// Adds a directed link and returns its identifier.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist or the link is a self-loop.
    pub fn add_link(&mut self, from: BrokerId, to: BrokerId, quality: LinkQuality) -> LinkId {
        assert!(from.index() < self.brokers.len(), "unknown broker {from}");
        assert!(to.index() < self.brokers.len(), "unknown broker {to}");
        assert_ne!(from, to, "self-loops are not allowed");
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link::new(id, from, to, quality));
        self.outgoing[from.index()].push(id);
        self.incoming[to.index()].push(id);
        id
    }

    /// Adds a pair of directed links (one per direction) sharing the same
    /// quality — the paper treats a link's transmission rate as a property of
    /// the broker pair.
    pub fn add_bidirectional_link(
        &mut self,
        a: BrokerId,
        b: BrokerId,
        quality: LinkQuality,
    ) -> (LinkId, LinkId) {
        let forward = self.add_link(a, b, quality);
        let reverse = self.add_link(b, a, quality);
        (forward, reverse)
    }

    /// Attaches a publisher to a broker.
    pub fn attach_publisher(&mut self, broker: BrokerId, publisher: PublisherId) {
        self.brokers[broker.index()].publishers.push(publisher);
    }

    /// Attaches a subscriber to a broker.
    pub fn attach_subscriber(&mut self, broker: BrokerId, subscriber: SubscriberId) {
        self.brokers[broker.index()].subscribers.push(subscriber);
    }

    /// Number of brokers.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The broker with the given identifier.
    ///
    /// # Panics
    /// Panics if the identifier is out of range.
    pub fn broker(&self, id: BrokerId) -> &BrokerNode {
        &self.brokers[id.index()]
    }

    /// The link with the given identifier.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all brokers.
    pub fn brokers(&self) -> impl Iterator<Item = &BrokerNode> {
        self.brokers.iter()
    }

    /// Iterates over all directed links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterates over the outgoing links of a broker.
    pub fn outgoing(&self, broker: BrokerId) -> impl Iterator<Item = &Link> {
        self.outgoing[broker.index()]
            .iter()
            .map(move |id| &self.links[id.index()])
    }

    /// Iterates over the incoming links of a broker in `O(in-degree)`.
    ///
    /// **Order contract:** ascending link id — exactly the order
    /// `links().filter(|l| l.to == broker)` yields. The routing Dijkstra
    /// relaxes these and breaks equal-cost ties by first relaxation, so route
    /// tables depend on this order.
    pub(crate) fn incoming(&self, broker: BrokerId) -> impl Iterator<Item = &Link> {
        self.incoming[broker.index()]
            .iter()
            .map(move |id| &self.links[id.index()])
    }

    /// The outgoing link from `from` to `to`, if one exists.
    pub fn link_between(&self, from: BrokerId, to: BrokerId) -> Option<&Link> {
        self.outgoing(from).find(|l| l.to == to)
    }

    /// Brokers that have attached publishers.
    pub fn publisher_brokers(&self) -> Vec<BrokerId> {
        self.brokers
            .iter()
            .filter(|b| b.is_publisher_broker())
            .map(|b| b.id)
            .collect()
    }

    /// Brokers that serve local subscribers (edge brokers).
    pub fn edge_brokers(&self) -> Vec<BrokerId> {
        self.brokers
            .iter()
            .filter(|b| b.is_edge())
            .map(|b| b.id)
            .collect()
    }

    /// Checks structural validity: at least one broker, no duplicate directed
    /// links, and (weak) connectivity when treating links as undirected.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.brokers.is_empty() {
            return Err(BdpsError::InvalidTopology("graph has no brokers".into()));
        }
        let mut seen = HashSet::new();
        for l in &self.links {
            if !seen.insert((l.from, l.to)) {
                return Err(BdpsError::InvalidTopology(format!(
                    "duplicate link {} -> {}",
                    l.from, l.to
                )));
            }
        }
        if self.brokers.len() > 1 && !self.is_connected() {
            return Err(BdpsError::InvalidTopology("graph is not connected".into()));
        }
        Ok(())
    }

    /// Returns true when every broker is reachable from broker 0 treating
    /// links as undirected.
    pub(crate) fn is_connected(&self) -> bool {
        if self.brokers.is_empty() {
            return true;
        }
        let n = self.brokers.len();
        let mut undirected = vec![Vec::new(); n];
        for l in &self.links {
            undirected[l.from.index()].push(l.to.index());
            undirected[l.to.index()].push(l.from.index());
        }
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &undirected[u] {
                if !visited[v] {
                    visited[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quality(rate: f64) -> LinkQuality {
        LinkQuality::fixed(rate)
    }

    fn small_graph() -> OverlayGraph {
        // B0 <-> B1 <-> B2, plus B0 -> B2 one-way shortcut.
        let mut g = OverlayGraph::new();
        let b0 = g.add_broker(Some(0));
        let b1 = g.add_broker(Some(1));
        let b2 = g.add_broker(Some(2));
        g.add_bidirectional_link(b0, b1, quality(60.0));
        g.add_bidirectional_link(b1, b2, quality(70.0));
        g.add_link(b0, b2, quality(200.0));
        g
    }

    #[test]
    fn construction_and_lookup() {
        let g = small_graph();
        assert_eq!(g.broker_count(), 3);
        assert_eq!(g.link_count(), 5);
        assert_eq!(g.broker(BrokerId::new(1)).layer, Some(1));
        let neighbors =
            |b: u32| -> Vec<BrokerId> { g.outgoing(BrokerId::new(b)).map(|l| l.to).collect() };
        assert_eq!(neighbors(0), vec![BrokerId::new(1), BrokerId::new(2)]);
        assert_eq!(neighbors(2), vec![BrokerId::new(1)]);
        assert!(g.link_between(BrokerId::new(0), BrokerId::new(2)).is_some());
        assert!(g.link_between(BrokerId::new(2), BrokerId::new(0)).is_none());
        assert_eq!(g.outgoing(BrokerId::new(0)).count(), 2);
    }

    #[test]
    fn attachment_and_role_queries() {
        let mut g = small_graph();
        g.attach_publisher(BrokerId::new(0), PublisherId::new(0));
        g.attach_subscriber(BrokerId::new(2), SubscriberId::new(0));
        g.attach_subscriber(BrokerId::new(2), SubscriberId::new(1));
        assert_eq!(g.publisher_brokers(), vec![BrokerId::new(0)]);
        assert_eq!(g.edge_brokers(), vec![BrokerId::new(2)]);
        assert!(g.broker(BrokerId::new(2)).is_edge());
        assert!(g.broker(BrokerId::new(0)).is_publisher_broker());
    }

    #[test]
    fn validation_detects_problems() {
        assert!(small_graph().validate().is_ok());

        let empty = OverlayGraph::new();
        assert!(matches!(
            empty.validate(),
            Err(BdpsError::InvalidTopology(_))
        ));

        let mut dup = OverlayGraph::new();
        let a = dup.add_broker(None);
        let b = dup.add_broker(None);
        dup.add_link(a, b, quality(10.0));
        dup.add_link(a, b, quality(10.0));
        assert!(dup.validate().is_err());

        let mut disconnected = OverlayGraph::new();
        disconnected.add_broker(None);
        disconnected.add_broker(None);
        assert!(!disconnected.is_connected());
        assert!(disconnected.validate().is_err());
    }

    #[test]
    fn incoming_equals_the_filtered_link_scan_in_order() {
        use bdps_stats::rng::SimRng;
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from(0x01C0_3146 + seed);
            let mut g = OverlayGraph::new();
            let n = rng.uniform_usize(2, 20);
            for _ in 0..n {
                g.add_broker(None);
            }
            for _ in 0..rng.uniform_usize(0, 5 * n) {
                let picked = rng.choose_distinct(n, 2);
                let (a, b) = (
                    BrokerId::new(picked[0] as u32),
                    BrokerId::new(picked[1] as u32),
                );
                if rng.chance(0.5) {
                    g.add_link(a, b, quality(50.0));
                } else {
                    g.add_bidirectional_link(a, b, quality(50.0));
                }
            }
            for v in 0..n {
                let v = BrokerId::new(v as u32);
                let fast: Vec<LinkId> = g.incoming(v).map(|l| l.id).collect();
                let scan: Vec<LinkId> = g.links().filter(|l| l.to == v).map(|l| l.id).collect();
                assert_eq!(fast, scan, "seed {seed} broker {v}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        let mut g = OverlayGraph::new();
        let a = g.add_broker(None);
        g.add_link(a, a, quality(10.0));
    }

    #[test]
    fn single_broker_is_connected() {
        let mut g = OverlayGraph::new();
        g.add_broker(None);
        assert!(g.is_connected());
        assert!(g.validate().is_ok());
    }
}
