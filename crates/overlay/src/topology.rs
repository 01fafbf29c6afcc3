//! Topology generators.
//!
//! The paper evaluates on a layered mesh of 32 brokers (Fig. 3): 4 first-layer
//! brokers each serving one publisher, 4 second-layer brokers connected to all
//! first-layer brokers, 8 third-layer brokers each connected to 2 random
//! second-layer brokers, and 16 fourth-layer brokers each connected to 2
//! random third-layer brokers and serving 10 subscribers each (160 total).
//! [`LayeredMeshConfig::paper`] reproduces exactly that; other generators
//! (acyclic tree, random mesh, line, star) support tests, examples and
//! sensitivity studies.

use crate::graph::OverlayGraph;
use bdps_net::link::LinkQuality;
use bdps_stats::rng::SimRng;
use bdps_types::error::{BdpsError, Result};
use bdps_types::id::{BrokerId, PublisherId, SubscriberId};

/// Configuration of a layered mesh topology in the style of the paper's Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredMeshConfig {
    /// Number of brokers in each layer, from the publisher side (layer 0)
    /// down to the subscriber side.
    pub layer_sizes: Vec<usize>,
    /// For each layer after the first: how many brokers of the previous layer
    /// each broker connects to. `0` means "all of them".
    pub fan_in: Vec<usize>,
    /// Number of publishers attached to each broker of the first layer.
    pub publishers_per_first_layer_broker: usize,
    /// Number of subscribers attached to each broker of the last layer.
    pub subscribers_per_edge_broker: usize,
}

impl LayeredMeshConfig {
    /// The exact configuration of the paper's simulated network (§6.1).
    pub fn paper() -> Self {
        LayeredMeshConfig {
            layer_sizes: vec![4, 4, 8, 16],
            fan_in: vec![0, 2, 2],
            publishers_per_first_layer_broker: 1,
            subscribers_per_edge_broker: 10,
        }
    }

    /// A scaled-down configuration used by fast tests and examples.
    pub fn small() -> Self {
        LayeredMeshConfig {
            layer_sizes: vec![2, 2, 4],
            fan_in: vec![0, 2],
            publishers_per_first_layer_broker: 1,
            subscribers_per_edge_broker: 3,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.layer_sizes.is_empty() || self.layer_sizes.contains(&0) {
            return Err(BdpsError::InvalidConfig(
                "every layer must contain at least one broker".into(),
            ));
        }
        if self.fan_in.len() + 1 != self.layer_sizes.len() {
            return Err(BdpsError::InvalidConfig(format!(
                "fan_in must have {} entries (one per non-first layer), got {}",
                self.layer_sizes.len() - 1,
                self.fan_in.len()
            )));
        }
        for (i, &f) in self.fan_in.iter().enumerate() {
            if f > self.layer_sizes[i] {
                return Err(BdpsError::InvalidConfig(format!(
                    "layer {} requests fan-in {} but the previous layer only has {} brokers",
                    i + 1,
                    f,
                    self.layer_sizes[i]
                )));
            }
        }
        Ok(())
    }

    /// Total number of brokers.
    pub fn broker_count(&self) -> usize {
        self.layer_sizes.iter().sum()
    }

    /// Total number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.layer_sizes.last().copied().unwrap_or(0) * self.subscribers_per_edge_broker
    }

    /// Total number of publishers.
    pub fn publisher_count(&self) -> usize {
        self.layer_sizes.first().copied().unwrap_or(0) * self.publishers_per_first_layer_broker
    }
}

/// A constructed topology: the overlay graph plus the publisher/subscriber population.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The broker overlay.
    pub graph: OverlayGraph,
    /// All publishers with the broker each is attached to.
    pub publishers: Vec<(PublisherId, BrokerId)>,
    /// All subscribers with the broker each is attached to.
    pub subscribers: Vec<(SubscriberId, BrokerId)>,
}

impl Topology {
    /// Builds a layered mesh with link qualities drawn by `make_quality`
    /// (called once per broker pair; both directions share the quality, as in
    /// the paper's model).
    pub fn layered_mesh(
        config: &LayeredMeshConfig,
        rng: &mut SimRng,
        mut make_quality: impl FnMut(&mut SimRng) -> LinkQuality,
    ) -> Result<Topology> {
        config.validate()?;
        let mut graph = OverlayGraph::new();

        // Create brokers layer by layer.
        let mut layers: Vec<Vec<BrokerId>> = Vec::with_capacity(config.layer_sizes.len());
        for (layer_idx, &size) in config.layer_sizes.iter().enumerate() {
            let mut layer = Vec::with_capacity(size);
            for _ in 0..size {
                layer.push(graph.add_broker(Some(layer_idx as u32)));
            }
            layers.push(layer);
        }

        // Connect each layer to the previous one.
        for (i, &fan_in) in config.fan_in.iter().enumerate() {
            let upper = layers[i].clone();
            let lower = layers[i + 1].clone();
            for &b in &lower {
                let parents: Vec<BrokerId> = if fan_in == 0 || fan_in >= upper.len() {
                    upper.clone()
                } else {
                    rng.choose_distinct(upper.len(), fan_in)
                        .into_iter()
                        .map(|idx| upper[idx])
                        .collect()
                };
                for p in parents {
                    let q = make_quality(rng);
                    graph.add_bidirectional_link(p, b, q);
                }
            }
        }

        // Attach publishers to the first layer and subscribers to the last.
        let mut publishers = Vec::new();
        let mut next_pub = 0u32;
        for &b in &layers[0] {
            for _ in 0..config.publishers_per_first_layer_broker {
                let p = PublisherId::new(next_pub);
                next_pub += 1;
                graph.attach_publisher(b, p);
                publishers.push((p, b));
            }
        }
        let mut subscribers = Vec::new();
        let mut next_sub = 0u32;
        for &b in layers.last().expect("at least one layer") {
            for _ in 0..config.subscribers_per_edge_broker {
                let s = SubscriberId::new(next_sub);
                next_sub += 1;
                graph.attach_subscriber(b, s);
                subscribers.push((s, b));
            }
        }

        graph.validate()?;
        Ok(Topology {
            graph,
            publishers,
            subscribers,
        })
    }

    /// The paper's simulated network: `LayeredMeshConfig::paper()` with
    /// per-link mean rates drawn uniformly from [50, 100] ms/KB and σ = 20 ms/KB.
    pub fn paper_topology(rng: &mut SimRng) -> Topology {
        Topology::layered_mesh(&LayeredMeshConfig::paper(), rng, LinkQuality::paper_random)
            .expect("paper configuration is valid")
    }

    /// An acyclic (tree) overlay in the style of the paper's Fig. 1(a): a
    /// balanced tree of the given depth and branching factor, with one
    /// publisher at the root broker and `subscribers_per_leaf` subscribers on
    /// every leaf broker.
    pub fn acyclic_tree(
        depth: usize,
        branching: usize,
        subscribers_per_leaf: usize,
        rng: &mut SimRng,
        mut make_quality: impl FnMut(&mut SimRng) -> LinkQuality,
    ) -> Topology {
        assert!(depth >= 1 && branching >= 1);
        let mut graph = OverlayGraph::new();
        let root = graph.add_broker(Some(0));
        let mut frontier = vec![root];
        for level in 1..depth {
            let mut next = Vec::new();
            for &parent in &frontier {
                for _ in 0..branching {
                    let child = graph.add_broker(Some(level as u32));
                    let q = make_quality(rng);
                    graph.add_bidirectional_link(parent, child, q);
                    next.push(child);
                }
            }
            frontier = next;
        }
        let mut publishers = Vec::new();
        let p = PublisherId::new(0);
        graph.attach_publisher(root, p);
        publishers.push((p, root));

        let mut subscribers = Vec::new();
        let mut next_sub = 0u32;
        for &leaf in &frontier {
            for _ in 0..subscribers_per_leaf {
                let s = SubscriberId::new(next_sub);
                next_sub += 1;
                graph.attach_subscriber(leaf, s);
                subscribers.push((s, leaf));
            }
        }
        Topology {
            graph,
            publishers,
            subscribers,
        }
    }

    /// A connected random mesh of `n` brokers: a random spanning tree plus
    /// extra random links until the requested average degree is reached.
    pub fn random_mesh(
        n: usize,
        avg_degree: f64,
        rng: &mut SimRng,
        mut make_quality: impl FnMut(&mut SimRng) -> LinkQuality,
    ) -> Topology {
        assert!(n >= 2, "a mesh needs at least two brokers");
        let mut graph = OverlayGraph::new();
        let brokers: Vec<BrokerId> = (0..n).map(|_| graph.add_broker(None)).collect();

        // Random spanning tree: connect each broker to a random earlier one.
        for i in 1..n {
            let j = rng.uniform_usize(0, i);
            let q = make_quality(rng);
            graph.add_bidirectional_link(brokers[j], brokers[i], q);
        }
        // Extra links up to the requested average (undirected) degree.
        let target_undirected = ((avg_degree * n as f64) / 2.0).round() as usize;
        let mut undirected_count = n - 1;
        let mut attempts = 0;
        while undirected_count < target_undirected && attempts < 20 * n {
            attempts += 1;
            let a = brokers[rng.uniform_usize(0, n)];
            let b = brokers[rng.uniform_usize(0, n)];
            if a == b || graph.link_between(a, b).is_some() {
                continue;
            }
            let q = make_quality(rng);
            graph.add_bidirectional_link(a, b, q);
            undirected_count += 1;
        }
        Topology {
            graph,
            publishers: Vec::new(),
            subscribers: Vec::new(),
        }
    }

    /// A line of `n` brokers, handy for analytic tests.
    pub fn line(
        n: usize,
        rng: &mut SimRng,
        mut make_quality: impl FnMut(&mut SimRng) -> LinkQuality,
    ) -> Topology {
        assert!(n >= 1);
        let mut graph = OverlayGraph::new();
        let brokers: Vec<BrokerId> = (0..n).map(|_| graph.add_broker(None)).collect();
        for w in brokers.windows(2) {
            let q = make_quality(rng);
            graph.add_bidirectional_link(w[0], w[1], q);
        }
        Topology {
            graph,
            publishers: Vec::new(),
            subscribers: Vec::new(),
        }
    }

    /// A star with one hub and `n - 1` spokes.
    pub fn star(
        n: usize,
        rng: &mut SimRng,
        mut make_quality: impl FnMut(&mut SimRng) -> LinkQuality,
    ) -> Topology {
        assert!(n >= 2);
        let mut graph = OverlayGraph::new();
        let hub = graph.add_broker(Some(0));
        for _ in 1..n {
            let spoke = graph.add_broker(Some(1));
            let q = make_quality(rng);
            graph.add_bidirectional_link(hub, spoke, q);
        }
        Topology {
            graph,
            publishers: Vec::new(),
            subscribers: Vec::new(),
        }
    }

    /// The broker a subscriber attaches to.
    pub fn subscriber_broker(&self, s: SubscriberId) -> Option<BrokerId> {
        self.subscribers
            .iter()
            .find(|(id, _)| *id == s)
            .map(|(_, b)| *b)
    }

    /// The broker a publisher attaches to.
    pub fn publisher_broker(&self, p: PublisherId) -> Option<BrokerId> {
        self.publishers
            .iter()
            .find(|(id, _)| *id == p)
            .map(|(_, b)| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_net::bandwidth::FixedRate;

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::new(FixedRate::new(60.0))
    }

    #[test]
    fn paper_topology_matches_section_6_1() {
        let mut rng = SimRng::seed_from(1);
        let topo = Topology::paper_topology(&mut rng);
        let g = &topo.graph;
        assert_eq!(g.broker_count(), 32);
        assert_eq!(topo.publishers.len(), 4);
        assert_eq!(topo.subscribers.len(), 160);
        assert_eq!(g.publisher_brokers().len(), 4);
        assert_eq!(g.edge_brokers().len(), 16);
        // Directed links: L2 fully meshed to L1 = 4*4, L3 2 each = 16, L4 2 each = 32;
        // undirected pairs = 16 + 16 + 32 = 64, directed = 128.
        assert_eq!(g.link_count(), 128);
        // Layers recorded correctly.
        assert_eq!(g.broker(BrokerId::new(0)).layer, Some(0));
        assert_eq!(g.broker(BrokerId::new(31)).layer, Some(3));
        // Every L4 broker serves exactly 10 subscribers.
        for b in g.edge_brokers() {
            assert_eq!(g.broker(b).subscribers.len(), 10);
        }
        assert!(g.validate().is_ok());
        // Link rates within the configured ranges.
        for l in g.links() {
            let d = l.quality.rate_distribution();
            assert!((50.0..100.0).contains(&d.mean()));
            assert!((d.std_dev() - 20.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_topology_is_deterministic_per_seed() {
        let t1 = Topology::paper_topology(&mut SimRng::seed_from(7));
        let t2 = Topology::paper_topology(&mut SimRng::seed_from(7));
        assert_eq!(t1.graph.link_count(), t2.graph.link_count());
        for (a, b) in t1.graph.links().zip(t2.graph.links()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert_eq!(
                a.quality.rate_distribution().mean(),
                b.quality.rate_distribution().mean()
            );
        }
    }

    #[test]
    fn small_config_and_counts() {
        let cfg = LayeredMeshConfig::small();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.broker_count(), 8);
        assert_eq!(cfg.publisher_count(), 2);
        assert_eq!(cfg.subscriber_count(), 12);
        let mut rng = SimRng::seed_from(2);
        let topo = Topology::layered_mesh(&cfg, &mut rng, fixed_quality).unwrap();
        assert_eq!(topo.graph.broker_count(), 8);
        assert_eq!(topo.subscribers.len(), 12);
        assert!(topo.graph.validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut bad = LayeredMeshConfig::paper();
        bad.layer_sizes[1] = 0;
        assert!(bad.validate().is_err());

        let mut bad_fanin = LayeredMeshConfig::paper();
        bad_fanin.fan_in = vec![0, 2];
        assert!(bad_fanin.validate().is_err());

        let mut too_many = LayeredMeshConfig::small();
        too_many.fan_in = vec![0, 100];
        assert!(too_many.validate().is_err());
    }

    #[test]
    fn acyclic_tree_structure() {
        let mut rng = SimRng::seed_from(3);
        let topo = Topology::acyclic_tree(3, 2, 2, &mut rng, fixed_quality);
        // 1 + 2 + 4 brokers, 6 undirected links.
        assert_eq!(topo.graph.broker_count(), 7);
        assert_eq!(topo.graph.link_count(), 12);
        assert_eq!(topo.publishers.len(), 1);
        assert_eq!(topo.subscribers.len(), 8);
        assert!(topo.graph.validate().is_ok());
        assert_eq!(
            topo.publisher_broker(PublisherId::new(0)),
            Some(BrokerId::new(0))
        );
    }

    #[test]
    fn random_mesh_is_connected() {
        let mut rng = SimRng::seed_from(4);
        let topo = Topology::random_mesh(20, 3.0, &mut rng, fixed_quality);
        assert_eq!(topo.graph.broker_count(), 20);
        assert!(topo.graph.is_connected());
        assert!(topo.graph.link_count() >= 2 * 19);
    }

    #[test]
    fn line_and_star() {
        let mut rng = SimRng::seed_from(5);
        let line = Topology::line(5, &mut rng, fixed_quality);
        assert_eq!(line.graph.broker_count(), 5);
        assert_eq!(line.graph.link_count(), 8);
        let star = Topology::star(6, &mut rng, fixed_quality);
        assert_eq!(star.graph.broker_count(), 6);
        assert_eq!(star.graph.neighbors(BrokerId::new(0)).len(), 5);
    }

    #[test]
    fn attachment_lookup() {
        let mut rng = SimRng::seed_from(6);
        let topo = Topology::paper_topology(&mut rng);
        let (s, b) = topo.subscribers[42];
        assert_eq!(topo.subscriber_broker(s), Some(b));
        assert_eq!(topo.subscriber_broker(SubscriberId::new(9_999)), None);
        let (p, pb) = topo.publishers[2];
        assert_eq!(topo.publisher_broker(p), Some(pb));
    }
}
