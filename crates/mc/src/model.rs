//! Tiny checkable models and the cells they are explored under — one per
//! [`ForwardingMode`].
//!
//! A [`McModel`] is a complete, deterministic description of a miniature
//! BDPS deployment: a line or star of at most [`MAX_BROKERS`] brokers with
//! fixed-rate links carrying fixed-size messages ([`HOP_MS`] per hop),
//! explicitly placed publishers and subscribers, FIFO brokers,
//! deterministic publication arrivals, and an optional list of explicit
//! scenario events (link flaps, joins/leaves, rate changes). The model is
//! small enough that the explorer can enumerate **every** ordering of
//! simultaneous events within the configured budgets.
//!
//! [`McModel::build`] materialises the model into a [`Simulation`] for one
//! cell — exact or aggregate forwarding — through the same
//! `SimulationBuilder` every other run uses (`try_build_on` over the
//! hand-made line or star, with a generous drain grace). Exploring both
//! cells of [`ForwardingMode::ALL`] exhaustively cross-checks the
//! configurations the integration-level differential oracles only sample.

use bdps_core::config::{SchedulerConfig, StrategyKind};
use bdps_net::link::LinkQuality;
use bdps_net::linkmodel::LinkModelKind;
use bdps_overlay::topology::Topology;
use bdps_sim::engine::{ForwardingMode, Simulation};
use bdps_sim::scenario::{DynamicScenario, ScenarioAction};
use bdps_sim::workload::{ArrivalKind, WorkloadConfig};
use bdps_stats::rng::SimRng;
use bdps_types::id::{BrokerId, PublisherId, SubscriberId};
use bdps_types::time::Duration;

/// Maximum brokers a checkable model may have.
pub(crate) const MAX_BROKERS: usize = 4;
/// Maximum subscriptions a checkable model may have.
pub(crate) const MAX_SUBSCRIPTIONS: usize = 6;
/// Maximum model events (publications plus explicit scenario events).
pub(crate) const MAX_EVENTS: usize = 10;

/// Per-KB rate (ms/KB) of every link; deterministic transfer times keep the
/// branching confined to genuinely simultaneous events.
const LINK_RATE_MS_PER_KB: f64 = 20.0;
/// Size (KB) of every message; with fixed-rate links this pins transfer
/// times.
const MESSAGE_SIZE_KB: f64 = 50.0;
/// Time (ms) one copy takes to cross one link: 50 KB × 20 ms/KB = 1 s.
pub const HOP_MS: f64 = MESSAGE_SIZE_KB * LINK_RATE_MS_PER_KB;
/// How long past the publication period a model keeps draining.
const DRAIN_GRACE: Duration = Duration::from_secs(600);

/// The overlay shape of a tiny model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelTopology {
    /// `n` brokers in a line: `B0 — B1 — … — B(n-1)`. Bidirectional link
    /// pair `i` connects `Bi` and `B(i+1)` (directed ids `2i`, `2i+1`).
    Line(usize),
    /// A hub (`B0`) with `n - 1` spokes. Bidirectional link pair `i`
    /// connects the hub and spoke `B(i+1)`.
    Star(usize),
}

impl ModelTopology {
    /// Number of brokers in the shape.
    pub fn brokers(self) -> usize {
        match self {
            ModelTopology::Line(n) | ModelTopology::Star(n) => n,
        }
    }
}

/// A tiny, fully deterministic BDPS model for exhaustive checking.
#[derive(Debug, Clone)]
pub struct McModel {
    /// Display name, carried into counterexample traces.
    pub name: String,
    /// The overlay shape.
    pub topology: ModelTopology,
    /// Broker index each publisher attaches to. Every publisher publishes on
    /// the same deterministic schedule, so `k` publishers produce `k`-way
    /// same-instant publication frontiers.
    pub publishers: Vec<u32>,
    /// Broker index each subscriber attaches to (one subscription each).
    pub subscribers: Vec<u32>,
    /// Publications per publisher over the run.
    pub publications_per_publisher: u32,
    /// Gap between consecutive publications of one publisher.
    pub publish_gap: Duration,
    /// Explicit scenario events (link flaps, joins/leaves, rate changes).
    pub events: Vec<(Duration, ScenarioAction)>,
    /// The link transfer-time model (constant delay by default). Under
    /// [`LinkModelKind::FairShare`] same-instant copies contend on one link
    /// instead of serialising, so the explorer also covers flow-admission
    /// interleavings.
    pub link_model: LinkModelKind,
    /// Seed for subscription filters and message contents.
    pub seed: u64,
}

impl McModel {
    /// A model skeleton with sane defaults: four publications per publisher
    /// 5 s apart over constant-delay links.
    pub fn named(name: impl Into<String>, topology: ModelTopology) -> Self {
        McModel {
            name: name.into(),
            topology,
            publishers: Vec::new(),
            subscribers: Vec::new(),
            publications_per_publisher: 4,
            publish_gap: Duration::from_secs(5),
            events: Vec::new(),
            link_model: LinkModelKind::default(),
            seed: 1,
        }
    }

    /// Total model events: publications plus explicit scenario events.
    pub(crate) fn event_count(&self) -> usize {
        self.publishers.len() * self.publications_per_publisher as usize + self.events.len()
    }

    /// Checks the tiny-model bounds and internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.topology.brokers();
        if n == 0 || n > MAX_BROKERS {
            return Err(format!(
                "model must have 1..={MAX_BROKERS} brokers, has {n}"
            ));
        }
        if self.subscribers.is_empty() || self.subscribers.len() > MAX_SUBSCRIPTIONS {
            return Err(format!(
                "model must have 1..={MAX_SUBSCRIPTIONS} subscriptions, has {}",
                self.subscribers.len()
            ));
        }
        if self.publishers.is_empty() {
            return Err("model needs at least one publisher".into());
        }
        if self.event_count() > MAX_EVENTS {
            return Err(format!(
                "model has {} events (publications + scenario events), max {MAX_EVENTS}",
                self.event_count()
            ));
        }
        if self.publish_gap.is_zero() {
            return Err("publish gap must be positive".into());
        }
        if let Some(&b) = self
            .publishers
            .iter()
            .chain(self.subscribers.iter())
            .find(|&&b| b as usize >= n)
        {
            return Err(format!("broker index {b} out of range (model has {n})"));
        }
        Ok(())
    }

    /// The publication period implied by the publication schedule: long
    /// enough for every deterministic publication, short enough that no
    /// extra one fits.
    pub(crate) fn duration(&self) -> Duration {
        // Publications fire at gap, 2·gap, …, k·gap (each publish schedules
        // the next one gap later and the engine drops events at or past the
        // period end), so k·gap + gap/2 admits exactly k per publisher.
        let k = self.publications_per_publisher as u64;
        Duration::from_micros(self.publish_gap.as_micros() * k + self.publish_gap.as_micros() / 2)
    }

    /// Materialises the model into a ready-to-explore [`Simulation`] for one
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics when [`validate`](Self::validate) fails or the engine rejects
    /// the configuration (a scenario event naming a link the shape does not
    /// have) — model bounds are authoring errors, not runtime conditions.
    pub fn build(&self, cell: ForwardingMode) -> Simulation {
        self.validate().expect("invalid mc model");
        let mut topo_rng = SimRng::seed_from(self.seed);
        let fixed = |_: &mut SimRng| LinkQuality::fixed(LINK_RATE_MS_PER_KB);
        let mut topo = match self.topology {
            ModelTopology::Line(n) => Topology::line(n, &mut topo_rng, fixed),
            ModelTopology::Star(n) => Topology::star(n, &mut topo_rng, fixed),
        };
        for (i, &b) in self.publishers.iter().enumerate() {
            let p = PublisherId::new(i as u32);
            let broker = BrokerId::new(b);
            topo.graph.attach_publisher(broker, p);
            topo.publishers.push((p, broker));
        }
        for (i, &b) in self.subscribers.iter().enumerate() {
            let s = SubscriberId::new(i as u32);
            let broker = BrokerId::new(b);
            topo.graph.attach_subscriber(broker, s);
            topo.subscribers.push((s, broker));
        }

        let gap_secs = self.publish_gap.as_millis_f64() / 1_000.0;
        let mut workload = WorkloadConfig::paper_ssd(60.0 / gap_secs);
        workload.duration = self.duration();
        workload.message_size_kb = MESSAGE_SIZE_KB;
        workload.arrivals = ArrivalKind::Deterministic;

        let mut scenario = DynamicScenario::named(self.name.clone());
        for (at, action) in &self.events {
            scenario = scenario.at(*at, action.clone());
        }

        Simulation::builder()
            .workload(workload)
            .scheduler(SchedulerConfig::paper(StrategyKind::Fifo))
            .scenario(scenario)
            .link_model(self.link_model)
            .forwarding(cell)
            .drain_grace(DRAIN_GRACE)
            .try_build_on(topo, SimRng::seed_from(self.seed))
            .unwrap_or_else(|e| panic!("invalid mc model: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> McModel {
        let mut m = McModel::named("tiny", ModelTopology::Line(3));
        m.publishers = vec![0, 2];
        m.subscribers = vec![0, 1, 1, 2];
        m
    }

    #[test]
    fn model_bounds_are_enforced() {
        let m = tiny();
        m.validate().unwrap();
        assert_eq!(m.event_count(), 8);

        let mut too_many_brokers = tiny();
        too_many_brokers.topology = ModelTopology::Line(5);
        assert!(too_many_brokers.validate().is_err());

        let mut too_many_subs = tiny();
        too_many_subs.subscribers = vec![0; 7];
        assert!(too_many_subs.validate().is_err());

        let mut too_many_events = tiny();
        too_many_events.publications_per_publisher = 6;
        assert!(too_many_events.validate().is_err());

        let mut bad_index = tiny();
        bad_index.subscribers = vec![3];
        assert!(bad_index.validate().is_err());
    }

    #[test]
    fn built_model_publishes_exactly_the_declared_events() {
        let m = tiny();
        for cell in ForwardingMode::ALL {
            let out = m.build(cell).run();
            assert_eq!(
                out.published,
                8,
                "2 publishers × 4 publications ({})",
                cell.name()
            );
            out.check_conservation().unwrap();
            out.check_no_duplicates().unwrap();
        }
    }
}
