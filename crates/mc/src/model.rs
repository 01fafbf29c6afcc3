//! Tiny checkable models and the {layout × forwarding} cells they are
//! explored under.
//!
//! A [`McModel`] is a complete, deterministic description of a miniature
//! BDPS deployment: a line or star of at most [`MAX_BROKERS`] brokers with
//! fixed-rate links, explicitly placed publishers and subscribers,
//! deterministic publication arrivals, and an optional list of explicit
//! scenario events (link flaps, joins/leaves, rate changes). The model is
//! small enough that the explorer can enumerate **every** ordering of
//! simultaneous events within the configured budgets.
//!
//! [`McModel::build`] materialises the model into a [`Simulation`] for one
//! [`CheckCell`] — the reference engine, the production engine, or the
//! production engine under aggregate forwarding — through the same
//! `SimulationBuilder` every other run uses (`try_build_on` over the
//! hand-made line or star, `drain_grace` set on the builder because a
//! `SimulationConfig` does not carry it). Exploring every cell of
//! [`CheckCell::all`] exhaustively cross-checks the configurations the
//! integration-level differential oracles only sample.

use bdps_core::config::{SchedulerConfig, StrategyKind};
use bdps_net::bandwidth::FixedRate;
use bdps_net::link::LinkQuality;
use bdps_net::linkmodel::LinkModelKind;
use bdps_overlay::sparse::TableLayout;
use bdps_overlay::topology::Topology;
use bdps_sim::engine::{ForwardingMode, Simulation};
use bdps_sim::scenario::{DynamicScenario, ScenarioAction};
use bdps_sim::workload::{ArrivalKind, WorkloadConfig};
use bdps_stats::rng::SimRng;
use bdps_types::id::{BrokerId, PublisherId, SubscriberId};
use bdps_types::time::Duration;

#[cfg(feature = "fault-injection")]
use bdps_sim::engine::InjectedFault;

/// Maximum brokers a checkable model may have.
pub const MAX_BROKERS: usize = 4;
/// Maximum subscriptions a checkable model may have.
pub const MAX_SUBSCRIPTIONS: usize = 6;
/// Maximum model events (publications plus explicit scenario events).
pub const MAX_EVENTS: usize = 10;

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

/// One engine configuration a model is checked under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CheckCell {
    /// The subscription-table layout, which selects the engine: dense is
    /// the full-rebuild reference, sparse the incremental production path.
    pub layout: TableLayout,
    /// How publish-time matching scopes copies. Aggregate forwarding only
    /// pairs with the sparse layout (the dense combination is rejected by
    /// the engine), so [`all`](Self::all) has no aggregate × dense cell.
    pub forwarding: ForwardingMode,
}

impl CheckCell {
    /// Every cell, reference first: `dense`, `sparse`, `sparse/aggregate`.
    pub fn all() -> Vec<CheckCell> {
        let cell = |layout, forwarding| CheckCell { layout, forwarding };
        vec![
            cell(TableLayout::Dense, ForwardingMode::Exact),
            cell(TableLayout::Sparse, ForwardingMode::Exact),
            cell(TableLayout::Sparse, ForwardingMode::Aggregate),
        ]
    }

    /// Stable cell name: the layout's, with an `"/aggregate"` part under
    /// aggregate forwarding.
    pub fn name(&self) -> String {
        match self.forwarding {
            ForwardingMode::Exact => self.layout.name().to_string(),
            ForwardingMode::Aggregate => {
                format!("{}/{}", self.layout.name(), self.forwarding.name())
            }
        }
    }

    /// Parses a [`name`](Self::name)-formatted cell (the forwarding part is
    /// optional and defaults to exact).
    pub fn from_name(name: &str) -> Option<CheckCell> {
        let mut parts = name.split('/');
        let layout = TableLayout::from_name(parts.next()?)?;
        let forwarding = match parts.next() {
            Some(part) => ForwardingMode::from_name(part)?,
            None => ForwardingMode::Exact,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(CheckCell { layout, forwarding })
    }
}

impl std::fmt::Display for CheckCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A tiny, fully deterministic BDPS model for exhaustive checking.
#[derive(Debug, Clone)]
pub struct McModel {
    /// Display name, carried into counterexample traces.
    pub name: String,
    /// The overlay shape.
    pub topology: ModelTopology,
    /// Fixed per-KB link rate (ms/KB) of every link; deterministic transfer
    /// times keep the branching confined to genuinely simultaneous events.
    pub link_rate_ms_per_kb: f64,
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
    /// Message size (KB); with fixed-rate links this pins transfer times.
    pub message_size_kb: f64,
    /// Explicit scenario events (link flaps, joins/leaves, rate changes).
    pub events: Vec<(Duration, ScenarioAction)>,
    /// Scheduling strategy brokers select transmissions with.
    pub strategy: StrategyKind,
    /// The link transfer-time model (constant delay by default). Under
    /// [`LinkModelKind::FairShare`] same-instant copies contend on one link
    /// instead of serialising, so the explorer also covers flow-admission
    /// interleavings.
    pub link_model: LinkModelKind,
    /// Seed for subscription filters and message contents.
    pub seed: u64,
    /// How long past the publication period the model keeps draining.
    pub drain_grace: Duration,
    /// Whether quiescence must find nothing queued, in flight or
    /// mid-processing. Set false for models that deliberately end with a
    /// dead link holding a backlog.
    pub require_quiescence: bool,
    /// Deliberately broken invariant to arm (explorer self-test).
    #[cfg(feature = "fault-injection")]
    pub fault: Option<InjectedFault>,
}

impl McModel {
    /// A model skeleton with sane defaults: 50 KB messages, 20 ms/KB links
    /// (1 s per hop), four publications per publisher 5 s apart, a generous
    /// drain grace, full quiescence required.
    pub fn named(name: impl Into<String>, topology: ModelTopology) -> Self {
        McModel {
            name: name.into(),
            topology,
            link_rate_ms_per_kb: 20.0,
            publishers: Vec::new(),
            subscribers: Vec::new(),
            publications_per_publisher: 4,
            publish_gap: Duration::from_secs(5),
            message_size_kb: 50.0,
            events: Vec::new(),
            strategy: StrategyKind::Fifo,
            link_model: LinkModelKind::default(),
            seed: 1,
            drain_grace: Duration::from_secs(600),
            require_quiescence: true,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Total model events: publications plus explicit scenario events.
    pub fn event_count(&self) -> usize {
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
    pub fn duration(&self) -> Duration {
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
    /// the configuration (an aggregate × dense cell, a scenario event naming
    /// a link the shape does not have) — model bounds are authoring errors,
    /// not runtime conditions.
    pub fn build(&self, cell: CheckCell) -> Simulation {
        self.validate().expect("invalid mc model");
        let rate = self.link_rate_ms_per_kb;
        let mut topo_rng = SimRng::seed_from(self.seed);
        let mut topo = match self.topology {
            ModelTopology::Line(n) => {
                Topology::line(n, &mut topo_rng, |_| LinkQuality::new(FixedRate::new(rate)))
            }
            ModelTopology::Star(n) => {
                Topology::star(n, &mut topo_rng, |_| LinkQuality::new(FixedRate::new(rate)))
            }
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
        workload.message_size_kb = self.message_size_kb;
        workload.arrivals = ArrivalKind::Deterministic;

        let mut scenario = DynamicScenario::named(self.name.clone());
        for (at, action) in &self.events {
            scenario = scenario.at(*at, action.clone());
        }

        #[allow(unused_mut)]
        let mut sim = Simulation::builder()
            .workload(workload)
            .scheduler(SchedulerConfig::paper(self.strategy))
            .scenario(scenario)
            .table_layout(cell.layout)
            .link_model(self.link_model)
            .forwarding(cell.forwarding)
            .drain_grace(self.drain_grace)
            .try_build_on(topo, SimRng::seed_from(self.seed))
            .unwrap_or_else(|e| panic!("invalid mc model: {e}"));
        #[cfg(feature = "fault-injection")]
        if let Some(fault) = self.fault {
            sim.inject_fault(fault);
        }
        sim
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
    fn the_three_cells_are_named_and_round_trip() {
        let cells = CheckCell::all();
        let names: Vec<String> = cells.iter().map(|c| c.name()).collect();
        assert_eq!(names, ["dense", "sparse", "sparse/aggregate"]);
        for cell in &cells {
            assert_eq!(CheckCell::from_name(&cell.name()), Some(*cell));
        }
        assert!(CheckCell::from_name("bogus").is_none());
        assert!(CheckCell::from_name("sparse/bogus").is_none());
        assert!(CheckCell::from_name("sparse/aggregate/extra").is_none());
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
        for cell in CheckCell::all() {
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
