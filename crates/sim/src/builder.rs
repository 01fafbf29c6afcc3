//! The fluent experiment builder.
//!
//! [`SimulationBuilder`] is the one way to assemble a run — topology,
//! workload, strategy, seed — with sensible paper defaults for everything
//! left unsaid:
//!
//! ```no_run
//! use bdps_sim::engine::Simulation;
//! use bdps_core::config::StrategyKind;
//! use bdps_types::time::Duration;
//!
//! let outcome = Simulation::builder()
//!     .ssd(10.0)
//!     .duration(Duration::from_secs(600))
//!     .strategy(StrategyKind::MaxEb)
//!     .seed(42)
//!     .run();
//! println!("delivery rate: {:.1} %", outcome.delivery_rate_percent());
//! ```
//!
//! The builder is also the only way to *make* a [`Simulation`]:
//! [`try_build`](SimulationBuilder::try_build) validates the whole
//! configuration — workload, scheduler, mesh, the scenario processes'
//! parameters and every materialised scenario event —
//! and returns either a complete simulation or a [`SimError`];
//! [`try_run`](SimulationBuilder::try_run) also runs it on the
//! sequential loop.
//! [`build`](SimulationBuilder::build) and
//! [`run`](SimulationBuilder::run) are the same calls for callers who
//! would rather panic, and
//! [`try_build_on`](SimulationBuilder::try_build_on) takes a hand-made
//! [`Topology`] in place of the [`TopologySpec`].
//!
//! A builder is the whole description of a run: a
//! [`sweep`](crate::runner::sweep) cell carries one, and the sharded
//! executor takes what it builds
//! (`try_run_sharded(builder.try_build()?, n)`, see [`crate::shard`]).

use bdps_core::config::{InvalidDetection, SchedulerConfig};
use bdps_core::strategy::StrategyHandle;
use bdps_net::linkmodel::LinkModelKind;
use bdps_net::measure::EstimationError;
use bdps_overlay::topology::{LayeredMeshConfig, Topology};
use bdps_stats::rng::SimRng;
use bdps_types::error::{BdpsError, Result};
use bdps_types::time::Duration;

use crate::engine::{ForwardingMode, SimError, Simulation, SimulationOutcome};
use crate::runner::{SimulationConfig, TopologySpec};
use crate::scenario::DynamicScenario;
use crate::workload::WorkloadConfig;

/// How long past the publication period a run keeps draining unless
/// [`SimulationBuilder::drain_grace`] says otherwise.
const DEFAULT_DRAIN_GRACE: Duration = Duration::from_secs(120);

/// The subscription-table layout, which has one value: every broker holds
/// one route per remote destination edge and builds its local rows from the
/// shared registry ([`bdps_overlay::sparse::SparseTable`]).
///
/// Kept only because the benchmark harness under `benchmark/` calls
/// `.table_layout(TableLayout::Sparse)`; ROADMAP item 1d deletes it together
/// with [`SimulationBuilder::table_layout`].
#[derive(Debug, Clone, Copy)]
pub enum TableLayout {
    /// The only layout.
    Sparse,
}

/// Fluent construction of one simulation run.
///
/// Every setter returns `self`, so experiments read as a single chained
/// expression; see the [module docs](self) for an example. Defaults: the
/// paper topology, the PSD workload at rate 10, the EB strategy with the
/// paper's scheduler settings, seed 0.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    /// The run as the setters left it; [`build_config`](Self::build_config)
    /// finishes it (detection rule, duration override).
    config: SimulationConfig,
    /// Whether the user pinned the detection policy (or supplied a whole
    /// scheduler config); when they did not, the §5.4 paper rule applies:
    /// strategies without a link model only delete already-expired messages.
    detection_pinned: bool,
    /// A duration set with [`duration`](Self::duration); kept separate from
    /// the workload so it survives a later `.workload()`/`.psd()`/`.ssd()`
    /// call (setter order must not matter).
    duration_override: Option<Duration>,
    drain_grace: Duration,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder {
            config: SimulationConfig {
                topology: TopologySpec::Paper,
                workload: WorkloadConfig::paper_psd(10.0),
                scheduler: SchedulerConfig::default(),
                seed: 0,
                estimation_error: EstimationError::NONE,
                scenario: DynamicScenario::static_scenario(),
                link_model: LinkModelKind::default(),
                forwarding: ForwardingMode::default(),
            },
            detection_pinned: false,
            duration_override: None,
            drain_grace: DEFAULT_DRAIN_GRACE,
        }
    }
}

impl SimulationBuilder {
    /// Starts from the paper defaults (equivalent to `Simulation::builder()`).
    pub fn new() -> Self {
        SimulationBuilder::default()
    }

    /// Sets the overlay topology specification.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.config.topology = spec;
        self
    }

    /// Uses a layered mesh with the given configuration.
    pub fn layered_mesh(self, config: LayeredMeshConfig) -> Self {
        self.topology(TopologySpec::LayeredMesh(config))
    }

    /// Sets the full workload configuration.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.config.workload = workload;
        self
    }

    /// Uses the paper's publisher-specified-delay workload at the given
    /// publishing rate (messages per publisher per minute).
    pub fn psd(self, publishing_rate_per_min: f64) -> Self {
        self.workload(WorkloadConfig::paper_psd(publishing_rate_per_min))
    }

    /// Uses the paper's subscriber-specified-delay workload at the given
    /// publishing rate.
    pub fn ssd(self, publishing_rate_per_min: f64) -> Self {
        self.workload(WorkloadConfig::paper_ssd(publishing_rate_per_min))
    }

    /// Shortens (or lengthens) the publication period. Applies regardless of
    /// whether the workload is set before or after this call.
    pub fn duration(mut self, duration: Duration) -> Self {
        self.duration_override = Some(duration);
        self
    }

    /// Sets the scheduling strategy — a
    /// [`StrategyKind`](bdps_core::config::StrategyKind), a
    /// [`StrategyHandle`], or any type implementing
    /// [`SchedulingStrategy`](bdps_core::strategy::SchedulingStrategy).
    pub fn strategy(mut self, strategy: impl Into<StrategyHandle>) -> Self {
        self.config.scheduler.strategy = strategy.into();
        self
    }

    /// Resolves a strategy by name through [`StrategyHandle::from_name`]
    /// (`"fifo"`, `"rl"`, `"eb"`, `"pc"`, `"ebpc"`, `"composite"`, their
    /// aliases or display labels).
    pub fn strategy_named(self, name: &str) -> Result<Self> {
        let strategy = StrategyHandle::from_name(name)
            .ok_or_else(|| BdpsError::unknown_name("strategy", name, &StrategyHandle::NAMES))?;
        Ok(self.strategy(strategy))
    }

    /// Sets the EBPC weight `r` (eq. 10).
    pub fn ebpc_weight(mut self, r: f64) -> Self {
        self.config.scheduler.ebpc_weight = r;
        self
    }

    /// Pins the invalid-message detection policy, overriding the §5.4
    /// default that link-model-free strategies only delete expired messages.
    pub fn invalid_detection(mut self, policy: InvalidDetection) -> Self {
        self.config.scheduler.invalid_detection = policy;
        self.detection_pinned = true;
        self
    }

    /// Replaces the whole scheduler configuration (strategy, `r`, ε).
    /// Implies the detection policy is pinned.
    pub fn scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.config.scheduler = scheduler;
        self.detection_pinned = true;
        self
    }

    /// Sets the dynamic scenario of the run — subscription churn, publisher
    /// bursts, link failures, blackouts, or any hand-placed
    /// [`ScenarioAction`](crate::scenario::ScenarioAction) stream. Defaults
    /// to the static scenario (no dynamics, the paper's setting). The
    /// scenario's randomness derives from the run's seed, so scenario runs
    /// replay bit-for-bit.
    pub fn scenario(mut self, scenario: DynamicScenario) -> Self {
        self.config.scenario = scenario;
        self
    }

    /// Resolves a scenario by name through [`DynamicScenario::from_name`]
    /// (`"static"`, `"churn"`, `"flash-crowd"`, `"link-flap"`,
    /// `"link-storm"`, `"blackout"`, `"chaos"`, or their aliases).
    pub fn scenario_named(self, name: &str) -> Result<Self> {
        let scenario = DynamicScenario::from_name(name)
            .ok_or_else(|| BdpsError::unknown_name("scenario", name, &DynamicScenario::NAMES))?;
        Ok(self.scenario(scenario))
    }

    /// Does nothing: there is one [`TableLayout`]. Kept only for the
    /// benchmark harness under `benchmark/`; ROADMAP item 1d deletes it.
    pub fn table_layout(self, _layout: TableLayout) -> Self {
        self
    }

    /// Selects the link transfer-time model (constant delay by default —
    /// the paper's one-transfer-at-a-time sampled rate). This axis *changes
    /// results*: [`LinkModelKind::FairShare`] shares each link's bandwidth equally
    /// among concurrent flows, so congested links genuinely slow down.
    /// The sharded executor ([`try_run_sharded`](crate::shard::try_run_sharded))
    /// returns a structured error for non-constant models.
    pub fn link_model(mut self, model: LinkModelKind) -> Self {
        self.config.link_model = model;
        self
    }

    /// Resolves a link model by name through [`LinkModelKind::from_name`]
    /// (`"constant"`, `"fair-share"`, or their aliases).
    pub fn link_model_named(self, name: &str) -> Result<Self> {
        let model = LinkModelKind::from_name(name)
            .ok_or_else(|| BdpsError::unknown_name("link model", name, &LinkModelKind::NAMES))?;
        Ok(self.link_model(model))
    }

    /// Selects how publish-time matching scopes copies (exact by default —
    /// the `O(population)` global-index freeze at every publish).
    /// [`ForwardingMode::Aggregate`] matches only against per-edge covering
    /// summaries and expands at the edge; it preserves the delivery set,
    /// earning and audits (`tests/forwarding_equivalence.rs` pins this) but
    /// not traffic, and the sharded executor rejects it.
    pub fn forwarding(mut self, mode: ForwardingMode) -> Self {
        self.config.forwarding = mode;
        self
    }

    /// Sets the root RNG seed; topology, workload, scheduling and scenario
    /// randomness all derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Applies a systematic bandwidth-estimation error: routing and the
    /// schedulers' beliefs use perturbed link parameters while transfers
    /// follow the true model (the `ablation_estimation` experiment).
    pub fn estimation_error(mut self, error: EstimationError) -> Self {
        self.config.estimation_error = error;
        self
    }

    /// Sets how long after the publication period in-flight messages keep
    /// being processed (default two minutes).
    pub fn drain_grace(mut self, grace: Duration) -> Self {
        self.drain_grace = grace;
        self
    }

    /// Materialises the run as the plain-data [`SimulationConfig`] the
    /// engine consumes (everything but the drain grace).
    pub fn build_config(&self) -> SimulationConfig {
        let mut config = self.config.clone();
        if !self.detection_pinned && !config.scheduler.strategy.uses_link_model() {
            // §5.4: FIFO and RL have no probabilistic model to consult, so
            // they only delete already-expired messages.
            config.scheduler.invalid_detection = InvalidDetection::ExpiredOnly;
        }
        if let Some(duration) = self.duration_override {
            config.workload.duration = duration;
        }
        config
    }

    /// Builds the simulation, ready to [`run`](Simulation::run), or says
    /// what is wrong with the configuration.
    ///
    /// The root seed is split into independent streams — stream 0 for
    /// topology construction, stream 1 for simulation dynamics — so changing
    /// the workload never perturbs the topology.
    pub fn try_build(&self) -> std::result::Result<Simulation, SimError> {
        let root = SimRng::seed_from(self.config.seed);
        let topology = self.config.topology.try_build(&mut root.split(0))?;
        self.try_build_on(topology, root.split(1))
    }

    /// Like [`try_build`](Self::try_build) over a hand-made `topology`
    /// (which replaces the [`TopologySpec`]) with all simulation randomness
    /// derived from `sim_rng` (which replaces the seed's stream 1).
    pub fn try_build_on(
        &self,
        topology: Topology,
        sim_rng: SimRng,
    ) -> std::result::Result<Simulation, SimError> {
        Simulation::try_new(topology, self.build_config(), sim_rng, self.drain_grace)
    }

    /// Builds and runs to completion on the sequential loop. The run's
    /// labels (strategy, scenario, seed, ...) are the builder's own:
    /// [`build_config`](Self::build_config) reads them back.
    pub fn try_run(&self) -> std::result::Result<SimulationOutcome, SimError> {
        self.try_build()?.try_run()
    }

    /// [`try_build`](Self::try_build), panicking with the [`SimError`] on an
    /// invalid configuration.
    pub fn build(&self) -> Simulation {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`try_run`](Self::try_run), panicking with the [`SimError`] on an
    /// invalid configuration or a failed run.
    pub fn run(&self) -> SimulationOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Simulation {
    /// Starts fluent construction of a run; see [`SimulationBuilder`].
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_core::config::StrategyKind;

    fn small(strategy: StrategyKind) -> SimulationBuilder {
        Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(6.0)
            .duration(Duration::from_secs(180))
            .strategy(strategy)
            .seed(9)
    }

    #[test]
    fn paper_detection_rule_applies_unless_pinned() {
        let fifo = small(StrategyKind::Fifo).build_config();
        assert_eq!(
            fifo.scheduler.invalid_detection,
            InvalidDetection::ExpiredOnly
        );
        let rl = small(StrategyKind::RemainingLifetime).build_config();
        assert_eq!(
            rl.scheduler.invalid_detection,
            InvalidDetection::ExpiredOnly
        );
        let eb = small(StrategyKind::MaxEb).build_config();
        assert_eq!(eb.scheduler.invalid_detection, InvalidDetection::PAPER);
        let pinned = small(StrategyKind::Fifo)
            .invalid_detection(InvalidDetection::Off)
            .build_config();
        assert_eq!(pinned.scheduler.invalid_detection, InvalidDetection::Off);
    }

    #[test]
    fn duration_survives_later_workload_setters() {
        let short = Duration::from_secs(60);
        let before = Simulation::builder()
            .duration(short)
            .ssd(10.0)
            .build_config();
        let after = Simulation::builder()
            .ssd(10.0)
            .duration(short)
            .build_config();
        assert_eq!(before.workload.duration, short);
        assert_eq!(before.workload, after.workload);
        // An explicit workload set last without a duration call keeps its own.
        let own = Simulation::builder()
            .workload(WorkloadConfig::paper_ssd(10.0))
            .build_config();
        assert_eq!(own.workload.duration, Duration::from_secs(2 * 3600));
    }

    #[test]
    fn strategy_named_resolves_and_rejects() {
        let b = Simulation::builder().strategy_named("rl").unwrap();
        assert_eq!(
            b.build_config().scheduler.strategy,
            StrategyKind::RemainingLifetime
        );
        assert!(Simulation::builder().strategy_named("bogus").is_err());
        let composite = Simulation::builder().strategy_named("composite").unwrap();
        assert_eq!(
            composite.build_config().scheduler.strategy.label(),
            "COMPOSITE"
        );
    }

    #[test]
    fn ebpc_weight_and_drain_grace_thread_through() {
        let b = small(StrategyKind::MaxEbpc)
            .ebpc_weight(0.7)
            .drain_grace(Duration::from_secs(30));
        assert_eq!(b.build_config().scheduler.ebpc_weight, 0.7);
        assert_eq!(b.build_config().scheduler.strategy.label(), "EBPC");
        let outcome = b.run();
        assert!(outcome.finished_at <= bdps_types::time::SimTime::from_secs(180 + 30));
    }
}
