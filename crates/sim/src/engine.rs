//! The [`Simulation`]: its one fallible constructor and the run loop.
//!
//! A run is events popped in strict `(time, key)` order with deterministic
//! tie-breaking, each handed to one of two cores:
//!
//! * **traffic** (`traffic.rs`, the paper's broker loop) — *Publish*: a
//!   publisher emits a message and hands it to its attached broker;
//!   *Process*: a broker finishes the processing module for a received copy
//!   (arrival + `PD`), delivers local matches and enqueues copies
//!   downstream; *SendComplete* / *FlowComplete*: a link finishes a copy, the
//!   receiver takes it and the link pulls the next one its strategy picks;
//! * **scenario** (`scenario_apply.rs`, everything around the paper) — a
//!   [`ScenarioAction`](crate::scenario::ScenarioAction) fires: a
//!   subscription joins or leaves, a publisher's rate changes, a link fails
//!   or recovers (routing and tables are repaired), a reporting phase begins.
//!
//! State is four groups — traffic core, shared context, totals, scenario
//! core (see [`Simulation`]) — and both cores reach the totals only through
//! one effect sink. Every message copy carries the set of subscription ids
//! it is responsible for, so single-path routing never delivers a pair
//! twice; the scenario event stream is materialised up front from a
//! seed-derived RNG stream, so runs stay bit-for-bit reproducible. Events,
//! errors, outcome types and the audits live in modules of their own and
//! are re-exported here.

use bdps_core::config::SchedulerConfig;
use bdps_core::objective::ObjectiveTracker;
use bdps_filter::index::MatchIndex;
use bdps_filter::subscription::Subscription;
use bdps_net::linkmodel::LinkModelKind;
use bdps_overlay::sparse::{read_population, TableLayout};
use bdps_overlay::topology::Topology;
use bdps_stats::rng::SimRng;
use bdps_stats::summary::Summary;
use bdps_types::error::BdpsError;
use bdps_types::id::{BrokerId, SubscriptionId};
use bdps_types::time::{Duration, SimTime};
use std::fmt;

#[cfg(feature = "fault-injection")]
pub use crate::audit::InjectedFault;
pub use crate::error::SimError;
pub use crate::event::EventKind;
pub use crate::outcome::{
    ConservationBalance, ConservationViolation, DuplicateDeliveryViolation, LinkLoad, PhaseOutcome,
    SimulationOutcome,
};

use crate::event::key;
use crate::runner::SimulationConfig;
use crate::scenario_apply::ScenarioCore;
use crate::sched::{EventQueue, Scheduled};
use crate::traffic::{Shared, Totals, TrafficCore};

/// How publish-time matching scopes message copies.
///
/// Unlike the two [`TableLayout`]s, the two modes are **not**
/// bit-identical: covering aggregates admit false positives, so aggregate
/// forwarding may push copies down subtrees that end up serving nobody. What
/// is preserved — and what `tests/forwarding_equivalence.rs` pins per seed ×
/// scenario — is the *delivery set*: the exact set of
/// `(message, subscriber)` pairs delivered, the earning, and the
/// conservation/duplicate audits. Hop counts, traffic and per-message
/// interested counts may legitimately differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ForwardingMode {
    /// Freeze the exact matching subscription set at publication time by
    /// walking the global filter index — `O(population)` per publish. The
    /// reference implementation, kept as the delivery-set oracle.
    #[default]
    Exact,
    /// Match the publication against each edge broker's covering-aggregate
    /// summary only — `O(brokers)` per publish — and carry the aggregate as
    /// the copy's scope. Concrete subscribers are resolved once, at the edge
    /// broker, against the membership frozen at the publish epoch. Requires
    /// [`TableLayout::Sparse`].
    Aggregate,
}

impl ForwardingMode {
    /// Every selectable mode, oracle first.
    pub const ALL: [ForwardingMode; 2] = [ForwardingMode::Exact, ForwardingMode::Aggregate];

    /// Stable CLI/report name (`"exact"` / `"aggregate"`).
    pub fn name(self) -> &'static str {
        match self {
            ForwardingMode::Exact => "exact",
            ForwardingMode::Aggregate => "aggregate",
        }
    }

    /// Resolves a CLI name (case-insensitive): `"exact"` or `"aggregate"`
    /// (alias `"agg"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "exact" => Some(ForwardingMode::Exact),
            "aggregate" | "agg" => Some(ForwardingMode::Aggregate),
            _ => None,
        }
    }
}

impl fmt::Display for ForwardingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully constructed simulation, ready to [`run`](Simulation::run).
///
/// Its state is four groups split along who may write what: the traffic
/// `core`, the `shared` context only scenario actions mutate, the
/// order-sensitive `totals` both reach through an effect sink, and the
/// `scenario` core — population and routing, which traffic never touches.
pub struct Simulation {
    pub(crate) core: TrafficCore,
    pub(crate) shared: Shared,
    pub(crate) totals: Totals,
    pub(crate) scenario: ScenarioCore,
    pub(crate) drain_grace: Duration,
}

impl Simulation {
    /// The one constructor, reached through [`SimulationBuilder`]'s
    /// `try_build` / `try_build_on`: validates everything the configuration
    /// decides, then builds routing, the population, the event stream and
    /// the per-broker state for the configured layout, so a `Simulation` is
    /// complete the moment it exists.
    ///
    /// `config.topology`, `config.seed` and `config.shards` are the
    /// caller's business (it already turned the first two into `topology`
    /// and `rng`, and it picks the executor). All randomness is derived
    /// from `rng`; the scenario draws from a stream split off its seed, so
    /// the main simulation stream is the same whatever the scenario does.
    /// The routing tables, path statistics and `FT` estimates are computed
    /// from link parameters biased by `config.estimation_error` while
    /// transfers follow the true link model.
    ///
    /// [`SimulationBuilder`]: crate::builder::SimulationBuilder
    pub(crate) fn try_new(
        topology: Topology,
        config: SimulationConfig,
        mut rng: SimRng,
        drain_grace: Duration,
    ) -> Result<Self, SimError> {
        let SimulationConfig {
            workload,
            scheduler,
            estimation_error,
            scenario,
            table_layout,
            link_model,
            forwarding,
            ..
        } = config;
        workload.validate()?;
        scheduler.validate()?;
        scenario.validate()?;
        if forwarding == ForwardingMode::Aggregate && table_layout == TableLayout::Dense {
            return Err(SimError::AggregateForwardingNeedsSparseLayout);
        }
        let link_count = topology.graph.link_count();
        let publisher_slots = topology
            .publishers
            .iter()
            .map(|(p, _)| p.index() + 1)
            .max()
            .unwrap_or(0);
        if publisher_slots > key::MAX_PUBLISHER_SLOTS || link_count > key::MAX_LINKS {
            return Err(BdpsError::InvalidConfig(format!(
                "canonical event keys support at most {} publisher slots and {} links, \
                 the overlay has {publisher_slots} and {link_count}",
                key::MAX_PUBLISHER_SLOTS,
                key::MAX_LINKS
            ))
            .into());
        }
        // A hand-made topology can home an entity at a broker the graph
        // lacks: that publisher's messages would never be processed, that
        // subscription never reached by a route.
        let brokers = topology.graph.broker_count();
        let stray = |home: &BrokerId| home.index() >= brokers;
        let stray_home = topology
            .publishers
            .iter()
            .find(|(_, home)| stray(home))
            .map(|(p, home)| (format!("publisher {p}"), *home))
            .or_else(|| {
                let (s, home) = topology.subscribers.iter().find(|(_, home)| stray(home))?;
                Some((format!("subscriber {s}"), *home))
            });
        if let Some((who, home)) = stray_home {
            return Err(BdpsError::InvalidConfig(format!(
                "{who} is homed at broker {home}, but the graph has {brokers} brokers"
            ))
            .into());
        }

        // The graph the *schedulers believe in*: identical structure, link
        // rate parameters perturbed by the estimation error. Link identifiers
        // are preserved because links are re-added in the original order.
        let believed_graph = if estimation_error.is_none() {
            topology.graph.clone()
        } else {
            let mut g = bdps_overlay::graph::OverlayGraph::new();
            for b in topology.graph.brokers() {
                g.add_broker(b.layer);
            }
            for l in topology.graph.links() {
                let believed = estimation_error.apply(l.quality.rate_distribution());
                let quality =
                    bdps_net::link::LinkQuality::new(bdps_net::bandwidth::NormalRate::new(
                        believed.mean().max(0.01),
                        believed.std_dev(),
                    ))
                    .with_propagation(l.quality.propagation);
                g.add_link(l.from, l.to, quality);
            }
            g
        };

        // Subscription population: one subscription per subscriber.
        let mut subscriptions = Vec::with_capacity(topology.subscribers.len());
        for (i, (subscriber, broker)) in topology.subscribers.iter().enumerate() {
            let sub = workload.generate_subscription(
                SubscriptionId::new(i as u32),
                *subscriber,
                &mut rng,
            );
            subscriptions.push((sub, *broker));
        }

        // The scenario event stream, drawn from an independent seed-derived
        // stream so it neither perturbs nor depends on the main simulation
        // randomness (replay stays exact whatever the scenario does).
        let mut scenario_rng = rng.split(0x5CE7_A210);
        let scenario_events = scenario.materialize(&topology, &workload, &mut scenario_rng);
        crate::scenario::validate_events(&scenario_events, &topology.graph)?;

        // Global filter index used to count ts_i at publication time.
        let global_index =
            MatchIndex::from_subscriptions(subscriptions.iter().map(|(s, _)| (s.id, &s.filter)));

        // Link bookkeeping.
        let n = topology.graph.broker_count();
        let mut link_of = vec![vec![None; n]; n];
        for l in topology.graph.links() {
            link_of[l.from.index()][l.to.index()] = Some(l.id);
        }

        // One independent, seed-derived RNG stream per publisher and per
        // link (`SimRng::split` derives from the seed alone, so the streams
        // are fixed the moment the seed is). Distinct tag bases keep them
        // disjoint from the builder's topology/sim splits (0, 1) and the
        // scenario stream (0x5CE7_A210).
        const PUBLISHER_STREAM_BASE: u64 = 0x70B1_0000_0000;
        const LINK_STREAM_BASE: u64 = 0x114B_0000_0000;
        let publisher_rng: Vec<SimRng> = (0..publisher_slots)
            .map(|i| rng.split(PUBLISHER_STREAM_BASE + i as u64))
            .collect();
        let link_rng: Vec<SimRng> = (0..link_count)
            .map(|i| rng.split(LINK_STREAM_BASE + i as u64))
            .collect();

        let mut sim = Simulation {
            core: TrafficCore::new(publisher_rng, link_rng, 0),
            shared: Shared {
                end: SimTime::ZERO + workload.duration,
                topology,
                global_index,
                workload,
                scheduler,
                link_model: link_model.create().into(),
                link_of,
                link_down_depth: vec![0; link_count],
                link_fail_gen: vec![0; link_count],
                rate_multiplier: vec![1.0; publisher_slots],
                publish_gen: vec![0; publisher_slots],
                forwarding,
                population: None,
                #[cfg(feature = "fault-injection")]
                injected_fault: None,
            },
            totals: Totals {
                tracker: ObjectiveTracker::new(),
                phases: vec![PhaseOutcome::new("run".into(), SimTime::ZERO)],
                valid_delays_ms: Summary::new(),
                published: 0,
                transmissions: 0,
                completed_transfers: 0,
            },
            scenario: ScenarioCore::new(believed_graph, subscriptions),
            drain_grace,
        };

        // Scenario keys rank lowest, so at equal times a scenario action
        // applies before publications and transfers.
        for (idx, ev) in scenario_events.into_iter().enumerate() {
            sim.core.push(
                SimTime::ZERO + ev.at,
                key::scenario(idx as u64),
                EventKind::Scenario { action: ev.action },
            );
        }

        // Seed the publishers.
        for &(publisher, _) in &sim.shared.topology.publishers {
            sim.core.schedule_next_publication(&sim.shared, publisher);
        }
        let (scenario, scheduler) = (&sim.scenario, &sim.shared.scheduler);
        (sim.core.brokers, sim.shared.population) = scenario.build_brokers(table_layout, scheduler);
        Ok(sim)
    }

    /// The link transfer-time model this run uses.
    pub fn link_model(&self) -> LinkModelKind {
        self.shared.link_model.kind()
    }

    /// The forwarding mode this run uses.
    pub fn forwarding(&self) -> ForwardingMode {
        self.shared.forwarding
    }

    /// The objective bookkeeping accumulated so far — the mid-run view the
    /// model-checking explorer reads to collect terminal delivery sets.
    pub fn tracker(&self) -> &ObjectiveTracker {
        &self.totals.tracker
    }

    /// The subscription population of this run (changes under churn; in no
    /// particular order once a subscription has left).
    pub fn subscriptions(&self) -> &[(Subscription, BrokerId)] {
        &self.scenario.subscriptions.entries
    }

    /// The scheduler configuration of this run.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.shared.scheduler
    }

    /// Runs the simulation to completion and returns the outcome, panicking
    /// on the (thread-environment-only) failures [`try_run`](Self::try_run)
    /// surfaces as [`SimError`].
    pub fn run(self) -> SimulationOutcome {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, surfacing structured
    /// [`SimError`]s (e.g. a population registry lock poisoned by a sibling
    /// thread) instead of panicking.
    pub fn try_run(mut self) -> Result<SimulationOutcome, SimError> {
        let hard_stop = self.hard_stop();
        while let Some(entry) = self.core.events.pop_if_at_or_before(hard_stop) {
            self.try_apply(entry)?;
        }
        Ok(self.into_outcome())
    }

    /// The time past which [`run`](Self::run) stops popping events: the end
    /// of the publication period plus the drain grace.
    pub fn hard_stop(&self) -> SimTime {
        self.shared.end + self.drain_grace
    }

    /// Pops and applies the next event if it is at or before `limit`.
    /// Returns false when nothing was applied (run over, or the next event
    /// is past the limit). The run loop is exactly `while self.step_next(..)`.
    pub fn step_next(&mut self, limit: SimTime) -> bool {
        match self.core.events.pop_if_at_or_before(limit) {
            Some(entry) => {
                self.apply(entry);
                true
            }
            None => false,
        }
    }

    /// Removes every pending event scheduled at the earliest pending time at
    /// or before `limit` — the *same-instant frontier*, in deterministic
    /// `(time, seq)` order (the order the plain run loop would process them
    /// in). The model-checking explorer branches here: each frontier
    /// permutation is a distinct legal interleaving. Events not chosen for
    /// [`apply`](Self::apply) must be re-inserted with
    /// [`push_back`](Self::push_back).
    pub fn take_frontier(&mut self, limit: SimTime) -> Vec<Scheduled<EventKind>> {
        self.core.events.take_frontier(limit)
    }

    /// Re-inserts an event taken with [`take_frontier`](Self::take_frontier)
    /// without assigning a new sequence number, so the deterministic
    /// `(time, seq)` order among the re-inserted events is preserved.
    pub fn push_back(&mut self, event: Scheduled<EventKind>) {
        self.core.events.push(event);
    }

    /// Applies one event: advances the clock to the event's time and runs
    /// its handler, scheduling any follow-up events. This is the engine's
    /// single step; [`run`](Self::run) is a loop of these, and the
    /// model-checking explorer calls it directly with events chosen from a
    /// [`take_frontier`](Self::take_frontier) batch.
    pub fn apply(&mut self, entry: Scheduled<EventKind>) {
        self.try_apply(entry).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`apply`](Self::apply), but surfaces structured [`SimError`]s
    /// instead of panicking. Traffic events run the handlers of
    /// `traffic.rs`, scenario actions those of `scenario_apply.rs`, both
    /// with the totals as the effect sink.
    pub fn try_apply(&mut self, entry: Scheduled<EventKind>) -> Result<(), SimError> {
        let (core, shared, totals) = (&mut self.core, &mut self.shared, &mut self.totals);
        match entry.item {
            EventKind::Scenario { action } => self
                .scenario
                .apply(core, shared, totals, action, entry.time),
            _ => {
                core.apply(shared, totals, entry);
                Ok(())
            }
        }
    }

    /// Computes the end-of-run outcome from the current state without
    /// consuming the simulation — the explorer snapshots outcomes at
    /// quiescence while keeping the state for further checks.
    pub fn outcome_snapshot(&self) -> SimulationOutcome {
        let (core, repairs) = (&self.core, self.scenario.counters);
        // End-of-run accounting for the conservation invariants: whatever is
        // left in the event queue is either in flight on a link or inside a
        // broker's processing module; whatever sits in output queues is
        // queued.
        let queued_at_end: u64 = core.brokers.iter().map(|b| b.queued_total() as u64).sum();
        let mut in_flight_at_end = 0u64;
        let mut pending_process_at_end = 0u64;
        core.events.for_each(&mut |entry| match entry.item {
            EventKind::SendComplete { .. } => in_flight_at_end += 1,
            EventKind::Process { .. } => pending_process_at_end += 1,
            // FlowComplete events are not counted: under a sharing model
            // the flow table is authoritative (stale rescheduled events
            // would otherwise inflate the in-flight count).
            _ => {}
        });
        in_flight_at_end += core.link_flows.iter().map(|f| f.len() as u64).sum::<u64>();
        let mut phases = self.totals.phases.clone();
        for i in 0..phases.len() {
            phases[i].end = if i + 1 < phases.len() {
                phases[i + 1].start
            } else {
                core.now
            };
        }

        let aggregate_entries: u64 = core
            .brokers
            .iter()
            .map(|b| b.table().aggregate_entries())
            .sum();
        let registry = self.shared.population.as_ref();
        let table_bytes_estimate = registry.map_or(0, |p| read_population(p).bytes_estimate())
            + core
                .brokers
                .iter()
                .map(|b| b.table().bytes_estimate())
                .sum::<u64>();

        SimulationOutcome {
            tracker: self.totals.tracker.clone(),
            broker_counters: core.brokers.iter().map(|b| b.counters).collect(),
            published: self.totals.published,
            transmissions: self.totals.transmissions,
            completed_transfers: self.totals.completed_transfers,
            valid_delays_ms: self.totals.valid_delays_ms.clone(),
            finished_at: core.now,
            queued_at_end,
            in_flight_at_end,
            pending_process_at_end,
            phases,
            events_processed: core.events_processed,
            peak_pending_events: core.peak_pending as u64,
            scope_interns: core.scope_interner.interns(),
            scope_intern_hits: core.scope_interner.hits(),
            tables_rebuilt_full: repairs.tables_rebuilt_full,
            entries_retargeted: repairs.entries_retargeted,
            route_trees_recomputed: repairs.route_trees_recomputed,
            route_pairs_changed: repairs.route_pairs_changed,
            aggregate_entries,
            table_bytes_estimate,
            link_loads: self.link_loads_snapshot(),
        }
    }

    /// The per-link counters with the open busy/flow-time integral interval
    /// closed at the current clock (the stored accumulators only advance
    /// when a link's in-flight set changes).
    fn link_loads_snapshot(&self) -> Vec<LinkLoad> {
        let core = &self.core;
        let closed = |(i, load): (usize, &LinkLoad)| {
            let mut load = load.clone();
            let elapsed = core.now.duration_since(core.link_last_change[i]);
            // Busy time accrues once however many flows share the link.
            load.busy_us += elapsed.as_micros() * core.active_flows(i).min(1);
            load.flow_time_us += elapsed.as_micros() * core.active_flows(i);
            load
        };
        core.link_load.iter().enumerate().map(closed).collect()
    }

    /// Consumes the simulation and returns the outcome (the tail of
    /// [`run`](Self::run)).
    pub fn into_outcome(self) -> SimulationOutcome {
        self.outcome_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use crate::scenario::{DynamicScenario, ScenarioAction, ScenarioRegistry};
    use crate::workload::{
        ArrivalKind, BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, Scenario,
        WorkloadConfig,
    };
    use bdps_core::config::StrategyKind;
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;
    use bdps_overlay::topology::LayeredMeshConfig;
    use bdps_types::id::{LinkId, PublisherId, SubscriberId};

    fn fast_quality(_rng: &mut SimRng) -> LinkQuality {
        // 10 ms/KB -> a 50 KB message takes 500 ms per hop.
        LinkQuality::new(FixedRate::new(10.0))
    }

    fn small_topology(seed: u64) -> Topology {
        Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(seed),
            fast_quality,
        )
        .unwrap()
    }

    fn short_workload(scenario: Scenario, rate: f64) -> WorkloadConfig {
        let mut w = match scenario {
            Scenario::SubscriberSpecified => WorkloadConfig::paper_ssd(rate),
            _ => WorkloadConfig::paper_psd(rate),
        };
        w.scenario = scenario;
        w.duration = Duration::from_secs(300);
        w.arrivals = ArrivalKind::Deterministic;
        w
    }

    /// The builder every test here goes through: `workload`, the paper
    /// scheduler for `strategy` exactly as `SchedulerConfig::paper` spells
    /// it (so the detection policy is pinned), and `scenario`.
    fn configured(
        workload: WorkloadConfig,
        strategy: StrategyKind,
        scenario: DynamicScenario,
    ) -> SimulationBuilder {
        Simulation::builder()
            .workload(workload)
            .scheduler(SchedulerConfig::paper(strategy))
            .scenario(scenario)
    }

    /// A simulation over a hand-made topology, all randomness from `seed`.
    fn build_on(
        topo: Topology,
        workload: WorkloadConfig,
        strategy: StrategyKind,
        seed: u64,
        scenario: DynamicScenario,
    ) -> Simulation {
        configured(workload, strategy, scenario)
            .try_build_on(topo, SimRng::seed_from(seed))
            .expect("valid test configuration")
    }

    /// [`build_on`] under the static scenario.
    fn plain(
        topo: Topology,
        workload: WorkloadConfig,
        strategy: StrategyKind,
        seed: u64,
    ) -> Simulation {
        build_on(
            topo,
            workload,
            strategy,
            seed,
            DynamicScenario::static_scenario(),
        )
    }

    fn scenario_run(
        scenario: DynamicScenario,
        strategy: StrategyKind,
        seed: u64,
    ) -> SimulationOutcome {
        let topo = small_topology(seed);
        let mut w = WorkloadConfig::paper_ssd(8.0);
        w.duration = Duration::from_secs(300);
        build_on(topo, w, strategy, seed, scenario).run()
    }

    #[test]
    fn uncongested_run_delivers_almost_everything() {
        let topo = small_topology(1);
        let workload = short_workload(Scenario::PublisherSpecified, 4.0);
        let sim = plain(topo, workload, StrategyKind::MaxEb, 2);
        let out = sim.run();
        assert!(out.published > 0);
        assert!(out.tracker.total_interested() > 0);
        let rate = out.tracker.delivery_rate();
        assert!(
            rate > 0.95,
            "expected near-perfect delivery on an idle network, got {rate}"
        );
        assert!(out.message_number() > out.published);
        assert!(out.transmissions > 0);
        assert_eq!(out.dropped_expired() + out.dropped_unlikely(), 0);
        assert!(out.valid_delays_ms.count() > 0);
        assert!(out.valid_delays_ms.mean() > 0.0);
        // Static runs still satisfy the conservation balances and produce a
        // single "run" phase covering the whole run.
        out.check_conservation().unwrap();
        assert_eq!(out.phases.len(), 1);
        assert_eq!(out.phases[0].label, "run");
        assert_eq!(out.phases[0].published, out.published);
        assert_eq!(out.phases[0].end, out.finished_at);
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
    }

    #[test]
    fn runs_are_deterministic_for_a_given_seed() {
        let run = |seed: u64| {
            let topo = small_topology(seed);
            let workload = short_workload(Scenario::SubscriberSpecified, 6.0);
            plain(topo, workload, StrategyKind::MaxEbpc, seed).run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.published, b.published);
        assert_eq!(a.message_number(), b.message_number());
        assert_eq!(a.tracker.total_on_time(), b.tracker.total_on_time());
        assert_eq!(
            a.tracker.total_earning().millis(),
            b.tracker.total_earning().millis()
        );
        let c = run(8);
        assert_ne!(
            (a.published, a.tracker.total_on_time()),
            (c.published, c.tracker.total_on_time()),
            "different seeds should differ"
        );
    }

    #[test]
    fn zero_rate_produces_no_traffic() {
        let topo = small_topology(3);
        let workload = short_workload(Scenario::PublisherSpecified, 0.0);
        let out = plain(topo, workload, StrategyKind::Fifo, 4).run();
        assert_eq!(out.published, 0);
        assert_eq!(out.message_number(), 0);
        assert_eq!(out.tracker.delivery_rate(), 0.0);
    }

    #[test]
    fn ssd_earning_is_positive_and_bounded_by_perfect_delivery() {
        let topo = small_topology(5);
        let workload = short_workload(Scenario::SubscriberSpecified, 6.0);
        let out = plain(topo, workload, StrategyKind::MaxEb, 6).run();
        let earning = out.tracker.total_earning().as_f64();
        assert!(earning > 0.0);
        // Perfect delivery would earn at most 3 units per interested pair.
        let upper = 3.0 * out.tracker.total_interested() as f64;
        assert!(earning <= upper);
        // Every on-time delivery is also counted in the delivery-rate bookkeeping.
        assert!(out.tracker.total_on_time() > 0);
        assert!(out.tracker.delivery_rate() <= 1.0);
    }

    #[test]
    fn no_duplicate_deliveries_per_subscriber_and_message() {
        // With scoped forwarding each (message, subscriber) pair is delivered
        // at most once, so on-time + late deliveries never exceed interested
        // pairs (ts_i counts exactly the matching subscribers).
        let topo = small_topology(9);
        let workload = short_workload(Scenario::PublisherSpecified, 8.0);
        let out = plain(topo, workload, StrategyKind::Fifo, 10).run();
        let delivered = out.tracker.total_on_time() + out.tracker.total_late();
        assert!(
            delivered <= out.tracker.total_interested(),
            "delivered {delivered} > interested {}",
            out.tracker.total_interested()
        );
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
    }

    #[test]
    fn congestion_lowers_delivery_rate_and_eb_beats_fifo() {
        // Slow links + high rate -> congestion. EB should deliver at least as
        // much as FIFO (usually strictly more).
        let slow_quality = |_rng: &mut SimRng| LinkQuality::new(FixedRate::new(80.0));
        let make = |strategy| {
            let topo = Topology::layered_mesh(
                &LayeredMeshConfig::small(),
                &mut SimRng::seed_from(11),
                slow_quality,
            )
            .unwrap();
            let mut w = WorkloadConfig::paper_psd(12.0);
            w.duration = Duration::from_secs(600);
            plain(topo, w, strategy, 12).run()
        };
        let eb = make(StrategyKind::MaxEb);
        let fifo = make(StrategyKind::Fifo);
        assert!(
            eb.tracker.delivery_rate() < 1.0,
            "there should be congestion"
        );
        assert!(
            eb.tracker.delivery_rate() >= fifo.tracker.delivery_rate(),
            "EB {} should not be worse than FIFO {}",
            eb.tracker.delivery_rate(),
            fifo.tracker.delivery_rate()
        );
    }

    #[test]
    fn subscription_population_matches_subscribers() {
        let topo = small_topology(13);
        let n_subs = topo.subscribers.len();
        let workload = short_workload(Scenario::SubscriberSpecified, 1.0);
        let sim = plain(topo, workload, StrategyKind::MaxPc, 14);
        assert_eq!(sim.subscriptions().len(), n_subs);
        assert_eq!(sim.scheduler().strategy, StrategyKind::MaxPc);
        // Each subscription belongs to a distinct subscriber.
        let mut seen = std::collections::HashSet::new();
        for (s, _) in sim.subscriptions() {
            assert!(seen.insert(s.subscriber));
        }
        assert!(seen.contains(&SubscriberId::new(0)));
    }

    #[test]
    fn churn_scenario_changes_traffic_but_keeps_invariants() {
        let churn = DynamicScenario::named("churn").with_churn(ChurnConfig {
            joins_per_min: 6.0,
            leaves_per_min: 6.0,
        });
        let dynamic = scenario_run(churn, StrategyKind::MaxEb, 21);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::MaxEb, 21);
        // Publications draw from the same stream in both runs.
        assert_eq!(dynamic.published, baseline.published);
        // Churn must actually change what gets matched and delivered.
        assert_ne!(
            dynamic.tracker.total_interested(),
            baseline.tracker.total_interested()
        );
        dynamic.check_conservation().unwrap();
        assert_eq!(dynamic.tracker.duplicate_deliveries(), 0);
        let delivered = dynamic.tracker.total_on_time() + dynamic.tracker.total_late();
        assert!(delivered <= dynamic.tracker.total_interested());
    }

    #[test]
    fn burst_scenario_raises_publication_count_and_marks_phases() {
        let bursts = DynamicScenario::named("bursty").with_bursts(BurstConfig {
            mean_calm_secs: 60.0,
            mean_burst_secs: 60.0,
            multiplier: 5.0,
        });
        let dynamic = scenario_run(bursts, StrategyKind::MaxEb, 22);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::MaxEb, 22);
        assert!(
            dynamic.published > baseline.published,
            "bursts should add publications: {} vs {}",
            dynamic.published,
            baseline.published
        );
        assert!(dynamic.phases.len() > 1, "burst phases must be recorded");
        assert!(dynamic.phases.iter().any(|p| p.label == "burst"));
        // Published totals across phases account for every message.
        let phase_sum: u64 = dynamic.phases.iter().map(|p| p.published).sum();
        assert_eq!(phase_sum, dynamic.published);
        dynamic.check_conservation().unwrap();
    }

    #[test]
    fn publisher_pause_and_resume_honour_generations() {
        // Pause every publisher for the middle of the run, then resume.
        let scenario = DynamicScenario::named("pause")
            .at(
                Duration::from_secs(100),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 0.0,
                },
            )
            .at(
                Duration::from_secs(200),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 1.0,
                },
            );
        let out = scenario_run(scenario, StrategyKind::Fifo, 23);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::Fifo, 23);
        assert!(out.published < baseline.published);
        assert!(out.published > 0);
        out.check_conservation().unwrap();
        // The pause phase publishes nothing: verify via per-phase counts.
        let paused = DynamicScenario::named("pause-marked")
            .at(
                Duration::from_secs(100),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 0.0,
                },
            )
            .at(
                Duration::from_secs(100),
                ScenarioAction::PhaseMark {
                    label: "silence".into(),
                },
            )
            .at(
                Duration::from_secs(200),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 1.0,
                },
            )
            .at(
                Duration::from_secs(200),
                ScenarioAction::PhaseMark {
                    label: "resumed".into(),
                },
            );
        let out = scenario_run(paused, StrategyKind::Fifo, 23);
        let silence = out
            .phases
            .iter()
            .find(|p| p.label == "silence")
            .expect("silence phase present");
        assert_eq!(silence.published, 0, "no publications while paused");
        assert!(out
            .phases
            .iter()
            .any(|p| p.label == "resumed" && p.published > 0));
    }

    #[test]
    fn scenario_process_parameters_are_checked_at_construction() {
        // Every process at once, all valid: chaos plus a blackout window.
        let base = || {
            let chaos = ScenarioRegistry::builtin().resolve("chaos").unwrap();
            chaos.with_blackout(BlackoutWindow {
                start_frac: 0.3,
                duration_frac: 0.2,
            })
        };
        assert!(base().validate().is_ok());
        type Set = fn(&mut DynamicScenario, f64);
        let fields: [(&str, Set); 9] = [
            ("churn.joins_per_min", |s, x| {
                s.churn.as_mut().unwrap().joins_per_min = x
            }),
            ("churn.leaves_per_min", |s, x| {
                s.churn.as_mut().unwrap().leaves_per_min = x
            }),
            ("bursts.mean_calm_secs", |s, x| {
                s.bursts.as_mut().unwrap().mean_calm_secs = x
            }),
            ("bursts.mean_burst_secs", |s, x| {
                s.bursts.as_mut().unwrap().mean_burst_secs = x
            }),
            ("bursts.multiplier", |s, x| {
                s.bursts.as_mut().unwrap().multiplier = x
            }),
            ("link_failures.mean_time_between_failures_secs", |s, x| {
                s.link_failures
                    .as_mut()
                    .unwrap()
                    .mean_time_between_failures_secs = x
            }),
            ("link_failures.mean_downtime_secs", |s, x| {
                s.link_failures.as_mut().unwrap().mean_downtime_secs = x
            }),
            ("blackout.start_frac", |s, x| s.blackouts[0].start_frac = x),
            ("blackout.duration_frac", |s, x| {
                s.blackouts[0].duration_frac = x
            }),
        ];
        for (field, set) in fields {
            // Before `DynamicScenario::validate` a NaN or infinite mean
            // unwound out of `SimRng::exponential`, and a NaN blackout start
            // ran as a zero-length outage at t = 0.
            for bad in [f64::NAN, f64::INFINITY, -1.0] {
                let mut scenario = base();
                set(&mut scenario, bad);
                let built =
                    configured(WorkloadConfig::paper_ssd(8.0), StrategyKind::Fifo, scenario)
                        .try_build_on(small_topology(23), SimRng::seed_from(23));
                match built.err() {
                    Some(SimError::InvalidConfig(e)) => {
                        assert!(e.to_string().contains(field), "{field} = {bad}: {e}")
                    }
                    other => panic!("{field} = {bad}: expected InvalidConfig, got {other:?}"),
                }
            }
            // Zero is a quiet process for a rate, the multiplier or a
            // fraction, and an error for a mean the sampler divides by.
            let mut scenario = base();
            set(&mut scenario, 0.0);
            let rejected = scenario.validate().is_err();
            assert_eq!(rejected, field.contains("mean_"), "{field} = 0");
        }
    }

    #[test]
    fn scenario_events_are_checked_against_the_overlay_at_construction() {
        let (links, brokers) = {
            let graph = small_topology(23).graph;
            (graph.link_count() as u32, graph.broker_count() as u32)
        };
        // A valid event first, so the reported index is the offender's.
        let rejection = |action: ScenarioAction| {
            let scenario = DynamicScenario::named("bad")
                .at(
                    Duration::from_secs(10),
                    ScenarioAction::LinkDown {
                        link: LinkId::new(links - 1),
                    },
                )
                .at(Duration::from_secs(20), action);
            let built = configured(WorkloadConfig::paper_ssd(8.0), StrategyKind::Fifo, scenario)
                .try_build_on(small_topology(23), SimRng::seed_from(23));
            match built.err() {
                Some(SimError::InvalidConfig(e)) => e.to_string(),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        let joiner = WorkloadConfig::paper_ssd(8.0).generate_subscription(
            SubscriptionId::new(500),
            SubscriberId::new(500),
            &mut SimRng::seed_from(1),
        );
        let cases = [
            (
                ScenarioAction::LinkDown {
                    link: LinkId::new(links),
                },
                format!("link-down:l{links}"),
            ),
            (
                ScenarioAction::LinkUp {
                    link: LinkId::new(9_999),
                },
                "link-up:l9999".to_string(),
            ),
            (
                ScenarioAction::SubscriptionJoin {
                    subscription: joiner,
                    broker: BrokerId::new(brokers),
                },
                format!("join:f500@b{brokers}"),
            ),
            (
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: f64::NAN,
                },
                "rate:all:NaN".to_string(),
            ),
        ];
        for (action, label) in cases {
            let message = rejection(action);
            assert!(
                message.contains("scenario event 1") && message.contains(&label),
                "{label}: {message}"
            );
        }

        // The documented no-ops stay no-ops: a leave of an id nobody holds
        // and a rate change for a publisher the topology does not have.
        let no_ops = DynamicScenario::named("no-ops")
            .at(
                Duration::from_secs(100),
                ScenarioAction::SubscriptionLeave {
                    subscription: SubscriptionId::new(9_999),
                },
            )
            .at(
                Duration::from_secs(100),
                ScenarioAction::PublisherRate {
                    publisher: Some(PublisherId::new(999)),
                    multiplier: 5.0,
                },
            );
        let out = scenario_run(no_ops, StrategyKind::Fifo, 23);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::Fifo, 23);
        assert_eq!(out.published, baseline.published);
        assert_eq!(out.transmissions, baseline.transmissions);
        assert_eq!(
            out.tracker.delivered_pairs(),
            baseline.tracker.delivered_pairs()
        );
    }

    #[test]
    fn entity_homes_are_checked_against_the_overlay_at_construction() {
        let brokers = small_topology(23).graph.broker_count() as u32;
        let build = |topology: Topology| {
            let scenario = DynamicScenario::static_scenario();
            configured(WorkloadConfig::paper_ssd(8.0), StrategyKind::Fifo, scenario)
                .try_build_on(topology, SimRng::seed_from(23))
        };
        assert!(build(small_topology(23)).is_ok());
        // Unchecked, a stray publisher's messages are counted as published
        // and then vanish, and a stray subscription is registered at an edge
        // no route reaches.
        let mut stray_publisher = small_topology(23);
        stray_publisher.publishers[0].1 = BrokerId::new(brokers);
        let mut stray_subscriber = small_topology(23);
        let (subscriber, home) = stray_subscriber.subscribers.last_mut().unwrap();
        *home = BrokerId::new(brokers + 7);
        let subscriber = *subscriber;
        let cases = [
            (
                stray_publisher,
                format!("publisher P0 is homed at broker B{brokers}"),
            ),
            (
                stray_subscriber,
                format!(
                    "subscriber {subscriber} is homed at broker B{}",
                    brokers + 7
                ),
            ),
        ];
        for (topology, expected) in cases {
            match build(topology).err() {
                Some(SimError::InvalidConfig(e)) => {
                    assert!(e.to_string().contains(&expected), "{expected}: {e}")
                }
                other => panic!("{expected}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn link_failures_requeue_in_flight_copies_and_recover() {
        // Slow links (50 KB × 80 ms/KB = 4 s per hop) keep links busy, so a
        // failure almost always catches a copy mid-transfer.
        let topo = Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(24),
            |_rng| LinkQuality::new(FixedRate::new(80.0)),
        )
        .unwrap();
        let mut w = WorkloadConfig::paper_ssd(10.0);
        w.duration = Duration::from_secs(300);
        let flaky = DynamicScenario::named("flaky").with_link_failures(LinkFailureConfig {
            mean_time_between_failures_secs: 10.0,
            mean_downtime_secs: 10.0,
        });
        let out = build_on(topo, w, StrategyKind::MaxEb, 24, flaky).run();
        out.check_conservation().unwrap();
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
        assert!(out.requeued() > 0, "flaky links should void some transfers");
        assert!(out.tracker.total_on_time() > 0, "system must keep working");
    }

    #[test]
    fn blackout_halts_delivery_then_recovers() {
        let blackout = DynamicScenario::named("blackout").with_blackout(BlackoutWindow {
            start_frac: 0.3,
            duration_frac: 0.3,
        });
        let out = scenario_run(blackout, StrategyKind::MaxEb, 25);
        out.check_conservation().unwrap();
        let dark = out
            .phases
            .iter()
            .find(|p| p.label == "blackout")
            .expect("blackout phase recorded");
        assert_eq!(
            dark.transmissions, 0,
            "nothing can be transmitted with every link down"
        );
        let restored = out
            .phases
            .iter()
            .find(|p| p.label == "restored")
            .expect("restored phase recorded");
        assert!(
            restored.transmissions > 0,
            "traffic must resume after the blackout"
        );
        assert!(out.tracker.total_on_time() > 0);
    }

    #[test]
    fn nested_same_instant_link_downs_still_reroute_traffic() {
        // Diamond: B0 -(cheap)- B1 - B3 and B0 -(pricey)- B2 - B3. Taking
        // the whole cheap path down TWICE in the same instant ends the
        // event batch on a liveness no-op; the rebuild must still happen
        // (dirty-flag regression test) so traffic detours via B2.
        let mut graph = bdps_overlay::graph::OverlayGraph::new();
        let b0 = graph.add_broker(None);
        let b1 = graph.add_broker(None);
        let b2 = graph.add_broker(None);
        let b3 = graph.add_broker(None);
        // Links 0..=1, 2..=3 form the cheap path; 4..=7 the detour.
        graph.add_bidirectional_link(b0, b1, LinkQuality::new(FixedRate::new(40.0)));
        graph.add_bidirectional_link(b1, b3, LinkQuality::new(FixedRate::new(40.0)));
        graph.add_bidirectional_link(b0, b2, LinkQuality::new(FixedRate::new(60.0)));
        graph.add_bidirectional_link(b2, b3, LinkQuality::new(FixedRate::new(60.0)));
        graph.attach_publisher(b0, PublisherId::new(0));
        let subscriber = bdps_types::id::SubscriberId::new(0);
        graph.attach_subscriber(b3, subscriber);
        let topo = Topology {
            graph,
            publishers: vec![(PublisherId::new(0), b0)],
            subscribers: vec![(subscriber, b3)],
        };
        let mut w = WorkloadConfig::paper_psd(30.0);
        w.duration = Duration::from_secs(300);
        let mut scenario = DynamicScenario::named("double-down");
        for raw in 0..4u32 {
            for _ in 0..2 {
                scenario = scenario.at(
                    Duration::from_secs(1),
                    ScenarioAction::LinkDown {
                        link: LinkId::new(raw),
                    },
                );
            }
        }
        let out = build_on(topo, w, StrategyKind::MaxEb, 41, scenario).run();
        assert!(
            out.tracker.total_on_time() > 0,
            "messages must detour via B2 after the cheap path dies"
        );
        out.check_conservation().unwrap();
    }

    #[test]
    fn flap_contained_within_a_transfer_voids_it() {
        // Slow links (4 s per hop) and a 1.2 s blackout: many copies are in
        // flight across the window, flap fully inside their transfer. The
        // failure-generation check must void those transfers even though the
        // link is alive again when the SendComplete pops.
        let topo = Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(42),
            |_rng| LinkQuality::new(FixedRate::new(80.0)),
        )
        .unwrap();
        let mut w = WorkloadConfig::paper_ssd(10.0);
        w.duration = Duration::from_secs(300);
        let blink = DynamicScenario::named("blink").with_blackout(BlackoutWindow {
            start_frac: 0.1,
            duration_frac: 0.004, // 1.2 s, far below the 4 s per-hop transfer
        });
        let out = build_on(topo, w, StrategyKind::MaxEb, 42, blink).run();
        assert!(
            out.requeued() > 0,
            "transfers spanning the blink must be voided and requeued"
        );
        out.check_conservation().unwrap();
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
    }

    #[test]
    fn table_layouts_agree_and_report_their_counters() {
        // Chaos drives every table-maintenance path at once; the blackout is
        // the mass transition — every route towards (almost) every
        // destination flips at one instant, twice.
        let chaos = ScenarioRegistry::builtin()
            .resolve("chaos")
            .expect("chaos is builtin");
        let blackout = DynamicScenario::named("blackout").with_blackout(BlackoutWindow {
            start_frac: 0.3,
            duration_frac: 0.2,
        });
        for (scenario, seed) in [(chaos, 28), (blackout, 27)] {
            let name = scenario.name.clone();
            let run = |layout: TableLayout| {
                let mut w = WorkloadConfig::paper_ssd(10.0);
                w.duration = Duration::from_secs(300);
                configured(w, StrategyKind::MaxEb, scenario.clone())
                    .table_layout(layout)
                    .try_build_on(small_topology(seed), SimRng::seed_from(seed))
                    .unwrap()
                    .run()
            };
            let dense = run(TableLayout::Dense);
            let sparse = run(TableLayout::Sparse);
            // Bit-identical results whichever engine runs.
            assert_eq!(dense.published, sparse.published, "{name}");
            assert_eq!(dense.transmissions, sparse.transmissions, "{name}");
            assert_eq!(dense.message_number(), sparse.message_number(), "{name}");
            assert_eq!(
                dense.tracker.total_on_time(),
                sparse.tracker.total_on_time(),
                "{name}"
            );
            assert_eq!(
                dense.tracker.total_late(),
                sparse.tracker.total_late(),
                "{name}"
            );
            assert_eq!(
                dense.tracker.total_earning().millis(),
                sparse.tracker.total_earning().millis(),
                "{name}"
            );
            assert_eq!(dense.queued_at_end, sparse.queued_at_end, "{name}");
            assert_eq!(dense.requeued(), sparse.requeued(), "{name}");
            assert_eq!(
                dense.dropped_unsubscribed(),
                sparse.dropped_unsubscribed(),
                "{name}: churn bookkeeping must match across layouts"
            );
            sparse.check_conservation().unwrap();
            // The reference only ever rebuilds whole tables and never forms
            // a route delta; the production engine only ever patches.
            assert!(dense.tables_rebuilt_full > 0, "{name}");
            assert_eq!(dense.entries_retargeted, 0, "{name}");
            assert_eq!(dense.route_trees_recomputed, 0, "{name}");
            assert_eq!(dense.route_pairs_changed, 0, "{name}");
            assert!(sparse.entries_retargeted > 0, "{name}");
            assert_eq!(sparse.tables_rebuilt_full, 0, "{name}");
            assert!(sparse.route_trees_recomputed > 0, "{name}");
            assert!(sparse.route_pairs_changed > 0, "{name}");
            // Layout observability: only the sparse run stores aggregates
            // and expands them at edge brokers; its tables are much smaller.
            assert_eq!(dense.aggregate_entries, 0, "{name}");
            assert_eq!(dense.expanded_at_edge(), 0, "{name}");
            assert!(sparse.aggregate_entries > 0, "{name}");
            assert_eq!(
                sparse.expanded_at_edge(),
                sparse.tracker.total_on_time() + sparse.tracker.total_late(),
                "{name}: every sparse local delivery is an edge expansion"
            );
            // The factor is modest only because this model is tiny: the
            // registry's fixed per-member cost (including the QoS envelope
            // bookkeeping, paid once globally) dominates at this size, while
            // the dense layout's per-broker replication dominates at scale.
            assert!(
                sparse.table_bytes_estimate * 3 / 2 <= dense.table_bytes_estimate,
                "{name}: sparse tables must be substantially smaller: {} vs {}",
                sparse.table_bytes_estimate,
                dense.table_bytes_estimate
            );
        }
    }

    #[test]
    fn scenario_runs_replay_bit_for_bit() {
        let registry = ScenarioRegistry::builtin();
        for name in ["churn", "flash-crowd", "link-flap", "chaos"] {
            let a = scenario_run(registry.resolve(name).unwrap(), StrategyKind::MaxEbpc, 31);
            let b = scenario_run(registry.resolve(name).unwrap(), StrategyKind::MaxEbpc, 31);
            assert_eq!(a.published, b.published, "{name}");
            assert_eq!(a.transmissions, b.transmissions, "{name}");
            assert_eq!(a.message_number(), b.message_number(), "{name}");
            assert_eq!(
                a.tracker.total_on_time(),
                b.tracker.total_on_time(),
                "{name}"
            );
            assert_eq!(
                a.tracker.total_earning().millis(),
                b.tracker.total_earning().millis(),
                "{name}"
            );
            assert_eq!(a.queued_at_end, b.queued_at_end, "{name}");
        }
    }
}
