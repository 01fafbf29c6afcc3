//! Dynamic scenarios: timed perturbations injected into a running simulation.
//!
//! The paper's evaluation keeps everything stationary — a fixed subscription
//! population, Poisson publishers at a constant rate, always-healthy links.
//! Real deployments are dominated by exactly the opposite: subscribers come
//! and go, publishers burst, links fail and recover. A [`DynamicScenario`]
//! describes those dynamics declaratively; before the run starts it is
//! [materialised](DynamicScenario::materialize) into a concrete, sorted
//! stream of [`ScenarioEvent`]s using an RNG stream derived from the run's
//! root seed, so a scenario run replays **bit-for-bit** for the same seed.
//!
//! The pieces:
//!
//! * [`ScenarioAction`] / [`ScenarioEvent`] — the primitive mutations the
//!   engine knows how to apply (subscription join/leave, publisher rate
//!   change, link down/up, phase marks for reporting);
//! * [`DynamicScenario`] — a plain-data scenario description combining
//!   explicit events with stochastic processes
//!   ([`ChurnConfig`],
//!   [`BurstConfig`],
//!   [`LinkFailureConfig`],
//!   [`BlackoutWindow`]);
//! * [`ScenarioRegistry`] — the name-based lookup strategies use too
//!   ([`Registry`]), so CLI binaries can say `--scenarios chaos`.

use crate::workload::{
    BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, WorkloadConfig,
};
use bdps_filter::subscription::Subscription;
use bdps_overlay::graph::OverlayGraph;
use bdps_overlay::sparse::aggregate_scope_dest;
use bdps_overlay::topology::Topology;
use bdps_stats::rng::SimRng;
use bdps_types::error::{BdpsError, Result};
use bdps_types::id::{BrokerId, LinkId, PublisherId, SubscriberId, SubscriptionId};
use bdps_types::registry::{Builtins, Registry};
use bdps_types::time::Duration;
use std::fmt;

/// One primitive mutation the simulation engine can apply mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// A new subscription joins at the given edge broker. The subscription is
    /// fully materialised (id, filter, QoS) so replays are exact. A join of
    /// an id that is already live is exactly a [`SubscriptionLeave`] of that
    /// id followed by this join at the same instant: the old edge loses the
    /// row, queued copies lose the target (and are counted as dropped when
    /// left with none), then the subscription attaches at `broker`.
    ///
    /// [`SubscriptionLeave`]: ScenarioAction::SubscriptionLeave
    SubscriptionJoin {
        /// The joining subscription.
        subscription: Subscription,
        /// The broker the new subscriber attaches to.
        broker: BrokerId,
    },
    /// An existing subscription leaves the system. Queued copies lose the
    /// corresponding target; copies left with no target are discarded.
    SubscriptionLeave {
        /// The departing subscription.
        subscription: SubscriptionId,
    },
    /// Scales a publisher's publishing rate (`None` = every publisher).
    /// `multiplier` 1.0 restores the base rate, 0.0 silences the publisher,
    /// values above 1.0 model bursts.
    PublisherRate {
        /// The affected publisher, or `None` for all.
        publisher: Option<PublisherId>,
        /// The factor applied to the workload's base publishing rate.
        multiplier: f64,
    },
    /// Takes one directed link down. Copies in flight on the link when it
    /// fails are requeued at the sender; queued copies wait (and age) until
    /// the link recovers or they expire. Failures nest: a link downed twice
    /// needs two [`LinkUp`](ScenarioAction::LinkUp)s to recover.
    LinkDown {
        /// The failing link.
        link: LinkId,
    },
    /// Restores one directed link and immediately pumps its queue.
    LinkUp {
        /// The recovering link.
        link: LinkId,
    },
    /// Starts a new reporting phase; per-phase metrics accumulate under this
    /// label until the next mark (see `SimulationReport::phases`).
    PhaseMark {
        /// Free-form phase label ("burst", "blackout", ...).
        label: String,
    },
}

impl ScenarioAction {
    /// A short stable label identifying the action — used in event labels and
    /// state digests by the model-checking explorer (`join:f3@b1`,
    /// `leave:f3`, `rate:p0:2`, `rate:all:0.5`, `link-down:l2`, `link-up:l2`,
    /// `phase:<label>`).
    pub fn label(&self) -> String {
        match self {
            ScenarioAction::SubscriptionJoin {
                subscription,
                broker,
            } => format!("join:f{}@b{}", subscription.id.index(), broker.index()),
            ScenarioAction::SubscriptionLeave { subscription } => {
                format!("leave:f{}", subscription.index())
            }
            ScenarioAction::PublisherRate {
                publisher,
                multiplier,
            } => match publisher {
                Some(p) => format!("rate:p{}:{}", p.index(), multiplier),
                None => format!("rate:all:{}", multiplier),
            },
            ScenarioAction::LinkDown { link } => format!("link-down:l{}", link.index()),
            ScenarioAction::LinkUp { link } => format!("link-up:l{}", link.index()),
            ScenarioAction::PhaseMark { label } => format!("phase:{}", label),
        }
    }
}

/// A [`ScenarioAction`] scheduled at an offset from the start of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// When the action fires, relative to simulation start.
    pub at: Duration,
    /// What happens.
    pub action: ScenarioAction,
}

/// Checks a materialised event stream against the overlay it will run on:
/// a link event must name a link of `graph`, a join a broker of `graph` (and
/// an id without the aggregate sentinel bit), a rate change a finite
/// multiplier. Unchecked, those surface mid-run — as an index panic, a
/// subscriber no route reaches, a muted publisher. A leave of an id nobody
/// holds and a rate change for a publisher the topology does not have are
/// no-ops by design and pass.
pub(crate) fn validate_events(events: &[ScenarioEvent], graph: &OverlayGraph) -> Result<()> {
    let (links, brokers) = (graph.link_count(), graph.broker_count());
    for (index, event) in events.iter().enumerate() {
        let problem = match &event.action {
            ScenarioAction::LinkDown { link } | ScenarioAction::LinkUp { link }
                if link.index() >= links =>
            {
                format!("the graph has {links} links")
            }
            ScenarioAction::SubscriptionJoin { broker, .. } if broker.index() >= brokers => {
                format!("the graph has {brokers} brokers")
            }
            ScenarioAction::SubscriptionJoin { subscription, .. }
                if aggregate_scope_dest(subscription.id).is_some() =>
            {
                "the subscription id carries the aggregate sentinel bit".into()
            }
            ScenarioAction::PublisherRate { multiplier, .. } if !multiplier.is_finite() => {
                "the rate multiplier must be finite".into()
            }
            _ => continue,
        };
        return Err(BdpsError::InvalidConfig(format!(
            "scenario event {index} ({}): {problem}",
            event.action.label()
        )));
    }
    Ok(())
}

/// A declarative description of a run's dynamics.
///
/// The default scenario is **static** — no events, matching the paper's
/// evaluation exactly. Explicit events and stochastic processes compose
/// freely; everything is expanded by [`materialize`](Self::materialize)
/// before the run starts, so the same `(scenario, topology, workload, seed)`
/// quadruple always yields the same event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicScenario {
    /// Display name carried into reports ("static", "chaos", ...).
    pub name: String,
    /// Explicit, hand-placed events.
    pub events: Vec<ScenarioEvent>,
    /// Subscription churn process, if any.
    pub churn: Option<ChurnConfig>,
    /// Publisher burst (MMPP) process, if any.
    pub bursts: Option<BurstConfig>,
    /// Random link failure process, if any.
    pub link_failures: Option<LinkFailureConfig>,
    /// Explicit all-links-down windows.
    pub blackouts: Vec<BlackoutWindow>,
}

impl Default for DynamicScenario {
    fn default() -> Self {
        DynamicScenario::named("static")
    }
}

impl fmt::Display for DynamicScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl DynamicScenario {
    /// An empty scenario with the given display name.
    pub fn named(name: impl Into<String>) -> Self {
        DynamicScenario {
            name: name.into(),
            events: Vec::new(),
            churn: None,
            bursts: None,
            link_failures: None,
            blackouts: Vec::new(),
        }
    }

    /// The static scenario (no dynamics) — the paper's evaluation setting.
    pub fn static_scenario() -> Self {
        Self::default()
    }

    /// Adds an explicit event at the given offset.
    pub fn at(mut self, at: Duration, action: ScenarioAction) -> Self {
        self.events.push(ScenarioEvent { at, action });
        self
    }

    /// Enables a subscription churn process.
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Enables an MMPP-style publisher burst process.
    ///
    /// The burst process **owns the global publisher-rate channel**: it
    /// emits absolute `PublisherRate` events (the burst multiplier at each
    /// window start, 1.0 at each end). An explicit
    /// [`PublisherRate`](ScenarioAction::PublisherRate) event placed inside
    /// a sampled burst window is therefore overwritten when the window
    /// closes — combine explicit rate control with bursts only for
    /// per-publisher overrides you re-assert after each burst, or model the
    /// lull as its own scenario without the burst process.
    pub fn with_bursts(mut self, bursts: BurstConfig) -> Self {
        self.bursts = Some(bursts);
        self
    }

    /// Enables a random link failure process.
    pub fn with_link_failures(mut self, failures: LinkFailureConfig) -> Self {
        self.link_failures = Some(failures);
        self
    }

    /// Adds an all-links-down window.
    pub fn with_blackout(mut self, window: BlackoutWindow) -> Self {
        self.blackouts.push(window);
        self
    }

    /// Checks the stochastic processes' own parameters, so that
    /// [`materialize`](Self::materialize) never hands a sampler a value it
    /// asserts on (a NaN, infinite or non-positive mean) or silently
    /// degenerates over (a NaN blackout fraction clamps to a zero-length
    /// outage at t = 0). Every float must be finite; the means the samplers
    /// divide by must be positive, rates and the burst multiplier
    /// non-negative, blackout fractions in [0, 1].
    pub fn validate(&self) -> Result<()> {
        type Range = (&'static str, fn(f64) -> bool);
        const POSITIVE: Range = ("positive and finite", |x| x > 0.0 && x.is_finite());
        const NON_NEGATIVE: Range = ("non-negative and finite", |x| x >= 0.0 && x.is_finite());
        const FRACTION: Range = ("in [0, 1]", |x| (0.0..=1.0).contains(&x));
        let check = |field: &str, value: f64, (range, ok): Range| match ok(value) {
            true => Ok(()),
            false => Err(BdpsError::InvalidConfig(format!(
                "scenario {field} must be {range}, got {value}"
            ))),
        };
        if let Some(c) = &self.churn {
            check("churn.joins_per_min", c.joins_per_min, NON_NEGATIVE)?;
            check("churn.leaves_per_min", c.leaves_per_min, NON_NEGATIVE)?;
        }
        if let Some(b) = &self.bursts {
            check("bursts.mean_calm_secs", b.mean_calm_secs, POSITIVE)?;
            check("bursts.mean_burst_secs", b.mean_burst_secs, POSITIVE)?;
            check("bursts.multiplier", b.multiplier, NON_NEGATIVE)?;
        }
        if let Some(f) = &self.link_failures {
            check(
                "link_failures.mean_time_between_failures_secs",
                f.mean_time_between_failures_secs,
                POSITIVE,
            )?;
            check(
                "link_failures.mean_downtime_secs",
                f.mean_downtime_secs,
                POSITIVE,
            )?;
        }
        for w in &self.blackouts {
            check("blackout.start_frac", w.start_frac, FRACTION)?;
            check("blackout.duration_frac", w.duration_frac, FRACTION)?;
        }
        Ok(())
    }

    /// Returns true when the scenario introduces no dynamics at all.
    pub fn is_static(&self) -> bool {
        self.events.is_empty()
            && self.churn.is_none()
            && self.bursts.is_none()
            && self.link_failures.is_none()
            && self.blackouts.is_empty()
    }

    /// Expands the scenario into a concrete event stream over the workload's
    /// publication period, sorted by time (stable for simultaneous events).
    ///
    /// All randomness comes from `rng`; the caller derives it from the run's
    /// root seed, which is what makes scenario runs replayable. Subscription
    /// ids for churn joins are allocated densely above the initial population
    /// (`topology.subscribers.len()`), matching the engine's numbering.
    pub fn materialize(
        &self,
        topology: &Topology,
        workload: &WorkloadConfig,
        rng: &mut SimRng,
    ) -> Vec<ScenarioEvent> {
        let horizon = workload.duration;
        let mut out: Vec<ScenarioEvent> = self.events.clone();

        // Blackout windows: a phase mark, then every link down; the reverse
        // on recovery. Emission order at equal times is preserved by the
        // stable sort below, so the engine sees the mark first and can
        // coalesce the link flood into one routing rebuild.
        let all_links: Vec<LinkId> = topology.graph.links().map(|l| l.id).collect();
        for window in &self.blackouts {
            let (start, end) = window.resolve(horizon);
            out.push(ScenarioEvent {
                at: start,
                action: ScenarioAction::PhaseMark {
                    label: "blackout".into(),
                },
            });
            for &link in &all_links {
                out.push(ScenarioEvent {
                    at: start,
                    action: ScenarioAction::LinkDown { link },
                });
            }
            for &link in &all_links {
                out.push(ScenarioEvent {
                    at: end,
                    action: ScenarioAction::LinkUp { link },
                });
            }
            out.push(ScenarioEvent {
                at: end,
                action: ScenarioAction::PhaseMark {
                    label: "restored".into(),
                },
            });
        }

        // Publisher bursts: rate up at each window start, back to base at the
        // end, with phase marks so the report shows the burst separately.
        if let Some(bursts) = &self.bursts {
            for (start, end) in bursts.sample_windows(horizon, rng) {
                out.push(ScenarioEvent {
                    at: start,
                    action: ScenarioAction::PhaseMark {
                        label: "burst".into(),
                    },
                });
                out.push(ScenarioEvent {
                    at: start,
                    action: ScenarioAction::PublisherRate {
                        publisher: None,
                        multiplier: bursts.multiplier,
                    },
                });
                out.push(ScenarioEvent {
                    at: end,
                    action: ScenarioAction::PublisherRate {
                        publisher: None,
                        multiplier: 1.0,
                    },
                });
                out.push(ScenarioEvent {
                    at: end,
                    action: ScenarioAction::PhaseMark {
                        label: "calm".into(),
                    },
                });
            }
        }

        // Subscription churn: joins and leaves are independent Poisson
        // streams; a leave picks uniformly among the subscriptions active at
        // that instant (initial population plus earlier joins, minus earlier
        // leaves), so the process never targets an absent subscription.
        if let Some(churn) = &self.churn {
            let joins = ChurnConfig::poisson_instants(churn.joins_per_min, horizon, rng);
            let leaves = ChurnConfig::poisson_instants(churn.leaves_per_min, horizon, rng);
            let edges = topology.graph.edge_brokers();
            let initial = topology.subscribers.len() as u32;
            let mut active: Vec<SubscriptionId> = (0..initial).map(SubscriptionId::new).collect();
            let mut next_id = initial;
            let (mut ji, mut li) = (0usize, 0usize);
            while ji < joins.len() || li < leaves.len() {
                let join_next = ji < joins.len() && (li >= leaves.len() || joins[ji] <= leaves[li]);
                if join_next {
                    if !edges.is_empty() {
                        let broker = edges[rng.uniform_usize(0, edges.len())];
                        let id = SubscriptionId::new(next_id);
                        let subscriber = SubscriberId::new(next_id);
                        next_id += 1;
                        let subscription = workload.generate_subscription(id, subscriber, rng);
                        active.push(id);
                        out.push(ScenarioEvent {
                            at: joins[ji],
                            action: ScenarioAction::SubscriptionJoin {
                                subscription,
                                broker,
                            },
                        });
                    }
                    ji += 1;
                } else {
                    if !active.is_empty() {
                        let idx = rng.uniform_usize(0, active.len());
                        let id = active.remove(idx);
                        out.push(ScenarioEvent {
                            at: leaves[li],
                            action: ScenarioAction::SubscriptionLeave { subscription: id },
                        });
                    }
                    li += 1;
                }
            }
        }

        // Random link failures: each failure takes a random broker pair down
        // in both directions for the sampled repair time. Overlapping windows
        // on the same link nest via the engine's down-depth counter.
        if let Some(failures) = &self.link_failures {
            let links: Vec<(LinkId, BrokerId, BrokerId)> = topology
                .graph
                .links()
                .map(|l| (l.id, l.from, l.to))
                .collect();
            if !links.is_empty() {
                for (start, end) in failures.sample_windows(horizon, rng) {
                    let (link, from, to) = links[rng.uniform_usize(0, links.len())];
                    let mut pair = vec![link];
                    if let Some(reverse) = topology.graph.link_between(to, from) {
                        pair.push(reverse.id);
                    }
                    for &l in &pair {
                        out.push(ScenarioEvent {
                            at: start,
                            action: ScenarioAction::LinkDown { link: l },
                        });
                    }
                    for &l in &pair {
                        out.push(ScenarioEvent {
                            at: end,
                            action: ScenarioAction::LinkUp { link: l },
                        });
                    }
                }
            }
        }

        out.sort_by_key(|e| e.at);
        out
    }
}

/// Name-based scenario lookup for command-line binaries and sweeps — the
/// same [`Registry`] strategies and link models resolve through.
///
/// [`ScenarioRegistry::builtin`] holds:
///
/// | name | dynamics |
/// |------|----------|
/// | `static` | none (the paper's setting) |
/// | `churn` | subscription joins and leaves, one of each per minute |
/// | `flash-crowd` | MMPP publisher bursts at 4× the base rate |
/// | `link-flap` | random link failures, ~30 s downtime each |
/// | `link-storm` | a failure every ~2 s, overlapping ~5 s outages |
/// | `blackout` | every link down for the middle 15% of the run |
/// | `chaos` | churn + flash-crowd + link-flap combined |
pub type ScenarioRegistry = Registry<DynamicScenario>;

impl Builtins for DynamicScenario {
    fn register_builtins(r: &mut ScenarioRegistry) {
        r.register("static", DynamicScenario::static_scenario);
        r.register_with_aliases("churn", &["subscription-churn"], || {
            DynamicScenario::named("churn").with_churn(ChurnConfig::moderate())
        });
        r.register_with_aliases("flash-crowd", &["bursts", "burst"], || {
            DynamicScenario::named("flash-crowd").with_bursts(BurstConfig::flash_crowd())
        });
        r.register_with_aliases("link-flap", &["link-failures"], || {
            DynamicScenario::named("link-flap").with_link_failures(LinkFailureConfig::flaky())
        });
        r.register_with_aliases("link-storm", &["flap-storm", "storm"], || {
            DynamicScenario::named("link-storm").with_link_failures(LinkFailureConfig::storm())
        });
        r.register("blackout", || {
            DynamicScenario::named("blackout").with_blackout(BlackoutWindow {
                start_frac: 0.4,
                duration_frac: 0.15,
            })
        });
        r.register_with_aliases("chaos", &["all", "everything"], || {
            DynamicScenario::named("chaos")
                .with_churn(ChurnConfig::moderate())
                .with_bursts(BurstConfig::flash_crowd())
                .with_link_failures(LinkFailureConfig::flaky())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;
    use bdps_overlay::topology::LayeredMeshConfig;

    fn topo(seed: u64) -> Topology {
        Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(seed),
            |_rng| LinkQuality::new(FixedRate::new(10.0)),
        )
        .unwrap()
    }

    fn workload() -> WorkloadConfig {
        let mut w = WorkloadConfig::paper_ssd(6.0);
        w.duration = Duration::from_secs(1_200);
        w
    }

    #[test]
    fn static_scenario_materialises_to_nothing() {
        let s = DynamicScenario::static_scenario();
        assert!(s.is_static());
        let events = s.materialize(&topo(1), &workload(), &mut SimRng::seed_from(2));
        assert!(events.is_empty());
    }

    #[test]
    fn materialisation_is_deterministic_and_sorted() {
        let s = DynamicScenario::named("chaos")
            .with_churn(ChurnConfig::moderate())
            .with_bursts(BurstConfig::flash_crowd())
            .with_link_failures(LinkFailureConfig::flaky());
        assert!(!s.is_static());
        let a = s.materialize(&topo(1), &workload(), &mut SimRng::seed_from(3));
        let b = s.materialize(&topo(1), &workload(), &mut SimRng::seed_from(3));
        assert_eq!(a, b, "same seed must materialise identically");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "must be sorted");
        let c = s.materialize(&topo(1), &workload(), &mut SimRng::seed_from(4));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn churn_leaves_only_target_active_subscriptions() {
        let s = DynamicScenario::named("churn").with_churn(ChurnConfig {
            joins_per_min: 3.0,
            leaves_per_min: 3.0,
        });
        let topology = topo(5);
        let events = s.materialize(&topology, &workload(), &mut SimRng::seed_from(6));
        let initial = topology.subscribers.len() as u32;
        let mut active: std::collections::HashSet<u32> = (0..initial).collect();
        for e in &events {
            match &e.action {
                ScenarioAction::SubscriptionJoin {
                    subscription,
                    broker,
                } => {
                    assert!(subscription.id.raw() >= initial, "fresh ids only");
                    assert!(topology.graph.broker(*broker).is_edge());
                    assert!(active.insert(subscription.id.raw()), "no id reuse");
                }
                ScenarioAction::SubscriptionLeave { subscription } => {
                    assert!(
                        active.remove(&subscription.raw()),
                        "leave of inactive subscription {subscription:?}"
                    );
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn blackout_takes_every_link_down_and_up() {
        let topology = topo(7);
        let s = DynamicScenario::named("blackout").with_blackout(BlackoutWindow {
            start_frac: 0.5,
            duration_frac: 0.25,
        });
        let events = s.materialize(&topology, &workload(), &mut SimRng::seed_from(8));
        let n_links = topology.graph.link_count();
        let downs = events
            .iter()
            .filter(|e| matches!(e.action, ScenarioAction::LinkDown { .. }))
            .count();
        let ups = events
            .iter()
            .filter(|e| matches!(e.action, ScenarioAction::LinkUp { .. }))
            .count();
        let marks = events
            .iter()
            .filter(|e| matches!(e.action, ScenarioAction::PhaseMark { .. }))
            .count();
        assert_eq!(downs, n_links);
        assert_eq!(ups, n_links);
        assert_eq!(marks, 2);
        // The phase mark at the window start sorts before the link flood.
        let first_at_start = events
            .iter()
            .find(|e| e.at == Duration::from_secs(600))
            .unwrap();
        assert!(matches!(
            first_at_start.action,
            ScenarioAction::PhaseMark { .. }
        ));
    }

    #[test]
    fn link_failures_take_both_directions_down() {
        let topology = topo(9);
        let s = DynamicScenario::named("flap").with_link_failures(LinkFailureConfig::flaky());
        let events = s.materialize(&topology, &workload(), &mut SimRng::seed_from(10));
        let downs: Vec<LinkId> = events
            .iter()
            .filter_map(|e| match e.action {
                ScenarioAction::LinkDown { link } => Some(link),
                _ => None,
            })
            .collect();
        let ups: Vec<LinkId> = events
            .iter()
            .filter_map(|e| match e.action {
                ScenarioAction::LinkUp { link } => Some(link),
                _ => None,
            })
            .collect();
        assert!(!downs.is_empty());
        // Every failure is paired: equally many downs and ups per link.
        let mut down_counts = std::collections::HashMap::new();
        for l in &downs {
            *down_counts.entry(*l).or_insert(0i64) += 1;
        }
        for l in &ups {
            *down_counts.entry(*l).or_insert(0) -= 1;
        }
        assert!(down_counts.values().all(|&c| c == 0));
    }

    #[test]
    fn registry_resolves_builtins_and_custom_registrations() {
        let registry = ScenarioRegistry::builtin();
        let names = registry.names();
        for expected in [
            "static",
            "churn",
            "flash-crowd",
            "link-flap",
            "blackout",
            "chaos",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
            let s = registry.resolve(expected).unwrap();
            assert_eq!(s.name, expected);
        }
        // Aliases and case-insensitivity.
        assert_eq!(registry.resolve("BURSTS").unwrap().name, "flash-crowd");
        assert_eq!(registry.resolve("ALL").unwrap().name, "chaos");
        assert!(registry.resolve("bogus").is_none());
        assert!(registry.resolve("static").unwrap().is_static());
        assert!(!registry.resolve("chaos").unwrap().is_static());

        let mut registry = registry;
        registry.register("my-chaos", || {
            DynamicScenario::named("my-chaos").with_churn(ChurnConfig::moderate())
        });
        assert!(registry.resolve("my-chaos").is_some());
        // Shadowing: a later "churn" registration wins.
        registry.register("churn", DynamicScenario::static_scenario);
        assert!(registry.resolve("churn").unwrap().is_static());
    }

    #[test]
    fn explicit_events_survive_materialisation() {
        let s = DynamicScenario::named("handmade")
            .at(
                Duration::from_secs(10),
                ScenarioAction::PublisherRate {
                    publisher: Some(PublisherId::new(0)),
                    multiplier: 0.0,
                },
            )
            .at(
                Duration::from_secs(5),
                ScenarioAction::PhaseMark {
                    label: "early".into(),
                },
            );
        let events = s.materialize(&topo(1), &workload(), &mut SimRng::seed_from(1));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].at, Duration::from_secs(5), "sorted by time");
    }
}
