//! Differential-oracle suite: the production engine against the reference
//! engine, whole report by whole report.
//!
//! [`TableLayout`] selects one of two engines. `Dense` is the reference: one
//! replicated entry per subscription on every broker, and after every
//! coalesced link batch routing is recomputed from scratch and every table
//! rebuilt from the full population — the original implementation, with
//! nothing incremental to get wrong. `Sparse` is the production engine, the
//! one the benchmark measures: full entries only for locally attached
//! subscribers, one covering aggregate per remote destination, subscription
//! metadata in a shared registry, and link batches applied as a route delta
//! plus one aggregate patch per changed `(broker, destination)` pair. The
//! two are claimed to be **bit-identical**; this suite holds the production
//! engine to that claim by running the same seeds through the most
//! adversarial dynamic scenarios on both and requiring the *entire*
//! [`SimulationReport`] — per-phase breakdowns included — to be equal.
//! (`tests/rebuild_equivalence.rs` audits the production engine's tables
//! state by state on the same scenarios and seeds.)
//!
//! The hand-built "flap storm" scenario is the adversarial case the random
//! processes do not reach: hundreds of link events stacked on the *same
//! instant* (exercising the engine's rebuild coalescing), nested multi-depth
//! failures (a link downed twice needs two recoveries), flaps fully
//! contained between two events, and links left dead at the horizon.

use bdps::prelude::*;

mod common;
use common::{delivered_pairs, flap_storm, run_with_table_audits, small_mesh_link_count};

fn builder(scenario: &DynamicScenario, seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(240))
        .strategy(StrategyKind::MaxEbpc)
        .scenario(scenario.clone())
        .seed(seed)
}

fn report(scenario: &DynamicScenario, layout: TableLayout, seed: u64) -> SimulationReport {
    builder(scenario, seed).table_layout(layout).report()
}

/// Runs one scenario on both engines, asserts report equality and returns
/// the common report.
fn agreed_report(scenario: &DynamicScenario, seed: u64) -> SimulationReport {
    let dense = report(scenario, TableLayout::Dense, seed);
    let sparse = report(scenario, TableLayout::Sparse, seed);
    assert_eq!(
        dense, sparse,
        "the sparse engine drifted from the dense reference ({scenario}, seed {seed})"
    );
    dense
}

/// Runs one registry scenario over a seed range on both engines.
fn assert_layouts_agree(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry
        .resolve(scenario_name)
        .unwrap_or_else(|| panic!("{scenario_name} is a builtin scenario"));
    for seed in seeds {
        agreed_report(&scenario, seed);
    }
}

#[test]
fn link_flap_reports_are_layout_independent_on_seeds_1_to_10() {
    assert_layouts_agree("link-flap", 1..=10);
}

#[test]
fn blackout_reports_are_layout_independent_on_seeds_1_to_10() {
    // Blackouts are the mass-transition case: every aggregate disappears
    // when the mesh goes dark and must reappear with fresh routed fields on
    // recovery, exactly when the dense layout re-inserts every entry.
    assert_layouts_agree("blackout", 1..=10);
}

#[test]
fn churn_reports_are_layout_independent_on_seeds_1_to_10() {
    // Churn exercises the shared-registry path: joins register once
    // globally + expand at the edge, leaves must strip queued copies and
    // shrink aggregates identically to the dense per-broker removals.
    assert_layouts_agree("churn", 1..=10);
}

#[test]
fn chaos_reports_are_layout_independent_on_seeds_1_to_10() {
    // Chaos interleaves churn, bursts and link failures — a join during an
    // outage must become routable on recovery identically under both
    // layouts.
    assert_layouts_agree("chaos", 1..=10);
}

#[test]
fn flap_storm_is_layout_independent() {
    // The small mesh has 68 directed links; the storm's same-instant floods
    // are where a from-scratch rebuild and an incremental patch are furthest
    // apart in what they do, and must still end in the same tables.
    let links = small_mesh_link_count();
    for seed in [3u64, 7, 11] {
        let reference = agreed_report(&flap_storm(seed, links, 240), seed);
        // The storm must actually stress the rebuild machinery: link events
        // void transfers (requeues) in a congested mesh.
        assert!(
            reference.requeued > 0,
            "storm seed {seed} never caught a transfer in flight"
        );
    }
}

/// Members of the congested small-mesh population the hand-built churn
/// scenarios below target (every run of one seed draws the same population,
/// whatever the scenario).
fn population(seed: u64) -> Vec<(Subscription, BrokerId)> {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .seed(seed)
        .build()
        .subscriptions()
        .to_vec()
}

#[test]
fn leave_of_an_unknown_id_is_a_no_op_under_every_layout() {
    let seed = 6;
    let members = population(seed);
    // Real leaves while queues are loaded, so there is something to strip.
    let mut leaves = DynamicScenario::named("leaves");
    for (k, (sub, _)) in members.iter().take(12).enumerate() {
        let at = Duration::from_secs(60 + 10 * k as u64);
        leaves = leaves.at(
            at,
            ScenarioAction::SubscriptionLeave {
                subscription: sub.id,
            },
        );
    }
    // The same, plus leaves of an id that never existed and a second leave
    // of one that is already gone.
    let never = SubscriptionId::new(members.len() as u32 + 1_000);
    let strays = leaves
        .clone()
        .at(
            Duration::from_secs(30),
            ScenarioAction::SubscriptionLeave {
                subscription: never,
            },
        )
        .at(
            Duration::from_secs(200),
            ScenarioAction::SubscriptionLeave {
                subscription: never,
            },
        )
        .at(
            Duration::from_secs(200),
            ScenarioAction::SubscriptionLeave {
                subscription: members[0].0.id,
            },
        );
    let without = agreed_report(&leaves, seed);
    let with = agreed_report(&strays, seed);
    assert_eq!(
        without, with,
        "a leave of an unknown id must change nothing"
    );
    assert!(
        without.dropped_unsubscribed > 0,
        "the real leaves must orphan queued copies, or nothing was stripped"
    );
}

#[test]
fn leave_then_rejoin_at_one_instant_is_layout_independent() {
    let seed = 6;
    let members = population(seed);
    let mut leave_only = DynamicScenario::named("leave-rejoin");
    let mut rejoin = DynamicScenario::named("leave-rejoin");
    for (k, (sub, edge)) in members.iter().take(12).enumerate() {
        let at = Duration::from_secs(60 + 10 * k as u64);
        let leave = ScenarioAction::SubscriptionLeave {
            subscription: sub.id,
        };
        leave_only = leave_only.at(at, leave.clone());
        rejoin = rejoin.at(at, leave).at(
            at,
            ScenarioAction::SubscriptionJoin {
                subscription: sub.clone(),
                broker: *edge,
            },
        );
    }
    let left = agreed_report(&leave_only, seed);
    let rejoined = agreed_report(&rejoin, seed);
    // Both halves must take effect: the leave strips queued copies, the
    // rejoin puts the subscriber back in scope of later publications.
    assert!(rejoined.dropped_unsubscribed > 0);
    assert!(rejoined.interested > left.interested);
    assert_eq!(rejoined.duplicate_deliveries, 0);
}

#[test]
fn join_of_a_live_id_at_another_edge_is_a_leave_then_the_join_under_every_layout() {
    let seed = 6;
    let members = population(seed);
    // Twelve live ids re-homed while queues are loaded, with no leave: the
    // join itself must take the id away from its old edge.
    let mut rehome = DynamicScenario::named("re-home");
    for (k, (sub, edge)) in members.iter().take(12).enumerate() {
        let elsewhere = members
            .iter()
            .map(|(_, other)| *other)
            .find(|other| other != edge)
            .expect("the population spans more than one edge");
        rehome = rehome.at(
            Duration::from_secs(60 + 10 * k as u64),
            ScenarioAction::SubscriptionJoin {
                subscription: sub.clone(),
                broker: elsewhere,
            },
        );
    }
    let moved = agreed_report(&rehome, seed);
    assert!(
        moved.dropped_unsubscribed > 0,
        "the implied leaves must orphan queued copies, or nothing was stripped"
    );
    assert_eq!(moved.duplicate_deliveries, 0);
    // State by state: the old edge lost its row and every other broker
    // re-synced its aggregate towards the group that shrank.
    for forwarding in ForwardingMode::ALL {
        let production = builder(&rehome, seed).forwarding(forwarding);
        run_with_table_audits(production.build(), &format!("re-home, {forwarding}"));
    }
}

#[test]
fn an_edge_group_emptied_then_refilled_is_layout_independent() {
    let seed = 6;
    let members = population(seed);
    // The smallest edge group: every one of its members leaves while queues
    // are loaded, so interior brokers must drop their route towards the
    // edge; later they all rejoin, so every interior broker must add it back.
    let mut groups: std::collections::BTreeMap<BrokerId, Vec<&Subscription>> = Default::default();
    for (sub, edge) in &members {
        groups.entry(*edge).or_default().push(sub);
    }
    let (edge, group) = groups
        .iter()
        .min_by_key(|(_, group)| group.len())
        .expect("the population has an edge group");
    let mut emptied = DynamicScenario::named("empty-refill");
    for (k, sub) in group.iter().enumerate() {
        let leave = ScenarioAction::SubscriptionLeave {
            subscription: sub.id,
        };
        emptied = emptied.at(Duration::from_secs(60 + k as u64), leave);
    }
    let mut refilled = emptied.clone();
    for (k, sub) in group.iter().enumerate() {
        let join = ScenarioAction::SubscriptionJoin {
            subscription: (*sub).clone(),
            broker: *edge,
        };
        refilled = refilled.at(Duration::from_secs(150 + k as u64), join);
    }
    let left = agreed_report(&emptied, seed);
    let back = agreed_report(&refilled, seed);
    assert!(
        back.interested > left.interested,
        "the refilled group must be in scope of later publications again"
    );
    assert_eq!(back.duplicate_deliveries, 0);
    // State by state: after the last leave no broker holds a route towards
    // the edge, after the first rejoin every broker that reaches it does.
    run_with_table_audits(builder(&refilled, seed).build(), "empty-refill");
}

#[test]
fn sparse_runs_report_aggregate_counters() {
    // The observability half of the layout: aggregates exist, every local
    // delivery is an edge expansion, and the memory estimate shrinks.
    let run = |layout: TableLayout| {
        Simulation::builder()
            .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
            .ssd(10.0)
            .duration(Duration::from_secs(180))
            .strategy(StrategyKind::MaxEb)
            .scenario_named("chaos")
            .expect("chaos is builtin")
            .table_layout(layout)
            .seed(5)
            .build()
            .run()
    };
    let dense = run(TableLayout::Dense);
    let sparse = run(TableLayout::Sparse);
    // Bit-identical layouts also means bit-identical delivery sets — the
    // same pair oracle the forwarding suite uses.
    assert_eq!(delivered_pairs(&dense), delivered_pairs(&sparse));
    assert_eq!(dense.aggregate_entries, 0);
    assert_eq!(dense.expanded_at_edge(), 0);
    assert!(sparse.aggregate_entries > 0);
    assert_eq!(
        sparse.expanded_at_edge(),
        sparse.tracker.total_on_time() + sparse.tracker.total_late()
    );
    assert!(sparse.table_bytes_estimate < dense.table_bytes_estimate);
    assert!(dense.table_bytes_estimate > 0);
}

#[test]
fn table_layout_round_trips_through_config_and_registry_names() {
    let config = Simulation::builder()
        .table_layout(TableLayout::Dense)
        .build_config();
    assert_eq!(config.table_layout, TableLayout::Dense);
    let rebuilt = SimulationBuilder::from_config(&config).build_config();
    assert_eq!(rebuilt, config);
    // The default is the engine the benchmark measures; the reference is
    // only ever reached by asking for it.
    assert_eq!(
        Simulation::builder().build_config().table_layout,
        TableLayout::Sparse
    );
    for layout in TableLayout::ALL {
        assert_eq!(TableLayout::from_name(layout.name()), Some(layout));
    }
    assert!(TableLayout::from_name("bogus").is_none());
}
