//! Incremental table maintenance against from-scratch rebuilds: every row
//! of the differential grid (`tests/common/grid.rs`) with the table audits
//! and the plain run; the congested aggregate-forwarding rows, audited
//! every 32 events while joins and leaves hit the edge groups whose
//! envelopes rank and shed interior copies; and hand-built churn aimed at
//! the join / leave arms (unknown ids, a leave and a rejoin at one instant,
//! a re-homed live id, an edge group emptied and refilled), audited with
//! the dense layout in the same pass.

use bdps::overlay::topology::LayeredMeshConfig;
use bdps::prelude::*;

mod common;
use common::grid::{
    run_row, Check, Guard, Quorum, Recipe, Row, Scenario, BLACKOUT, CHAOS, CHURN, FLAP_STORM,
    LINK_FLAP, SMALL_MESH,
};
use common::{small_mesh_link_count, Audit};

/// The checks every grid row runs with here.
const REBUILD: &[Check] = &[Check::Tables, Check::PlainRun];

/// The checks the hand-built scenarios run with.
const AUDITED: &[Check] = &[Check::Tables, Check::DenseLayout, Check::PlainRun];

/// Publishing at 30 msgs/min saturates the small mesh, so stamped envelope
/// bounds actively rank and shed interior copies while churn mutates the
/// very groups the stamps were folded from.
const CONGESTED_AGGREGATE: Recipe = Recipe {
    forwarding: ForwardingMode::Aggregate,
    rate: 30.0,
    secs: 300,
    strategy: StrategyKind::MaxEb,
    audit: Audit::Every(32),
};

#[test]
fn link_flap_reports_are_engine_independent_on_seeds_1_to_10() {
    run_row(&LINK_FLAP, REBUILD);
}

#[test]
fn blackout_reports_are_engine_independent_on_seeds_1_to_10() {
    run_row(&BLACKOUT, REBUILD);
}

#[test]
fn churn_reports_are_engine_independent_on_seeds_1_to_10() {
    run_row(&CHURN, REBUILD);
}

#[test]
fn chaos_reports_are_engine_independent_on_seeds_1_to_10() {
    run_row(&CHAOS, REBUILD);
}

#[test]
fn flap_storm_is_engine_independent() {
    run_row(&FLAP_STORM, REBUILD);
}

#[test]
fn envelopes_stay_consistent_under_churn() {
    // Churn is what the envelopes exist for: the incremental prefix folds
    // are held to the scratch fold on long member lists.
    let row = Row {
        recipe: CONGESTED_AGGREGATE,
        scenario: Scenario::Named("churn"),
        seeds: &[7, 42, 20060816],
        guards: &[Guard::OnTime],
        quorum: Quorum::EveryRun,
    };
    run_row(&row, &[Check::Tables]);
}

#[test]
fn envelopes_stay_consistent_under_chaos() {
    // Retargets rewrite the routes towards edge groups while leaves shrink
    // the groups' envelopes in place.
    let row = Row {
        recipe: CONGESTED_AGGREGATE,
        scenario: Scenario::Named("chaos"),
        seeds: &[20060816],
        guards: &[Guard::OnTime],
        quorum: Quorum::EveryRun,
    };
    run_row(&row, &[Check::Tables]);
}

#[test]
fn a_batch_that_nets_to_nothing_recomputes_no_tree() {
    // Every link downed and restored at one instant: the coalesced batch
    // leaves liveness where the last rebuild saw it, so the engine's diff
    // against that snapshot is empty and routing is untouched.
    let mut blink = DynamicScenario::named("blink");
    for up in [false, true] {
        for raw in 0..small_mesh_link_count() {
            let link = LinkId::new(raw);
            let action = if up {
                ScenarioAction::LinkUp { link }
            } else {
                ScenarioAction::LinkDown { link }
            };
            blink = blink.at(Duration::from_secs(90), action);
        }
    }
    let outcome = SMALL_MESH.run(&blink, 5, AUDITED);
    assert_eq!(outcome.route_trees_recomputed, 0);
    assert_eq!(outcome.route_pairs_changed, 0);
    assert_eq!(outcome.entries_retargeted, 0);
    assert!(
        outcome.requeued() > 0,
        "the blink must still void the transfers it caught in flight"
    );
}

/// Members of the congested small-mesh population the hand-built churn
/// scenarios below target (every run of one seed draws the same population,
/// whatever the scenario).
fn population(seed: u64) -> Vec<(Subscription, BrokerId)> {
    let none = DynamicScenario::named("static");
    SMALL_MESH
        .builder(&none, seed)
        .build()
        .subscriptions()
        .to_vec()
}

#[test]
fn leave_of_an_unknown_id_is_a_no_op() {
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
    let without = SMALL_MESH.run(&leaves, seed, AUDITED);
    let with = SMALL_MESH.run(&strays, seed, AUDITED);
    assert_eq!(
        without.replay_state(),
        with.replay_state(),
        "a leave of an unknown id must change nothing"
    );
    assert!(
        without.dropped_unsubscribed() > 0,
        "the real leaves must orphan queued copies, or nothing was stripped"
    );
}

#[test]
fn leave_then_rejoin_at_one_instant_passes_the_table_audits() {
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
    let left = SMALL_MESH.run(&leave_only, seed, AUDITED).tracker;
    let rejoined = SMALL_MESH.run(&rejoin, seed, AUDITED);
    // Both halves must take effect: the leave strips queued copies, the
    // rejoin puts the subscriber back in scope of later publications.
    assert!(rejoined.dropped_unsubscribed() > 0);
    assert!(rejoined.tracker.total_interested() > left.total_interested());
    assert_eq!(rejoined.tracker.duplicate_deliveries(), 0);
}

#[test]
fn join_of_a_live_id_at_another_edge_is_a_leave_then_the_join() {
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
    // State by state: the old edge lost its row and every other broker
    // re-synced its aggregate towards the group that shrank.
    let moved = SMALL_MESH.run(&rehome, seed, AUDITED);
    assert!(
        moved.dropped_unsubscribed() > 0,
        "the implied leaves must orphan queued copies, or nothing was stripped"
    );
    assert_eq!(moved.tracker.duplicate_deliveries(), 0);
    let aggregate = Recipe {
        forwarding: ForwardingMode::Aggregate,
        ..SMALL_MESH
    };
    aggregate.run(&rehome, seed, &[Check::Tables, Check::DenseLayout]);
}

#[test]
fn an_edge_group_emptied_then_refilled_passes_the_table_audits() {
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
    // State by state: after the last leave no broker holds a route towards
    // the edge, after the first rejoin every broker that reaches it does.
    let left = SMALL_MESH.run(&emptied, seed, AUDITED).tracker;
    let back = SMALL_MESH.run(&refilled, seed, AUDITED).tracker;
    assert!(
        back.total_interested() > left.total_interested(),
        "the refilled group must be in scope of later publications again"
    );
    assert_eq!(back.duplicate_deliveries(), 0);
}

#[test]
fn runs_report_aggregate_counters() {
    // The observability half of the table: aggregates exist, every local
    // delivery is an edge expansion, and no table is ever rebuilt whole.
    let outcome = Simulation::builder()
        .layered_mesh(LayeredMeshConfig::small())
        .ssd(10.0)
        .duration(Duration::from_secs(180))
        .strategy(StrategyKind::MaxEb)
        .scenario_named("chaos")
        .expect("chaos is builtin")
        .seed(5)
        .build()
        .run();
    assert!(outcome.aggregate_entries > 0);
    assert_eq!(outcome.tables_rebuilt_full, 0);
    assert_eq!(
        outcome.expanded_at_edge(),
        outcome.tracker.total_on_time() + outcome.tracker.total_late()
    );
    assert!(outcome.table_bytes_estimate > 0);
}
