//! State-level audit of the engine's incremental table maintenance.
//!
//! After link events the engine recomputes only the affected destination
//! trees and patches only the aggregates whose route entry changed; joins
//! and leaves touch interior tables only when they open or empty an edge
//! group. This suite looks *inside* a run: it steps the engine through the
//! most adversarial link-dynamics and churn scenarios and, at every instant
//! that holds a scenario event, calls [`Simulation::audit_tables`] after
//! every event of the instant — the registry must equal the population list,
//! routing a from-scratch `Routing::compute_filtered`, every broker's table
//! a from-scratch `SparseTable::build`, every envelope the fold over its
//! members. A patch that skips one destination fails here at the instant it
//! happens, not whenever a report first shows it.
//!
//! The stepped run must also end in exactly the report the same build
//! produces through the plain `report()` path, so the stepping harness
//! provably did not perturb the run it audited.
//!
//! The hand-built "flap storm" scenario is the adversarial case the random
//! processes do not reach: hundreds of link events stacked on the *same
//! instant* (exercising the engine's rebuild coalescing), nested multi-depth
//! failures (a link downed twice needs two recoveries), flaps fully
//! contained between two events, and links left dead at the horizon. The
//! hand-built churn scenarios below aim at the join / leave arms: unknown
//! ids, a leave and a rejoin at one instant, a join that re-homes a live id,
//! and an edge group emptied and then refilled.

use bdps::prelude::*;

mod common;
use common::{flap_storm, run_with_table_audits, small_mesh_link_count};

fn builder(scenario: &DynamicScenario, seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(240))
        .strategy(StrategyKind::MaxEbpc)
        .scenario(scenario.clone())
        .seed(seed)
}

/// Steps one run, auditing its registry, routing and tables against a
/// from-scratch rebuild after every event of every instant that holds a
/// scenario event, then holds the stepped run's report to the plain
/// `report()` of the same build. Returns the outcome and the report.
fn audited_run(scenario: &DynamicScenario, seed: u64) -> (SimulationOutcome, SimulationReport) {
    let build = builder(scenario, seed);
    let what = format!("{scenario}, seed {seed}");
    let outcome = run_with_table_audits(build.build(), &what);
    let config = build.build_config();
    let stepped = SimulationReport::from_outcome(
        &outcome,
        &config.scheduler.strategy,
        config.scheduler.ebpc_weight,
        config.workload.scenario,
        &config.scenario.name,
        &config.workload,
        config.seed,
    );
    assert_eq!(
        build.report(),
        stepped,
        "the stepped run drifted from the plain run ({scenario}, seed {seed})"
    );
    (outcome, stepped)
}

/// Audits one registry scenario over a seed range. The seeds together must
/// have done what the scenario is for — moved routes, or (for churn) let
/// subscriptions go — at an audited instant, or the audit is vacuous.
fn audit_scenario(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    let scenario = DynamicScenario::from_name(scenario_name)
        .unwrap_or_else(|| panic!("{scenario_name} is a builtin scenario"));
    let (mut trees, mut pairs, mut unsubscribed) = (0, 0, 0);
    for seed in seeds {
        let (outcome, report) = audited_run(&scenario, seed);
        trees += outcome.route_trees_recomputed;
        pairs += outcome.route_pairs_changed;
        unsubscribed += report.dropped_unsubscribed;
    }
    let exercised = match scenario_name {
        "churn" => unsubscribed > 0,
        _ => trees > 0 && pairs > 0,
    };
    assert!(exercised, "{scenario_name} never exercised what it audits");
}

#[test]
fn link_flap_reports_are_engine_independent_on_seeds_1_to_10() {
    audit_scenario("link-flap", 1..=10);
}

#[test]
fn blackout_reports_are_engine_independent_on_seeds_1_to_10() {
    // The mass transition: every aggregate disappears when the mesh goes
    // dark and must reappear with fresh routed fields on recovery.
    audit_scenario("blackout", 1..=10);
}

#[test]
fn churn_reports_are_engine_independent_on_seeds_1_to_10() {
    // Churn exercises the shared-registry path: joins register once
    // globally and expand at the edge, leaves strip queued copies and drop
    // the route towards an emptied group.
    audit_scenario("churn", 1..=10);
}

#[test]
fn chaos_reports_are_engine_independent_on_seeds_1_to_10() {
    // Chaos combines churn, bursts and link failures, so the audit also
    // covers subscription joins/leaves interleaved with rebuilds (a join
    // during an outage must patch in on recovery).
    audit_scenario("chaos", 1..=10);
}

#[test]
fn flap_storm_is_engine_independent() {
    // The small mesh has 68 directed links.
    let links = small_mesh_link_count();
    for seed in [3u64, 7, 11] {
        let (outcome, _) = audited_run(&flap_storm(seed, links, 240), seed);
        // The storm must actually stress the rebuild machinery: link events
        // void transfers (requeues) in a congested mesh, move routes and
        // patch the aggregates that follow them.
        assert!(
            outcome.requeued() > 0,
            "storm seed {seed} never caught a transfer in flight"
        );
        assert!(
            outcome.route_trees_recomputed > 0 && outcome.route_pairs_changed > 0,
            "storm seed {seed} never moved a route"
        );
        assert!(outcome.entries_retargeted > 0, "storm seed {seed}");
    }
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
    let (outcome, _) = audited_run(&blink, 5);
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
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .seed(seed)
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
    let (_, without) = audited_run(&leaves, seed);
    let (_, with) = audited_run(&strays, seed);
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
    let (_, left) = audited_run(&leave_only, seed);
    let (_, rejoined) = audited_run(&rejoin, seed);
    // Both halves must take effect: the leave strips queued copies, the
    // rejoin puts the subscriber back in scope of later publications.
    assert!(rejoined.dropped_unsubscribed > 0);
    assert!(rejoined.interested > left.interested);
    assert_eq!(rejoined.duplicate_deliveries, 0);
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
    let (_, moved) = audited_run(&rehome, seed);
    assert!(
        moved.dropped_unsubscribed > 0,
        "the implied leaves must orphan queued copies, or nothing was stripped"
    );
    assert_eq!(moved.duplicate_deliveries, 0);
    let aggregate = builder(&rehome, seed).forwarding(ForwardingMode::Aggregate);
    run_with_table_audits(aggregate.build(), "re-home, aggregate");
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
    let (_, left) = audited_run(&emptied, seed);
    let (_, back) = audited_run(&refilled, seed);
    assert!(
        back.interested > left.interested,
        "the refilled group must be in scope of later publications again"
    );
    assert_eq!(back.duplicate_deliveries, 0);
}

#[test]
fn runs_report_aggregate_counters() {
    // The observability half of the table: aggregates exist, every local
    // delivery is an edge expansion, and no table is ever rebuilt whole.
    let outcome = Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
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
