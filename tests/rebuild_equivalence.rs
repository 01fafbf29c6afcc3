//! State-level audit of the production engine's incremental rebuild.
//!
//! After link events the production engine ([`TableLayout::Sparse`])
//! recomputes only the affected destination trees and patches only the
//! aggregates whose route entry changed; the reference engine
//! ([`TableLayout::Dense`]) recomputes and rebuilds everything from
//! scratch. `tests/layout_equivalence.rs` compares the two report by report.
//! This suite looks *inside* the production run instead: it steps the
//! engine through the most adversarial link-dynamics scenarios and, at every
//! instant that holds a scenario event, calls
//! [`Simulation::audit_tables`] after every event of the instant — routing
//! must equal a from-scratch `Routing::compute_filtered`, every broker's
//! sparse table a from-scratch `SparseTable::build`, every envelope the fold
//! over its members. A patch that skips one destination fails here at the
//! instant it happens, not whenever a report first shows it.
//!
//! The stepped run must also end in exactly the reference engine's report,
//! so the stepping harness provably did not perturb the run it audited and
//! the rebuild policy — from scratch or incremental — stays invisible in
//! the results.
//!
//! The hand-built "flap storm" scenario is the adversarial case the random
//! processes do not reach: hundreds of link events stacked on the *same
//! instant* (exercising the engine's rebuild coalescing), nested multi-depth
//! failures (a link downed twice needs two recoveries), flaps fully
//! contained between two events, and links left dead at the horizon.

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

/// Steps the production engine through one run, auditing its routing and
/// tables against a from-scratch rebuild after every event of every instant
/// that holds a scenario event, then holds the stepped run's report to the
/// reference engine's. Returns the outcome.
fn audited_run(scenario: &DynamicScenario, seed: u64) -> SimulationOutcome {
    let production = builder(scenario, seed).table_layout(TableLayout::Sparse);
    let what = format!("{scenario}, seed {seed}");
    let outcome = run_with_table_audits(production.build(), &what);
    let config = production.build_config();
    let stepped = SimulationReport::from_outcome(
        &outcome,
        &config.scheduler.strategy,
        config.scheduler.ebpc_weight,
        config.workload.scenario,
        &config.scenario.name,
        &config.workload,
        config.seed,
    );
    let reference = builder(scenario, seed)
        .table_layout(TableLayout::Dense)
        .report();
    assert_eq!(
        reference, stepped,
        "the stepped production run drifted from the reference engine ({scenario}, seed {seed})"
    );
    outcome
}

/// Audits one registry scenario over a seed range. The seeds together must
/// have moved routes (every such move happened at an audited instant), or
/// the audit is vacuous.
fn audit_scenario(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    let scenario = ScenarioRegistry::builtin()
        .resolve(scenario_name)
        .unwrap_or_else(|| panic!("{scenario_name} is a builtin scenario"));
    let (trees, pairs) = seeds.fold((0, 0), |(trees, pairs), seed| {
        let outcome = audited_run(&scenario, seed);
        (
            trees + outcome.route_trees_recomputed,
            pairs + outcome.route_pairs_changed,
        )
    });
    assert!(
        trees > 0 && pairs > 0,
        "{scenario_name} never moved a route"
    );
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
        let outcome = audited_run(&flap_storm(seed, links, 240), seed);
        // The storm must actually stress the rebuild machinery: link events
        // void transfers (requeues) in a congested mesh, and move routes.
        assert!(
            outcome.requeued() > 0,
            "storm seed {seed} never caught a transfer in flight"
        );
        assert!(
            outcome.route_trees_recomputed > 0 && outcome.route_pairs_changed > 0,
            "storm seed {seed} never moved a route"
        );
    }
}

#[test]
fn a_batch_that_nets_to_nothing_recomputes_no_tree() {
    // Every link downed and restored at one instant: the coalesced batch
    // leaves liveness where the last rebuild saw it, so the production
    // engine's diff against that snapshot is empty and routing is untouched.
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
    let outcome = audited_run(&blink, 5);
    assert_eq!(outcome.route_trees_recomputed, 0);
    assert_eq!(outcome.route_pairs_changed, 0);
    assert_eq!(outcome.entries_retargeted, 0);
    assert!(
        outcome.requeued() > 0,
        "the blink must still void the transfers it caught in flight"
    );
}
