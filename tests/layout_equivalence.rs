//! Table-layout oracle: every broker's live table against the dense layout,
//! state by state through whole runs.
//!
//! Two table layouts answer the question a broker asks on arrival — for each
//! subscription a copy serves, which next hop and which remaining-path
//! statistics it forwards with. The dense layout
//! ([`SubscriptionTable::build`]) keeps one full entry per subscription on
//! every broker, each routed on its own. The layout every broker runs
//! ([`SparseTable`]) keeps one route per remote edge group and nothing else:
//! every subscription lives once, in the shared registry, and a locally
//! attached one's row is built from it. The dense layout is no longer an
//! engine, but it stays the oracle of what a table must resolve:
//! `tests/properties.rs` holds single tables to it on random populations,
//! and this suite holds every broker of a running simulation to it through
//! the most adversarial dynamic scenarios. At every instant that holds a scenario event, after
//! every event of the instant, each broker's table must resolve the whole
//! population list to exactly the dense table's rows, routed fields
//! included, and match a fixed set of message heads to the same rows in the
//! same order. (`tests/rebuild_equivalence.rs` audits the same runs against a
//! from-scratch sparse rebuild.)
//!
//! The checked run must also end in exactly the report of a plain run built
//! the way the benchmark harness builds its runs, naming
//! `TableLayout::Sparse`, so the layout the benchmark selects is the one
//! checked here.
//!
//! The hand-built "flap storm" scenario is the adversarial case the random
//! processes do not reach: hundreds of link events stacked on the *same
//! instant* (exercising the engine's rebuild coalescing), nested multi-depth
//! failures (a link downed twice needs two recoveries), flaps fully
//! contained between two events, and links left dead at the horizon.

use bdps::overlay::sparse::{ResolvedEntry, SparseTable};
use bdps::overlay::subtable::SubscriptionTable;
use bdps::prelude::*;

mod common;
use common::{flap_storm, run_with_checks, small_mesh_link_count};

fn builder(scenario: &DynamicScenario, seed: u64) -> SimulationBuilder {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(240))
        .strategy(StrategyKind::MaxEbpc)
        .scenario(scenario.clone())
        .seed(seed)
}

/// Holds one broker's live table to a dense table built from scratch over
/// the population list, against the routing the live table was last
/// rebuilt on: scoped resolution of every listed subscription must give the
/// dense rows.
fn table_matches_the_dense_layout(
    table: &SparseTable,
    routing: &bdps::overlay::routing::Routing,
    subs: &[(Subscription, BrokerId)],
) -> std::result::Result<(), String> {
    let broker = table.broker();
    let dense = SubscriptionTable::build(broker, routing, subs);
    let scope = ScopeSet::from_unsorted(subs.iter().map(|(sub, _)| sub.id).collect());
    let mut resolved: Vec<ResolvedEntry> = Vec::new();
    table.resolve_scope(&scope, |e, _| resolved.push(e));
    let expected: Vec<ResolvedEntry> = scope
        .iter()
        .filter_map(|id| dense.entry(id).map(ResolvedEntry::from_entry))
        .collect();
    if resolved != expected {
        let first = resolved.iter().zip(&expected).position(|(a, b)| a != b);
        return Err(format!(
            "broker {broker} resolves the population to {} rows, the dense layout to {} \
             (first difference at row {first:?})",
            resolved.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Steps one run, holding every broker's table to the dense layout after
/// every event of every instant that holds a scenario event, then holds the
/// checked run's report to the benchmark-style build's. Returns the outcome
/// and the report.
fn checked_run(scenario: &DynamicScenario, seed: u64) -> (SimulationOutcome, SimulationReport) {
    let build = builder(scenario, seed);
    let config = build.build_config();
    let what = format!("{scenario}, seed {seed}");
    let outcome = run_with_checks(build.build(), &what, |sim| {
        sim.tables().try_for_each(|table| {
            table_matches_the_dense_layout(table, sim.routing(), sim.subscriptions())
        })
    });
    let checked = SimulationReport::from_outcome(
        &outcome,
        &config.scheduler.strategy,
        config.scheduler.ebpc_weight,
        config.workload.scenario,
        &config.scenario.name,
        &config.workload,
        config.seed,
    );
    let benchmarked = builder(scenario, seed)
        .table_layout(TableLayout::Sparse)
        .report();
    assert_eq!(
        benchmarked, checked,
        "the layout-checked run drifted from the benchmark-style run ({scenario}, seed {seed})"
    );
    (outcome, checked)
}

/// Checks one registry scenario over a seed range. The seeds together must
/// have moved routes (every such move happened at a checked instant), or
/// the check never saw a table under repair.
fn check_scenario(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    let scenario = DynamicScenario::from_name(scenario_name)
        .unwrap_or_else(|| panic!("{scenario_name} is a builtin scenario"));
    let (mut trees, mut pairs) = (0, 0);
    for seed in seeds {
        let (outcome, _) = checked_run(&scenario, seed);
        trees += outcome.route_trees_recomputed;
        pairs += outcome.route_pairs_changed;
    }
    assert!(
        trees > 0 && pairs > 0,
        "{scenario_name} never moved a route"
    );
}

#[test]
fn link_flap_reports_are_layout_independent_on_seeds_1_to_10() {
    check_scenario("link-flap", 1..=10);
}

#[test]
fn blackout_reports_are_layout_independent_on_seeds_1_to_10() {
    // Blackouts are the mass-transition case: every remote route disappears
    // when the mesh goes dark and must reappear with fresh routed fields on
    // recovery, exactly where the dense layout routes every entry anew.
    check_scenario("blackout", 1..=10);
}

#[test]
fn chaos_reports_are_layout_independent_on_seeds_1_to_10() {
    // Chaos interleaves churn, bursts and link failures — a join during an
    // outage must become routable on recovery exactly as a dense entry
    // would.
    check_scenario("chaos", 1..=10);
}

#[test]
fn flap_storm_is_layout_independent() {
    // The small mesh has 68 directed links; the storm's same-instant floods
    // are where an incremental patch does least like a from-scratch dense
    // build, and must still resolve the same rows.
    let links = small_mesh_link_count();
    for seed in [3u64, 7, 11] {
        let (_, report) = checked_run(&flap_storm(seed, links, 240), seed);
        // The storm must actually stress the rebuild machinery: link events
        // void transfers (requeues) in a congested mesh.
        assert!(
            report.requeued > 0,
            "storm seed {seed} never caught a transfer in flight"
        );
    }
}
