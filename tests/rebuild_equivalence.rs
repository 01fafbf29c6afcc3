//! Differential-oracle suite for the incremental routing/table rebuild.
//!
//! The engine rebuilds routing and subscription tables after link events
//! under one of two [`RebuildPolicy`]s: `Full` (recompute everything from
//! the whole population — the original implementation, kept as the
//! reference) and `Incremental` (recompute only the affected destination
//! trees and patch only the entries whose route entry changed). The two are
//! claimed to be **bit-identical**; this suite holds the incremental path to
//! that claim the same way the scheduler suite holds the calendar queue to
//! the binary heap: run the same seeds through the most adversarial
//! link-dynamics scenarios under both policies and require the *entire*
//! [`SimulationReport`] — per-phase breakdowns included — to be equal.
//!
//! The hand-built "flap storm" scenario is the adversarial case the random
//! processes do not reach: hundreds of link events stacked on the *same
//! instant* (exercising the engine's rebuild coalescing), nested multi-depth
//! failures (a link downed twice needs two recoveries), flaps fully
//! contained between two events, and links left dead at the horizon.

use bdps::prelude::*;
use bdps::sim::sched::EventQueueKind;

mod common;
use common::{flap_storm, small_mesh_link_count};

fn report(
    scenario: &DynamicScenario,
    policy: RebuildPolicy,
    queue: EventQueueKind,
    seed: u64,
) -> SimulationReport {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(240))
        .strategy(StrategyKind::MaxEbpc)
        .scenario(scenario.clone())
        .rebuild_policy(policy)
        .event_queue(queue)
        .seed(seed)
        .report()
}

/// Runs one scenario over a seed range and asserts full-vs-incremental
/// report equality (calendar queue — the default scheduler).
fn assert_policies_agree(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry
        .resolve(scenario_name)
        .unwrap_or_else(|| panic!("{scenario_name} is a builtin scenario"));
    for seed in seeds {
        let full = report(
            &scenario,
            RebuildPolicy::Full,
            EventQueueKind::Calendar,
            seed,
        );
        let incremental = report(
            &scenario,
            RebuildPolicy::Incremental,
            EventQueueKind::Calendar,
            seed,
        );
        assert_eq!(
            full, incremental,
            "incremental rebuild drifted from the full-rebuild oracle \
             ({scenario_name}, seed {seed})"
        );
    }
}

#[test]
fn link_flap_reports_are_policy_independent_on_seeds_1_to_10() {
    assert_policies_agree("link-flap", 1..=10);
}

#[test]
fn blackout_reports_are_policy_independent_on_seeds_1_to_10() {
    assert_policies_agree("blackout", 1..=10);
}

#[test]
fn chaos_reports_are_policy_independent_on_seeds_1_to_10() {
    // Chaos combines churn, bursts and link failures, so the oracle also
    // covers subscription joins/leaves interleaved with rebuilds (a join
    // during an outage must patch in on recovery identically under both
    // policies).
    assert_policies_agree("chaos", 1..=10);
}

#[test]
fn flap_storm_is_policy_and_scheduler_independent() {
    // The small mesh has 68 directed links; the storm spans every policy ×
    // scheduler combination and every report must come out identical.
    let links = small_mesh_link_count();
    for seed in [3u64, 7, 11] {
        let storm = flap_storm(seed, links, 240);
        let reference = report(
            &storm,
            RebuildPolicy::Full,
            EventQueueKind::BinaryHeap,
            seed,
        );
        for policy in RebuildPolicy::ALL {
            for queue in EventQueueKind::ALL {
                let candidate = report(&storm, policy, queue, seed);
                assert_eq!(
                    reference,
                    candidate,
                    "flap storm drifted (seed {seed}, {} policy, {} queue)",
                    policy.name(),
                    queue.name()
                );
            }
        }
        // The storm must actually stress the rebuild machinery: link events
        // void transfers (requeues) in a congested mesh.
        assert!(
            reference.requeued > 0,
            "storm seed {seed} never caught a transfer in flight"
        );
    }
}

#[test]
fn route_delta_counters_are_scheduler_independent_and_zero_under_full_rebuild() {
    let storm = flap_storm(7, small_mesh_link_count(), 240);
    let outcome = |policy: RebuildPolicy, queue: EventQueueKind| {
        Simulation::builder()
            .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
            .ssd(12.0)
            .duration(Duration::from_secs(240))
            .strategy(StrategyKind::MaxEbpc)
            .scenario(storm.clone())
            .rebuild_policy(policy)
            .event_queue(queue)
            .seed(7)
            .build()
            .run()
    };
    let delta_counters = |o: &SimulationOutcome| (o.route_trees_recomputed, o.route_pairs_changed);
    let heap = outcome(RebuildPolicy::Incremental, EventQueueKind::BinaryHeap);
    let calendar = outcome(RebuildPolicy::Incremental, EventQueueKind::Calendar);
    assert_eq!(delta_counters(&heap), delta_counters(&calendar));
    let (trees, pairs) = delta_counters(&calendar);
    assert!(trees > 0 && pairs > 0, "the storm must move routes");
    // The full rebuild recomputes everything without ever forming a delta.
    let full = outcome(RebuildPolicy::Full, EventQueueKind::Calendar);
    assert_eq!(delta_counters(&full), (0, 0));
    assert_eq!(full.entries_retargeted, 0);
}

#[test]
fn rebuild_policy_round_trips_through_config_and_registry_names() {
    let config = Simulation::builder()
        .rebuild_policy(RebuildPolicy::Full)
        .build_config();
    assert_eq!(config.rebuild_policy, RebuildPolicy::Full);
    let rebuilt = SimulationBuilder::from_config(&config).build_config();
    assert_eq!(rebuilt, config);
    // Default stays incremental.
    assert_eq!(
        Simulation::builder().build_config().rebuild_policy,
        RebuildPolicy::Incremental
    );
    for policy in RebuildPolicy::ALL {
        assert_eq!(RebuildPolicy::from_name(policy.name()), Some(policy));
    }
    assert_eq!(
        RebuildPolicy::from_name("inc"),
        Some(RebuildPolicy::Incremental)
    );
    assert!(RebuildPolicy::from_name("bogus").is_none());
}
