//! Differential-oracle suite for the sparse covering-aggregated table
//! layout.
//!
//! Brokers materialise their subscription tables under one of two
//! [`TableLayout`]s: `Dense` (one replicated entry per subscription on every
//! broker — the original implementation, kept as the reference) and `Sparse`
//! (full entries only for locally attached subscribers, one covering
//! aggregate per remote destination, subscription metadata in a shared
//! registry). The two are claimed to be **bit-identical**; this suite holds
//! the sparse layout to that claim the same way `tests/rebuild_equivalence.rs`
//! holds the incremental rebuild to the full-rebuild oracle: run the same
//! seeds through the most adversarial dynamic scenarios under both layouts
//! and require the *entire* [`SimulationReport`] — per-phase breakdowns
//! included — to be equal.
//!
//! The layout axis is crossed with the two existing differential axes —
//! rebuild policy and event scheduler — because the sparse layout rewrites
//! exactly the paths those axes exercise: link events patch aggregates
//! instead of per-subscription entries, and churn updates the shared
//! registry instead of every broker's table. A drift that only shows up
//! under (sparse × incremental × calendar) must still fail loudly here.

use bdps::prelude::*;
use bdps::sim::sched::EventQueueKind;

mod common;
use common::{delivered_pairs, flap_storm, small_mesh_link_count};

fn report(
    scenario: &DynamicScenario,
    layout: TableLayout,
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
        .table_layout(layout)
        .rebuild_policy(policy)
        .event_queue(queue)
        .seed(seed)
        .report()
}

/// Runs one scenario over a seed range and asserts dense-vs-sparse report
/// equality, crossed with both event schedulers and both rebuild policies
/// (every combination must reproduce the dense report of the same
/// scheduler × policy cell).
fn assert_layouts_agree(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry
        .resolve(scenario_name)
        .unwrap_or_else(|| panic!("{scenario_name} is a builtin scenario"));
    for seed in seeds {
        for policy in RebuildPolicy::ALL {
            for queue in EventQueueKind::ALL {
                let dense = report(&scenario, TableLayout::Dense, policy, queue, seed);
                let sparse = report(&scenario, TableLayout::Sparse, policy, queue, seed);
                assert_eq!(
                    dense,
                    sparse,
                    "sparse layout drifted from the dense-table oracle \
                     ({scenario_name}, seed {seed}, {} policy, {} queue)",
                    policy.name(),
                    queue.name()
                );
            }
        }
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
fn chaos_is_layout_policy_and_scheduler_independent() {
    // The full cross: every layout × rebuild policy × event scheduler
    // combination must reproduce one reference report.
    let registry = ScenarioRegistry::builtin();
    let chaos = registry.resolve("chaos").expect("chaos is builtin");
    for seed in [4u64, 9] {
        let reference = report(
            &chaos,
            TableLayout::Dense,
            RebuildPolicy::Full,
            EventQueueKind::BinaryHeap,
            seed,
        );
        for layout in TableLayout::ALL {
            for policy in RebuildPolicy::ALL {
                for queue in EventQueueKind::ALL {
                    let candidate = report(&chaos, layout, policy, queue, seed);
                    assert_eq!(
                        reference,
                        candidate,
                        "chaos drifted (seed {seed}, {} layout, {} policy, {} queue)",
                        layout.name(),
                        policy.name(),
                        queue.name()
                    );
                }
            }
        }
    }
}

#[test]
fn flap_storm_is_layout_independent_across_policies_and_schedulers() {
    let links = small_mesh_link_count();
    for seed in [3u64, 7] {
        let storm = flap_storm(seed, links, 240);
        let reference = report(
            &storm,
            TableLayout::Dense,
            RebuildPolicy::Full,
            EventQueueKind::BinaryHeap,
            seed,
        );
        for policy in RebuildPolicy::ALL {
            for queue in EventQueueKind::ALL {
                let candidate = report(&storm, TableLayout::Sparse, policy, queue, seed);
                assert_eq!(
                    reference,
                    candidate,
                    "flap storm drifted (seed {seed}, sparse layout, {} policy, {} queue)",
                    policy.name(),
                    queue.name()
                );
            }
        }
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

/// Every layout × scheduler cell of one scenario, asserted equal; returns
/// the common report.
fn agreed_report(scenario: &DynamicScenario, seed: u64) -> SimulationReport {
    let cell = |layout, queue| report(scenario, layout, RebuildPolicy::Incremental, queue, seed);
    let reference = cell(TableLayout::Dense, EventQueueKind::BinaryHeap);
    for layout in TableLayout::ALL {
        for queue in EventQueueKind::ALL {
            assert_eq!(
                reference,
                cell(layout, queue),
                "{} drifted (seed {seed}, {} layout, {} queue)",
                scenario,
                layout.name(),
                queue.name()
            );
        }
    }
    reference
}

#[test]
fn leave_of_an_unknown_id_is_a_no_op_under_every_layout_and_scheduler() {
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
fn leave_then_rejoin_at_one_instant_is_layout_and_scheduler_independent() {
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
        .table_layout(TableLayout::Sparse)
        .build_config();
    assert_eq!(config.table_layout, TableLayout::Sparse);
    let rebuilt = SimulationBuilder::from_config(&config).build_config();
    assert_eq!(rebuilt, config);
    // Default stays dense (the oracle).
    assert_eq!(
        Simulation::builder().build_config().table_layout,
        TableLayout::Dense
    );
    for layout in TableLayout::ALL {
        assert_eq!(TableLayout::from_name(layout.name()), Some(layout));
    }
    assert_eq!(
        TableLayout::from_name("covering"),
        Some(TableLayout::Sparse)
    );
    assert!(TableLayout::from_name("bogus").is_none());
}
