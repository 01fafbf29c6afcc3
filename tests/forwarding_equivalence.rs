//! Differential-oracle suite for aggregate-scoped forwarding.
//!
//! Under [`ForwardingMode::Aggregate`] the publisher's broker no longer
//! walks the global match index at publish time: it consults only the
//! per-edge covering summaries, stamps interior copies with sentinel
//! aggregate scopes, and leaves subscriber expansion to the edge brokers.
//! Covers admit false positives, so the two modes are **not**
//! bit-identical — hop traffic, drop breakdowns and per-phase counters may
//! legitimately differ. What must never differ is the *delivery set*: the
//! exact set of `(message, subscriber)` pairs delivered, and with it the
//! total earning. This suite holds aggregate forwarding to that claim across
//! scenarios and seeds, with the exact mode as the oracle.
//!
//! The sweep runs on uncongested fixed-rate links so that no copy expires
//! or is shed as unlikely in either mode — expiry under congestion is
//! timing-dependent and would make pair-set equality vacuous rather than
//! diagnostic. Congested behaviour is covered by the engine's conservation
//! and duplicate audits, which run here on every outcome as well.

use bdps::overlay::topology::{LayeredMeshConfig, Topology};
use bdps::prelude::*;
use bdps::sim::try_run_sharded;

mod common;
use common::delivered_pairs;

fn small_topology(seed: u64) -> Topology {
    // 10 ms/KB -> a 50 KB message takes 500 ms per hop; nothing congests.
    Topology::layered_mesh(
        &LayeredMeshConfig::small(),
        &mut SimRng::seed_from(seed),
        |_| LinkQuality::fixed(10.0),
    )
    .unwrap()
}

fn build(scenario: &DynamicScenario, forwarding: ForwardingMode, seed: u64) -> Simulation {
    let mut workload = WorkloadConfig::paper_ssd(8.0);
    workload.duration = Duration::from_secs(300);
    workload.arrivals = ArrivalKind::Deterministic;
    Simulation::builder()
        .workload(workload)
        .scheduler(SchedulerConfig::paper(StrategyKind::MaxEbpc))
        .scenario(scenario.clone())
        .forwarding(forwarding)
        .try_build_on(small_topology(seed), SimRng::seed_from(seed))
        .expect("valid oracle configuration")
}

fn audited(sim: Simulation) -> SimulationOutcome {
    let outcome = sim.run();
    outcome.check_conservation().unwrap();
    outcome.check_no_duplicates().unwrap();
    outcome
}

/// The tentpole oracle: for every {scenario × seed} point, aggregate
/// forwarding delivers exactly the `(message, subscriber)` pairs — and earns
/// exactly the money — of exact forwarding.
#[test]
fn aggregate_forwarding_preserves_delivery_set_and_earning() {
    let churn = DynamicScenario::from_name("churn").expect("churn is builtin");
    let scenarios = [
        ("static", DynamicScenario::static_scenario()),
        ("churn", churn),
    ];
    for (scenario_name, scenario) in &scenarios {
        for seed in 1..=4u64 {
            let run = |forwarding| audited(build(scenario, forwarding, seed));
            let exact = run(ForwardingMode::Exact);
            let aggregate = run(ForwardingMode::Aggregate);

            let pairs = delivered_pairs(&exact);
            let ctx = format!("({scenario_name}, seed {seed})");
            // Meaningful run: something delivered, nothing expired or
            // shed in the oracle — otherwise the equality is vacuous.
            assert!(!pairs.is_empty(), "oracle delivered nothing {ctx}");
            assert_eq!(exact.dropped_expired(), 0, "oracle congested {ctx}");
            assert_eq!(exact.dropped_unlikely(), 0, "oracle shed copies {ctx}");
            assert_eq!(exact.tracker.total_late(), 0, "oracle ran late {ctx}");

            assert_eq!(
                pairs,
                delivered_pairs(&aggregate),
                "aggregate forwarding changed the delivery set {ctx}"
            );
            assert_eq!(
                exact.tracker.total_earning(),
                aggregate.tracker.total_earning(),
                "aggregate forwarding changed the earning {ctx}"
            );
            assert_eq!(
                aggregate.tracker.total_late(),
                0,
                "aggregate ran late while the oracle did not {ctx}"
            );
            // Exact mode never records false-positive traffic.
            assert_eq!(exact.false_positive_forwards(), 0);
            assert_eq!(exact.false_positive_drops_at_edge(), 0);
            // Every false-positive forward ends as an edge drop, so
            // the forward count is bounded by the drop count.
            assert!(
                aggregate.false_positive_forwards() <= aggregate.false_positive_drops_at_edge(),
                "unaccounted false-positive traffic {ctx}"
            );
        }
    }
}

#[test]
fn forwarding_mode_round_trips_through_names_and_config() {
    for mode in ForwardingMode::ALL {
        assert_eq!(ForwardingMode::from_name(mode.name()), Some(mode));
    }
    assert_eq!(
        ForwardingMode::from_name("agg"),
        Some(ForwardingMode::Aggregate)
    );
    assert!(ForwardingMode::from_name("bogus").is_none());

    let config = Simulation::builder()
        .forwarding(ForwardingMode::Aggregate)
        .build_config();
    assert_eq!(config.forwarding, ForwardingMode::Aggregate);
    let rebuilt = SimulationBuilder::from_config(&config).build_config();
    assert_eq!(rebuilt, config);
    // The default stays exact (the oracle).
    assert_eq!(
        Simulation::builder().build_config().forwarding,
        ForwardingMode::Exact
    );
}

#[test]
fn aggregate_forwarding_rejects_sharded_execution() {
    let sim = build(
        &DynamicScenario::static_scenario(),
        ForwardingMode::Aggregate,
        1,
    );
    match try_run_sharded(sim, 2) {
        Err(SimError::ShardedForwardingUnsupported) => {}
        other => panic!("sharded aggregate run must be rejected, got {other:?}"),
    }
}
