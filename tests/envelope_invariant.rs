//! QoS-envelope consistency under live churn, at integration scale.
//!
//! Every edge group in the shared registry keeps one `QosEnvelope` — the
//! min remaining allowed delay, earning sum and member count over its
//! members — maintained incrementally by epoch-indexed prefix folds as
//! members join and leave; aggregate forwarding stamps interior copies from
//! it. The engine's table audit recomputes each group's envelope from the
//! raw member records (an independent fold, not the prefix machinery) and
//! fails on any divergence; the model checker runs that audit after every
//! event of every interleaving on tiny models. This suite runs the same
//! audit on *congested, realistically sized* churn runs in aggregate
//! forwarding mode, stepping the engine and auditing at a fixed event
//! cadence plus at quiescence — the scale where prefix-rebuild bugs that
//! tiny models cannot reach (long member lists, interleaved joins and
//! leaves on one edge group, epoch reuse across retargets) would surface.

use bdps::overlay::topology::LayeredMeshConfig;
use bdps::prelude::*;

/// Steps `sim` to quiescence, auditing tables (routing, per-broker table
/// rebuild equality, group envelopes vs member records) every
/// `cadence` events and once more at the end. Returns the outcome.
fn run_audited(mut sim: Simulation, cadence: u64) -> SimulationOutcome {
    let limit = sim.hard_stop();
    let mut applied = 0u64;
    while sim.step_next(limit) {
        applied += 1;
        if applied.is_multiple_of(cadence) {
            sim.audit_tables()
                .unwrap_or_else(|e| panic!("table audit failed after {applied} events: {e}"));
        }
    }
    sim.audit_tables()
        .unwrap_or_else(|e| panic!("table audit failed at quiescence ({applied} events): {e}"));
    assert!(
        applied > 0,
        "simulation applied no events — the audit is vacuous"
    );
    sim.into_outcome()
}

fn congested_aggregate(scenario: &str, seed: u64) -> Simulation {
    // Publishing at 30 msgs/min saturates the small mesh, so stamped
    // envelope bounds actively rank and shed interior copies while churn
    // mutates the very groups the stamps were folded from.
    Simulation::builder()
        .layered_mesh(LayeredMeshConfig::small())
        .ssd(30.0)
        .duration(Duration::from_secs(300))
        .strategy(StrategyKind::MaxEb)
        .scenario_named(scenario)
        .expect("scenario is builtin")
        .forwarding(ForwardingMode::Aggregate)
        .seed(seed)
        .build()
}

/// Churn is the scenario the envelopes exist for: joins and leaves hit
/// edge groups while publications are in flight, so the incremental
/// prefix folds are exercised against the scratch fold on every audit.
#[test]
fn envelopes_stay_consistent_under_churn() {
    for seed in [7, 42, 20060816] {
        let outcome = run_audited(congested_aggregate("churn", seed), 32);
        outcome.check_conservation().unwrap();
        outcome.check_no_duplicates().unwrap();
        assert!(
            outcome.tracker.total_on_time() > 0,
            "seed {seed}: congested churn cell delivered nothing on time"
        );
    }
}

/// Chaos layers link failures and bursts on top of churn: retargets
/// rewrite the routes towards edge groups while leaves shrink the groups'
/// envelopes in place — the two maintenance paths interleave.
#[test]
fn envelopes_stay_consistent_under_chaos() {
    let outcome = run_audited(congested_aggregate("chaos", 20060816), 32);
    outcome.check_conservation().unwrap();
    outcome.check_no_duplicates().unwrap();
}
