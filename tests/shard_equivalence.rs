//! Differential-oracle suite for the sharded multi-core executor.
//!
//! The conservative time-window executor (`bdps::sim::shard`) partitions the
//! brokers into N shards advanced by worker threads; the single-threaded
//! loop is retained as the reference. The claim this suite enforces: for any
//! seed × scenario × strategy, an N-shard run produces a **bit-identical**
//! [`SimulationReport`] to the 1-shard run — per-phase breakdowns, earning
//! sums and delay summaries included, which pins the executor's effect-log
//! replay to the sequential floating-point accumulation order.
//!
//! Scenario barriers run the engine's own incremental table repair, and the
//! shared population registry is read concurrently by shard workers
//! mid-window.

use bdps::core::config::StrategyKind;
use bdps::prelude::*;

/// Shard counts the suite holds to the sequential oracle. 1 is the oracle
/// itself (and exercises the builder's fallback path); 8 exceeds the small
/// mesh's per-layer broker counts, so some shards own a single broker.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn report(scenario_name: &str, shards: usize, seed: u64) -> SimulationReport {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(240))
        .strategy(StrategyKind::MaxEbpc)
        .scenario_named(scenario_name)
        .unwrap_or_else(|_| panic!("{scenario_name} is a builtin scenario"))
        .shards(shards)
        .seed(seed)
        .report()
}

/// Runs one scenario over a seed range and asserts that every shard count
/// reproduces the sequential report bit-for-bit.
fn assert_shards_agree(scenario_name: &str, seeds: std::ops::RangeInclusive<u64>) {
    for seed in seeds {
        let oracle = report(scenario_name, 1, seed);
        for shards in SHARD_COUNTS {
            assert_eq!(
                report(scenario_name, shards, seed),
                oracle,
                "{scenario_name} seed {seed}: {shards}-shard run drifted from the \
                 sequential oracle"
            );
        }
    }
}

// The three dynamic scenarios cover the three classes of global state the
// shard barriers must serialise: churn (shared population registry +
// subscription tables), link-flap (routing rebuilds + voided transfers) and
// chaos (all of it at once, interleaved).

#[test]
fn churn_reports_are_shard_count_invariant() {
    assert_shards_agree("churn", 1..=10);
}

#[test]
fn link_flap_reports_are_shard_count_invariant() {
    assert_shards_agree("link-flap", 1..=10);
}

#[test]
fn chaos_reports_are_shard_count_invariant() {
    assert_shards_agree("chaos", 1..=10);
}

/// The static scenario has no barriers at all after the publisher seeding —
/// the purest test of the window protocol itself (and of the per-entity RNG
/// stream discipline), across all five paper strategies.
#[test]
fn static_reports_are_shard_count_invariant_for_every_strategy() {
    for strategy in [
        StrategyKind::MaxEb,
        StrategyKind::MaxPc,
        StrategyKind::MaxEbpc,
        StrategyKind::Fifo,
        StrategyKind::RemainingLifetime,
    ] {
        for seed in 1..=3 {
            let oracle = Simulation::builder()
                .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
                .ssd(20.0)
                .duration(Duration::from_secs(240))
                .strategy(strategy)
                .seed(seed)
                .report();
            for shards in [2, 4, 8] {
                let sharded = Simulation::builder()
                    .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
                    .ssd(20.0)
                    .duration(Duration::from_secs(240))
                    .strategy(strategy)
                    .shards(shards)
                    .seed(seed)
                    .report();
                assert_eq!(
                    sharded,
                    oracle,
                    "static seed {seed}: {shards}-shard run drifted for {}",
                    strategy.label()
                );
            }
        }
    }
}

/// The scope-interner counters are introspection, and the hit count depends
/// on the partition (every shard pools scopes on its own, so a scope shared
/// across shards is allocated once per shard). But the shards run the
/// engine's own handlers — one intern per publication — so their counters
/// must be summed into the outcome, not dropped with the shard cores: a
/// sharded run used to report zero.
#[test]
fn sharded_outcome_sums_the_shards_scope_interner_traffic() {
    let build = || {
        Simulation::builder()
            .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
            .ssd(12.0)
            .duration(Duration::from_secs(240))
            .scenario_named("churn")
            .expect("churn is a builtin scenario")
            .seed(1)
            .build()
    };
    let sequential = build().run();
    let sharded = bdps::sim::run_sharded(build(), 2);
    assert!(sharded.tracker.total_on_time() > 0, "the run must deliver");
    assert!(sharded.scope_interns > 0, "sharded run reported no interns");
    assert_eq!(sharded.scope_interns, sequential.scope_interns);
    assert!(sharded.scope_intern_hits <= sharded.scope_interns);
}
