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

/// Same-instant effects replay in the sequential order. On the workloads
/// above two events almost never share an instant, so they cannot tell the
/// replay key `(time, key, idx)` from another order of its parts. Here every
/// delivery instant is shared: publications are evenly spaced and
/// simultaneous at both ends of a two-broker line, and a link transfer
/// takes one publication gap minus `PD`. A copy therefore arrives exactly
/// as the next local publication at its receiver is processed, so at one
/// instant two brokers each deliver locally (delay `PD`) and remotely
/// (one gap more). The outcome's delay summaries keep observations in the
/// order they were applied, so they must match the sequential run's
/// value for value.
#[test]
fn same_instant_effects_replay_in_the_sequential_order() {
    const GAP_MS: f64 = 6_000.0;
    let build = || {
        // 1 KB messages, so the fixed rate is the transfer time itself.
        let transfer_ms = GAP_MS - 2.0;
        let mut rng = SimRng::seed_from(0);
        let mut topo = bdps::overlay::topology::Topology::line(2, &mut rng, |_| {
            LinkQuality::fixed(transfer_ms)
        });
        for b in 0..2 {
            let (publisher, broker) = (PublisherId::new(b), BrokerId::new(b));
            topo.graph.attach_publisher(broker, publisher);
            topo.publishers.push((publisher, broker));
        }
        for s in 0..16 {
            let (subscriber, broker) = (SubscriberId::new(s), BrokerId::new(s % 2));
            topo.graph.attach_subscriber(broker, subscriber);
            topo.subscribers.push((subscriber, broker));
        }
        let mut workload = WorkloadConfig::paper_ssd(60_000.0 / GAP_MS);
        workload.arrivals = ArrivalKind::Deterministic;
        workload.message_size_kb = 1.0;
        workload.duration = Duration::from_secs(120);
        Simulation::builder()
            .workload(workload)
            .strategy(StrategyKind::Fifo)
            .try_build_on(topo, SimRng::seed_from(1))
            .expect("valid two-broker run")
    };
    let sequential = build().run();
    let delays = &sequential.valid_delays_ms;
    assert!(
        delays.min() == 2.0 && delays.max() == GAP_MS + 2.0,
        "the run must deliver both locally and one gap later: {} .. {} ms",
        delays.min(),
        delays.max()
    );
    let sharded = bdps::sim::run_sharded(build(), 2);
    assert_eq!(sharded.valid_delays_ms, sequential.valid_delays_ms);
}
