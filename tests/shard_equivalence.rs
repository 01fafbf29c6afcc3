//! Differential-oracle suite for the sharded multi-core executor.
//!
//! The conservative time-window executor (`bdps::sim::shard`) partitions the
//! brokers into N shards advanced by worker threads; the single-threaded
//! loop is retained as the reference. The claim: an N-shard run reproduces
//! the sequential run's
//! [`replay_state`](SimulationOutcome::replay_state) **bit for bit** — the
//! run digest over every delivery, drop and transmission, per-broker and
//! per-link counters, per-phase breakdowns, the earning and the delay
//! summary, which pins the executor's effect-log replay to the sequential
//! floating-point accumulation order.

use bdps::core::config::StrategyKind;
use bdps::prelude::*;

mod common;
use common::grid::{run_row, Check, CHAOS, CHURN, HEAVY_CHURN, LINK_FLAP};

// The differential grid's dynamic rows (`tests/common/grid.rs`) at 2, 4 and
// 8 shards cover the three classes of global state the shard barriers must
// serialise: churn (shared population registry + subscription tables),
// link-flap (routing rebuilds + voided transfers) and chaos (all of it at
// once, interleaved).

#[test]
fn churn_reports_are_shard_count_invariant() {
    run_row(&CHURN, &[Check::Shards]);
}

/// The registry `churn` row orphans a queued copy on only some seeds; this
/// row's leaves strip queued copies on every seed, at every shard count.
#[test]
fn heavy_churn_reports_are_shard_count_invariant() {
    run_row(&HEAVY_CHURN, &[Check::Shards]);
}

/// A certificate for the window dispatch: a window with one due shard runs
/// on the calling thread, so only windows with two or more due shards hand
/// a shard to a worker — one hand-off each at two shards. Handing off every
/// due shard, or every window, breaks the equality; the counts are exact
/// and repeat run for run, unlike a wall time.
#[test]
fn only_parallel_windows_hand_off_at_two_shards() {
    let scenario = DynamicScenario::from_name("churn").expect("churn is a builtin scenario");
    let build = CHURN.recipe.builder(&scenario, CHURN.seeds[0]);
    let counts =
        |o: &SimulationOutcome| (o.shard_windows, o.shard_parallel_windows, o.shard_handoffs);
    assert_eq!(
        counts(&build.run()),
        (0, 0, 0),
        "a sequential run has no windows"
    );
    let (windows, parallel, handoffs) = counts(&bdps::sim::run_sharded(build.build(), 2));
    assert!(parallel > 0, "no window had two due shards");
    assert_eq!(handoffs, parallel);
    assert!(parallel < windows);
    assert_eq!(
        counts(&bdps::sim::run_sharded(build.build(), 2)),
        (windows, parallel, handoffs),
        "window counts differ between two runs of one seed"
    );
}

#[test]
fn link_flap_reports_are_shard_count_invariant() {
    run_row(&LINK_FLAP, &[Check::Shards]);
}

#[test]
fn chaos_reports_are_shard_count_invariant() {
    run_row(&CHAOS, &[Check::Shards]);
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
            let builder = Simulation::builder()
                .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
                .ssd(20.0)
                .duration(Duration::from_secs(240))
                .strategy(strategy)
                .seed(seed);
            let oracle = builder.run();
            for shards in [2, 4, 8] {
                let sharded = bdps::sim::run_sharded(builder.build(), shards);
                assert_eq!(
                    sharded.replay_state(),
                    oracle.replay_state(),
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
/// (one gap more). The outcome's delay record keeps observations in the
/// order they were applied, so it must match the sequential run's value for
/// value.
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

/// A window that panics — whether the calling thread or a worker ran it —
/// ends the run with [`SimError::WorkerPanicked`] carrying the payload, and
/// the call returns, so every worker thread was joined.
#[test]
fn a_panicking_window_is_an_error_and_the_workers_are_joined() {
    #[derive(Debug)]
    struct GivesUp;
    impl SchedulingStrategy for GivesUp {
        fn name(&self) -> &str {
            "gives-up"
        }
        fn priority(
            &self,
            ctx: &bdps::core::strategy::ScheduleContext,
            _: &QueuedMessage,
            _: &mut bdps::core::metrics::ClassScratch,
        ) -> f64 {
            assert!(ctx.now < SimTime::from_secs(60), "the strategy gave up");
            1.0
        }
    }
    for shards in [2, 4, 8] {
        let sim = Simulation::builder()
            .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
            .ssd(12.0)
            .duration(Duration::from_secs(240))
            .strategy(GivesUp)
            .seed(1)
            .build();
        match bdps::sim::try_run_sharded(sim, shards) {
            Err(SimError::WorkerPanicked { message, .. }) => {
                assert!(message.contains("the strategy gave up"), "{message}")
            }
            other => panic!(
                "{shards} shards: expected a caught panic, got {:?}",
                other.map(|o| o.digest)
            ),
        }
    }
}
