//! Property-based tests on cross-crate invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small seeded harness: each property is checked over a few
//! hundred pseudo-random cases drawn from [`SimRng`], which keeps the runs
//! deterministic and the failures reproducible (the case index is reported
//! on panic).

use bdps::core::metrics;
use bdps::core::queue::{OutputQueue, SuccessClass};
use bdps::core::strategy::{ScheduleContext, StrategyRegistry};
use bdps::overlay::pathstats::PathStats;
use bdps::overlay::routing::Routing;
use bdps::overlay::topology::Topology;
use bdps::prelude::*;
use bdps::stats::normal::Normal;
use std::sync::Arc;

/// Runs `property` over `cases` seeded random cases.
fn check(seed: u64, cases: usize, mut property: impl FnMut(&mut SimRng)) {
    for case in 0..cases {
        let mut rng = SimRng::seed_from(seed).split(case as u64);
        property(&mut rng);
    }
}

fn head(a1: f64, a2: f64) -> MessageHead {
    let mut h = MessageHead::new();
    h.set("A1", a1).set("A2", a2);
    h
}

/// A target as the arrival path resolves it, before it joins a copy:
/// `(subscription, subscriber, price, effective allowed delay, path stats)`.
type ResolvedTarget = (SubscriptionId, SubscriberId, Price, Duration, PathStats);

fn random_target(rng: &mut SimRng) -> ResolvedTarget {
    let hops = rng.uniform_usize(1, 4);
    let mut stats = PathStats::local();
    for _ in 0..hops {
        stats = stats.extend(Normal::new(rng.uniform_range(50.0, 100.0), 20.0));
    }
    (
        SubscriptionId::new(rng.uniform_usize(0, 100) as u32),
        SubscriberId::new(rng.uniform_usize(0, 100) as u32),
        Price::from_units(rng.uniform_usize(1, 4) as i64),
        Duration::from_secs(rng.uniform_usize(1, 90) as u64),
        stats,
    )
}

/// The copy of `message` serving `targets`, built the way the broker does.
fn copy_of(message: Message, targets: &[ResolvedTarget], enqueue_time: SimTime) -> QueuedMessage {
    let mut item = QueuedMessage::new(Arc::new(message), enqueue_time);
    for &(subscription, subscriber, price, allowed_delay, stats) in targets {
        let class = item.class_for(stats, allowed_delay);
        item.push_target(subscription, subscriber, price, class);
    }
    item
}

/// A queued copy whose targets honour the queue's invariant: strictly
/// ascending subscription ids.
fn random_item(id: u64, rng: &mut SimRng) -> QueuedMessage {
    let mut targets: Vec<ResolvedTarget> = (0..rng.uniform_usize(1, 6))
        .map(|_| random_target(rng))
        .collect();
    targets.sort_by_key(|t| t.0);
    targets.dedup_by_key(|t| t.0);
    let message = Message::builder(MessageId::new(id), PublisherId::new(0))
        .publish_time(SimTime::from_millis(rng.uniform_usize(0, 5_000) as u64))
        .size_kb(rng.uniform_range(10.0, 100.0))
        .build();
    let enqueue_time = SimTime::from_secs(rng.uniform_usize(5, 10) as u64);
    copy_of(message, &targets, enqueue_time)
}

fn random_ctx(rng: &mut SimRng) -> ScheduleContext {
    ScheduleContext {
        now: SimTime::from_secs(rng.uniform_usize(10, 40) as u64),
        processing_delay: Duration::from_millis(2),
        ebpc_weight: rng.uniform(),
        avg_message_size_kb: 50.0,
        first_send_estimate_ms: rng.uniform_range(0.0, 10_000.0),
    }
}

/// For every registered strategy: `priority` is deterministic, finite for
/// valid (bounded-deadline) inputs, and `score_all` agrees with per-item
/// scoring.
#[test]
fn every_registered_strategy_is_deterministic_and_finite() {
    let registry = StrategyRegistry::builtin();
    let names = registry.names();
    assert!(!names.is_empty());
    check(0xBD_05, 200, |rng| {
        let items: Vec<QueuedMessage> = (0..rng.uniform_usize(1, 8) as u64)
            .map(|i| random_item(i, rng))
            .collect();
        let ctx = random_ctx(rng);
        for name in &names {
            let strategy = registry.resolve(name).expect("builtin resolves");
            let mut scores = Vec::new();
            strategy.score_all(&ctx, &items, &mut scores);
            assert_eq!(scores.len(), items.len(), "{name}: one score per item");
            for (item, &score) in items.iter().zip(&scores) {
                assert!(score.is_finite(), "{name}: non-finite priority {score}");
                assert_eq!(
                    score,
                    strategy.priority(&ctx, item),
                    "{name}: score_all must match priority"
                );
                assert_eq!(
                    strategy.priority(&ctx, item),
                    strategy.priority(&ctx, item),
                    "{name}: priority must be deterministic"
                );
            }
        }
    });
}

/// Under the FIFO strategy, pop order always matches enqueue order, whatever
/// the message contents.
#[test]
fn fifo_pop_order_matches_enqueue_order() {
    let config =
        SchedulerConfig::paper(StrategyKind::Fifo).with_invalid_detection(InvalidDetection::Off);
    check(0xF1F0, 200, |rng| {
        let mut queue = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        let n = rng.uniform_usize(1, 12) as u64;
        for i in 0..n {
            let mut item = random_item(i, rng);
            // Strictly increasing enqueue times (FIFO breaks exact ties by
            // scan order, which is also arrival order, but keep the property
            // crisp).
            item.enqueue_time = SimTime::from_millis(i * 10);
            queue.push(item);
        }
        for i in 0..n {
            let popped = queue
                .pop_next(SimTime::from_secs(60), &config)
                .expect("queue non-empty");
            assert_eq!(popped.message.id, MessageId::new(i));
        }
        assert!(queue.pop_next(SimTime::from_secs(60), &config).is_none());
    });
}

/// The registry round-trips every built-in name: resolving a name yields a
/// strategy whose display label resolves back to the same strategy.
/// `OutputQueue::remove_subscription` locates the id by binary search over
/// the ascending targets; the reference strips with a linear `retain`. Both
/// must agree on the orphan count and on every surviving copy — which
/// copies, which targets, in which order — wherever the id sits in a copy:
/// absent, first, last, in the middle, or its sole target.
#[test]
fn remove_subscription_matches_the_retain_reference() {
    check(0x5781, 300, |rng| {
        let items: Vec<QueuedMessage> = (0..rng.uniform_usize(1, 10) as u64)
            .map(|i| random_item(i, rng))
            .collect();
        let picked = &rng.choose(&items).targets;
        let id = match rng.uniform_usize(0, 4) {
            0 => SubscriptionId::new(1_000), // held by nobody
            1 => picked[0].subscription,
            2 => picked[picked.len() - 1].subscription,
            _ => rng.choose(picked).subscription,
        };

        let mut queue = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        for item in &items {
            queue.push(item.clone());
        }
        let orphaned = queue.remove_subscription(id);

        let mut expected = items;
        for item in &mut expected {
            item.targets.retain(|t| t.subscription != id);
        }
        let before = expected.len();
        expected.retain(|item| !item.targets.is_empty());
        assert_eq!(orphaned as usize, before - expected.len());
        assert_eq!(queue.len(), expected.len());
        for (got, want) in queue.items().iter().zip(&expected) {
            assert_eq!(got.message.id, want.message.id);
            assert_eq!(got.targets, want.targets);
            // Live counts follow the targets: a class is dead exactly when
            // its last member was stripped.
            for (class, c) in got.classes.iter().enumerate() {
                let members = got.targets.iter().filter(|t| t.class as usize == class);
                assert_eq!(c.live as usize, members.count());
            }
        }
    });
}

#[test]
fn registry_round_trips_every_builtin_name() {
    let registry = StrategyRegistry::builtin();
    for name in registry.names() {
        let strategy = registry
            .resolve(name)
            .unwrap_or_else(|| panic!("{name} resolves"));
        let via_label = registry
            .resolve(strategy.label())
            .unwrap_or_else(|| panic!("label {} resolves", strategy.label()));
        assert_eq!(strategy.label(), via_label.label(), "round trip of {name}");
        // Case-insensitive.
        assert!(registry.resolve(&name.to_ascii_uppercase()).is_some());
    }
    // The five paper kinds are all reachable by their labels.
    for kind in StrategyKind::ALL {
        assert_eq!(registry.resolve(kind.label()).unwrap(), kind);
    }
}

/// A head value or threshold: NaN sometimes, an integer (so thresholds and
/// values tie) often.
fn index_number(rng: &mut SimRng) -> f64 {
    match rng.uniform_usize(0, 8) {
        0 => f64::NAN,
        1..=3 => rng.uniform_usize(0, 10) as f64,
        _ => rng.uniform_range(0.0, 10.0),
    }
}

fn index_predicate(rng: &mut SimRng) -> Predicate {
    use CompOp::*;
    let op = *rng.choose(&[Lt, Le, Gt, Ge, Eq, Ne]);
    match rng.uniform_usize(0, 4) {
        0 => Predicate::new("A1", op, index_number(rng)),
        1 => Predicate::new("A2", op, index_number(rng)),
        2 => Predicate::new("tag", op, *rng.choose(&["x", "y"])),
        _ => Predicate::new("flag", op, rng.chance(0.5)),
    }
}

fn index_filter(rng: &mut SimRng) -> Filter {
    match rng.uniform_usize(0, 8) {
        0 => Filter::match_all(),
        // The same predicate twice: a match must count both.
        1 => {
            let p = index_predicate(rng);
            Filter::new(vec![p.clone(), p])
        }
        _ => Filter::new(
            (0..rng.uniform_usize(1, 4))
                .map(|_| index_predicate(rng))
                .collect(),
        ),
    }
}

fn index_head(rng: &mut SimRng) -> MessageHead {
    let mut h = MessageHead::new();
    for attr in ["A1", "A2"] {
        if rng.chance(0.9) {
            h.set(attr, index_number(rng));
        }
    }
    if rng.chance(0.7) {
        h.set("tag", *rng.choose(&["x", "y"]));
    }
    if rng.chance(0.7) {
        h.set("flag", rng.chance(0.5));
    }
    h
}

/// The matching index agrees with brute-force filter evaluation after every
/// insert, remove and re-insert of a live or removed id — all six operators,
/// match-all filters, a repeated predicate, string / bool predicates, NaN
/// head values and thresholds, ids anywhere up to `u32::MAX - 1` — and its
/// output is strictly ascending.
#[test]
fn index_matches_bruteforce() {
    check(0x1DE, 150, |rng| {
        let mut index = MatchIndex::new();
        let mut seen: Vec<SubscriptionId> = Vec::new();
        for _ in 0..rng.uniform_usize(1, 60) {
            match rng.uniform_usize(0, 4) {
                0 | 1 => {
                    let id = if rng.chance(0.5) {
                        SubscriptionId::new(seen.len() as u32)
                    } else {
                        SubscriptionId::new(rng.uniform_usize(0, u32::MAX as usize) as u32)
                    };
                    seen.push(id);
                    index.insert(id, index_filter(rng));
                }
                2 if !seen.is_empty() => {
                    index.remove(*rng.choose(&seen));
                }
                _ if !seen.is_empty() => {
                    let id = *rng.choose(&seen);
                    index.insert(id, index_filter(rng));
                }
                _ => continue,
            }
            for _ in 0..3 {
                let h = index_head(rng);
                let matched = index.matching(&h);
                assert!(matched.windows(2).all(|w| w[0] < w[1]), "{matched:?}");
                assert_eq!(matched, index.matching_bruteforce(&h), "head {h}");
            }
        }
    });
}

/// Filter covering is sound: if `wide` covers `narrow`, every head that
/// matches `narrow` also matches `wide`.
#[test]
fn covering_is_sound() {
    check(0xC0FE, 200, |rng| {
        let wide =
            Filter::paper_conjunction(rng.uniform_range(0.0, 10.0), rng.uniform_range(0.0, 10.0));
        let narrow =
            Filter::paper_conjunction(rng.uniform_range(0.0, 10.0), rng.uniform_range(0.0, 10.0));
        if wide.covers(&narrow) {
            for _ in 0..30 {
                let h = head(rng.uniform_range(0.0, 10.0), rng.uniform_range(0.0, 10.0));
                if narrow.matches(&h) {
                    assert!(wide.matches(&h));
                }
            }
        }
    });
}

/// Normal CDF is monotone and bounded; sums of independent normals add
/// their means and variances.
#[test]
fn normal_cdf_properties() {
    check(0x0CDF, 300, |rng| {
        let mean = rng.uniform_range(-100.0, 100.0);
        let std = rng.uniform_range(0.1, 50.0);
        let n = Normal::new(mean, std);
        let a = rng.uniform_range(-200.0, 200.0);
        let b = rng.uniform_range(-200.0, 200.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(n.cdf(lo) <= n.cdf(hi) + 1e-12);
        assert!((0.0..=1.0).contains(&n.cdf(a)));
        let sum = n.add_independent(&Normal::new(mean, std));
        assert!((sum.mean() - 2.0 * mean).abs() < 1e-9);
        assert!((sum.variance() - 2.0 * std * std).abs() < 1e-6);
    });
}

/// Success probability is monotone: more elapsed time never increases it,
/// and a longer allowed delay never decreases it.
#[test]
fn success_probability_monotonicity() {
    check(0x5CC, 300, |rng| {
        let allowed_secs = rng.uniform_usize(1, 120) as u64;
        let elapsed_a = rng.uniform_usize(0, 120) as u64;
        let elapsed_b = rng.uniform_usize(0, 120) as u64;
        let hops = rng.uniform_usize(1, 4);
        let rate = rng.uniform_range(50.0, 100.0);
        let message = Arc::new(
            Message::builder(MessageId::new(1), PublisherId::new(0))
                .publish_time(SimTime::ZERO)
                .size_kb(50.0)
                .build(),
        );
        let mut stats = PathStats::local();
        for _ in 0..hops {
            stats = stats.extend(Normal::new(rate, 20.0));
        }
        let target = |allowed: u64| SuccessClass {
            stats,
            allowed_delay: Duration::from_secs(allowed),
            live: 1,
        };
        let pd = Duration::from_millis(2);
        let (early, late) = if elapsed_a <= elapsed_b {
            (elapsed_a, elapsed_b)
        } else {
            (elapsed_b, elapsed_a)
        };
        let p_early = metrics::success_probability(
            &message,
            &target(allowed_secs),
            SimTime::from_secs(early),
            pd,
        );
        let p_late = metrics::success_probability(
            &message,
            &target(allowed_secs),
            SimTime::from_secs(late),
            pd,
        );
        assert!(p_late <= p_early + 1e-12);
        let p_longer = metrics::success_probability(
            &message,
            &target(allowed_secs + 10),
            SimTime::from_secs(early),
            pd,
        );
        assert!(p_longer + 1e-12 >= p_early);
        assert!((0.0..=1.0).contains(&p_early));
    });
}

/// EB is non-negative, bounded by the total price of its targets, and the
/// postponing cost never exceeds EB.
#[test]
fn eb_and_pc_bounds() {
    check(0xEBC, 300, |rng| {
        let message = Message::builder(MessageId::new(1), PublisherId::new(0))
            .publish_time(SimTime::ZERO)
            .size_kb(50.0)
            .build();
        let stats = PathStats::from_links([&Normal::new(75.0, 20.0), &Normal::new(60.0, 20.0)]);
        let targets: Vec<ResolvedTarget> = (0..rng.uniform_usize(1, 6))
            .map(|_| {
                let price = Price::from_units(rng.uniform_usize(1, 4) as i64);
                let allowed = Duration::from_secs(rng.uniform_usize(1, 90) as u64);
                (
                    SubscriptionId::new(0),
                    SubscriberId::new(0),
                    price,
                    allowed,
                    stats,
                )
            })
            .collect();
        let item = copy_of(message, &targets, SimTime::ZERO);
        let ft = rng.uniform_range(0.0, 10_000.0);
        let pd = Duration::from_millis(2);
        let now = SimTime::from_secs(1);
        let eb = metrics::expected_benefit(&item, now, pd);
        let pc = metrics::postponing_cost(&item, now, pd, ft);
        let total_price: f64 = item.targets.iter().map(|t| t.price.as_f64()).sum();
        assert!(eb >= -1e-12);
        assert!(eb <= total_price + 1e-9);
        assert!(pc >= -1e-9);
        assert!(pc <= eb + 1e-9);
    });
}

/// Builds a random dynamic scenario (possibly static) from the case RNG.
fn random_scenario(rng: &mut SimRng) -> DynamicScenario {
    let mut s = DynamicScenario::named("property");
    if rng.chance(0.6) {
        s = s.with_churn(ChurnConfig {
            joins_per_min: rng.uniform_range(0.5, 6.0),
            leaves_per_min: rng.uniform_range(0.5, 6.0),
        });
    }
    if rng.chance(0.6) {
        s = s.with_bursts(BurstConfig {
            mean_calm_secs: rng.uniform_range(30.0, 120.0),
            mean_burst_secs: rng.uniform_range(15.0, 60.0),
            multiplier: rng.uniform_range(2.0, 6.0),
        });
    }
    if rng.chance(0.6) {
        s = s.with_link_failures(LinkFailureConfig {
            mean_time_between_failures_secs: rng.uniform_range(15.0, 90.0),
            mean_downtime_secs: rng.uniform_range(5.0, 45.0),
        });
    }
    if rng.chance(0.3) {
        s = s.with_blackout(BlackoutWindow {
            start_frac: rng.uniform_range(0.2, 0.6),
            duration_frac: rng.uniform_range(0.05, 0.3),
        });
    }
    s
}

fn scenario_report(
    scenario: &DynamicScenario,
    strategy: StrategyKind,
    seed: u64,
) -> SimulationReport {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(10.0)
        .duration(Duration::from_secs(240))
        .strategy(strategy)
        .scenario(scenario.clone())
        .seed(seed)
        .report()
}

fn scenario_outcome(
    scenario: &DynamicScenario,
    strategy: StrategyKind,
    seed: u64,
) -> SimulationOutcome {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(10.0)
        .duration(Duration::from_secs(240))
        .strategy(strategy)
        .scenario(scenario.clone())
        .seed(seed)
        .build()
        .run()
}

/// Message-copy conservation holds under arbitrary dynamic scenarios: every
/// copy put into a queue is transmitted, dropped or still queued at the
/// horizon, and every transmission completed, was requeued after a link
/// failure, or is still in flight.
#[test]
fn scenario_runs_conserve_message_copies() {
    let strategies = [
        StrategyKind::MaxEb,
        StrategyKind::Fifo,
        StrategyKind::MaxEbpc,
    ];
    check(0xC0 + 0x45E, 6, |rng| {
        let scenario = random_scenario(rng);
        let strategy = strategies[rng.uniform_usize(0, strategies.len())];
        let seed = rng.next_u64() % 10_000;
        let out = scenario_outcome(&scenario, strategy, seed);
        out.check_conservation().unwrap_or_else(|violation| {
            panic!("{violation} (scenario {scenario:?}, {strategy:?}, seed {seed})")
        });
        // Received copies balance too: everything that completed a transfer
        // or was published either went through a processing module or is
        // still inside one at the horizon.
        assert_eq!(
            out.message_number() + out.pending_process_at_end,
            out.published + out.completed_transfers,
            "processing balance violated (scenario {scenario:?}, seed {seed})"
        );
    });
}

/// No (message, subscriber) pair is ever delivered twice, even with churn
/// re-using freed capacity and link failures requeueing copies.
#[test]
fn scenario_runs_never_duplicate_deliveries() {
    check(0xD0 + 0x0D1, 6, |rng| {
        let scenario = random_scenario(rng);
        let seed = rng.next_u64() % 10_000;
        let out = scenario_outcome(&scenario, StrategyKind::MaxEb, seed);
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
        let delivered = out.tracker.total_on_time() + out.tracker.total_late();
        assert!(
            delivered <= out.tracker.total_interested(),
            "delivered {delivered} > interested {} (scenario {scenario:?}, seed {seed})",
            out.tracker.total_interested()
        );
    });
}

/// Same seed ⇒ identical report, with dynamic scenarios enabled.
#[test]
fn scenario_runs_replay_identically_for_the_same_seed() {
    check(0x5E_ED, 4, |rng| {
        let scenario = random_scenario(rng);
        let seed = rng.next_u64() % 10_000;
        let a = scenario_report(&scenario, StrategyKind::MaxEbpc, seed);
        let b = scenario_report(&scenario, StrategyKind::MaxEbpc, seed);
        assert_eq!(a, b, "replay drifted (scenario {scenario:?}, seed {seed})");
    });
}

/// Per-phase breakdowns partition the run: phase-level counts add up to the
/// run totals and no phase statistic is NaN, even for empty phases.
#[test]
fn scenario_phase_breakdowns_partition_the_run() {
    check(0x9A5E, 4, |rng| {
        let scenario = random_scenario(rng);
        let seed = rng.next_u64() % 10_000;
        let report = scenario_report(&scenario, StrategyKind::MaxEb, seed);
        let published: u64 = report.phases.iter().map(|p| p.published).sum();
        let on_time: u64 = report.phases.iter().map(|p| p.on_time).sum();
        let late: u64 = report.phases.iter().map(|p| p.late).sum();
        assert_eq!(published, report.published);
        assert_eq!(on_time, report.on_time);
        assert_eq!(late, report.late);
        for p in &report.phases {
            assert!(p.mean_valid_delay_ms.is_finite(), "{p:?}");
            assert!(p.p95_valid_delay_ms.is_finite(), "{p:?}");
            assert!(p.start_s <= p.end_s, "{p:?}");
        }
    });
}

/// A value that is usually `valid` and now and then one of the four values
/// range checks get wrong: zero, a negative, NaN, ∞.
fn hazardous(rng: &mut SimRng, valid: f64) -> f64 {
    match rng.uniform_usize(0, 40) {
        0 => 0.0,
        1 => -valid,
        2 => f64::NAN,
        3 => f64::INFINITY,
        _ => valid,
    }
}

/// One hand-placed scenario action over ids drawn from ranges that straddle
/// what the mesh has (`brokers`, `links`, ≤ 6 publishers, ≤ 9 initial
/// subscriptions), so known, unknown and duplicate ids all occur.
fn random_action(rng: &mut SimRng, brokers: usize, links: usize) -> ScenarioAction {
    match rng.uniform_usize(0, 6) {
        0 => ScenarioAction::LinkDown {
            link: LinkId::new(rng.uniform_usize(0, links + 2) as u32),
        },
        1 => ScenarioAction::LinkUp {
            link: LinkId::new(rng.uniform_usize(0, links + 2) as u32),
        },
        2 => {
            let id = match rng.uniform_usize(0, 30) {
                0 => (1 << 31) | 3, // the aggregate sentinel bit
                _ => rng.uniform_usize(0, 24) as u32,
            };
            ScenarioAction::SubscriptionJoin {
                subscription: WorkloadConfig::paper_ssd(1.0).generate_subscription(
                    SubscriptionId::new(id),
                    SubscriberId::new(id & 0xff),
                    rng,
                ),
                broker: BrokerId::new(rng.uniform_usize(0, brokers + 2) as u32),
            }
        }
        3 => ScenarioAction::SubscriptionLeave {
            subscription: SubscriptionId::new(rng.uniform_usize(0, 24) as u32),
        },
        4 => ScenarioAction::PublisherRate {
            publisher: rng
                .chance(0.7)
                .then(|| PublisherId::new(rng.uniform_usize(0, 9) as u32)),
            multiplier: hazardous(rng, 3.0),
        },
        _ => ScenarioAction::PhaseMark {
            label: "mark".into(),
        },
    }
}

/// A random run description: mostly sound, with every front-door hazard —
/// degenerate meshes, out-of-range rates and sizes, zero duration and `PD`,
/// every layout × link model × forwarding × shard-count combination,
/// scenario events naming things the overlay may not have, churn / burst /
/// link-failure / blackout processes with NaN, ∞, negative and zero
/// parameters — mixed in.
fn random_front_door(rng: &mut SimRng) -> SimulationBuilder {
    use bdps::overlay::topology::LayeredMeshConfig;
    let layers = [1, 2, 2, 3, 3][rng.uniform_usize(0, 5)];
    let layer_sizes: Vec<usize> = (0..layers).map(|_| rng.uniform_usize(1, 4)).collect();
    let mut mesh = LayeredMeshConfig {
        // Mostly full fan-in: a sparse random one often disconnects a mesh
        // this small, which is a (structured) error of its own.
        fan_in: (1..layers)
            .map(|i| match rng.chance(0.7) {
                true => 0,
                false => rng.uniform_usize(1, layer_sizes[i - 1] + 1),
            })
            .collect(),
        layer_sizes,
        publishers_per_first_layer_broker: rng.uniform_usize(0, 3),
        subscribers_per_edge_broker: rng.uniform_usize(0, 4),
    };
    let brokers = mesh.broker_count();
    // Directed links: a lower-layer broker pairs with `fan_in` upper ones
    // (all of them when `fan_in` is 0), both directions.
    let links: usize = (1..layers)
        .map(|i| match mesh.fan_in[i - 1] {
            0 => 2 * mesh.layer_sizes[i] * mesh.layer_sizes[i - 1],
            fan_in => 2 * mesh.layer_sizes[i] * fan_in,
        })
        .sum();
    match rng.uniform_usize(0, 40) {
        0 => mesh.layer_sizes.clear(),
        1 => mesh.layer_sizes[0] = 0,
        2 => mesh.fan_in.push(1),
        3 if layers > 1 => mesh.fan_in[0] = mesh.layer_sizes[0] + 1,
        _ => {}
    }

    let mut workload = if rng.chance(0.5) {
        WorkloadConfig::paper_ssd(0.0)
    } else {
        WorkloadConfig::paper_psd(0.0)
    };
    let rate = rng.uniform_range(2.0, 30.0);
    workload.publishing_rate_per_min = hazardous(rng, rate);
    workload.message_size_kb = hazardous(rng, 50.0);
    workload.duration = match rng.uniform_usize(0, 10) {
        0 => Duration::ZERO,
        _ => Duration::from_secs(rng.uniform_usize(20, 90) as u64),
    };

    let mut scheduler =
        SchedulerConfig::paper(StrategyKind::ALL[rng.uniform_usize(0, StrategyKind::ALL.len())]);
    if rng.chance(0.15) {
        scheduler.processing_delay = Duration::ZERO;
    }

    let mut scenario = DynamicScenario::named("front-door");
    if rng.chance(0.5) {
        for _ in 0..rng.uniform_usize(1, 4) {
            let at = Duration::from_secs(rng.uniform_usize(0, 60) as u64);
            scenario = scenario.at(at, random_action(rng, brokers, links));
        }
    }

    // The stochastic processes, their own parameters hazardous too.
    if rng.chance(0.2) {
        scenario = scenario.with_churn(ChurnConfig {
            joins_per_min: hazardous(rng, 4.0),
            leaves_per_min: hazardous(rng, 4.0),
        });
    }
    if rng.chance(0.2) {
        scenario = scenario.with_bursts(BurstConfig {
            mean_calm_secs: hazardous(rng, 20.0),
            mean_burst_secs: hazardous(rng, 10.0),
            multiplier: hazardous(rng, 3.0),
        });
    }
    if rng.chance(0.2) {
        scenario = scenario.with_link_failures(LinkFailureConfig {
            mean_time_between_failures_secs: hazardous(rng, 15.0),
            mean_downtime_secs: hazardous(rng, 5.0),
        });
    }
    if rng.chance(0.2) {
        scenario = scenario.with_blackout(BlackoutWindow {
            start_frac: hazardous(rng, 0.3),
            duration_frac: hazardous(rng, 0.2),
        });
    }

    let shards = match rng.uniform_usize(0, 2) {
        0 => 1,
        _ => rng.uniform_usize(0, 2 * brokers + 1),
    };
    Simulation::builder()
        .layered_mesh(mesh)
        .workload(workload)
        .scheduler(scheduler)
        .scenario(scenario)
        .table_layout(TableLayout::ALL[rng.uniform_usize(0, 2)])
        .link_model(LinkModelKind::ALL[rng.uniform_usize(0, 2)])
        .forwarding(ForwardingMode::ALL[rng.uniform_usize(0, 2)])
        .shards(shards)
        .seed(rng.uniform_usize(0, 1_000) as u64)
}

/// The front door never unwinds: whatever the builder is handed,
/// `try_report` answers `Ok` or a structured `SimError`, and every run it
/// accepts also conserves copies, delivers no pair twice and ends with
/// tables equal to a from-scratch rebuild when built and run sequentially.
#[test]
fn the_builder_front_door_returns_ok_or_err_and_never_unwinds() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (mut ok, mut err) = (0, 0);
    let mut variants_seen = [false; 4];
    let mut case = 0;
    check(0xF00D, 400, |rng| {
        case += 1;
        let builder = random_front_door(rng);
        let config = builder.build_config();
        let answer = catch_unwind(AssertUnwindSafe(|| {
            let report = builder.try_report()?;
            // `run`'s own loop, kept open so the tables can be audited
            // before the simulation is consumed.
            let mut sim = builder.try_build()?;
            let stop = sim.hard_stop();
            while sim.step_next(stop) {}
            let tables = sim.audit_tables();
            Ok::<_, SimError>((report, sim.into_outcome(), tables))
        }))
        .unwrap_or_else(|_| panic!("case {case} unwound: {config:?}"));
        match answer {
            Ok((report, outcome, tables)) => {
                ok += 1;
                tables.unwrap_or_else(|e| panic!("case {case}: {e}: {config:?}"));
                outcome
                    .check_conservation()
                    .unwrap_or_else(|v| panic!("case {case}: {v}: {config:?}"));
                outcome
                    .check_no_duplicates()
                    .unwrap_or_else(|v| panic!("case {case}: {v}: {config:?}"));
                assert_eq!(report.duplicate_deliveries, 0, "case {case}");
            }
            Err(e) => {
                err += 1;
                let variant = match e {
                    SimError::InvalidConfig(_) => 0,
                    SimError::AggregateForwardingNeedsSparseLayout => 1,
                    SimError::ShardedLinkModelUnsupported { .. } => 2,
                    SimError::ShardedForwardingUnsupported => 3,
                    other => panic!("case {case}: not a configuration error: {other}"),
                };
                variants_seen[variant] = true;
            }
        }
    });
    assert!(ok > 50 && err > 50, "vacuous mix: {ok} Ok, {err} Err");
    assert_eq!(
        variants_seen, [true; 4],
        "a configuration variant never fired"
    );
}

/// After any sequence of link-liveness delta batches, incrementally updated
/// routing is **bit-identical** to a from-scratch
/// [`Routing::compute_filtered`] over the surviving links, and the reported
/// delta names exactly the `(source, destination)` pairs whose entry
/// changed — the routing-level oracle behind the production engine's
/// incremental rebuild.
#[test]
fn incremental_routing_equals_scratch_recompute_after_any_delta_sequence() {
    check(0xD317A, 40, |rng| {
        let n = rng.uniform_usize(4, 12);
        let mut topo_rng = SimRng::seed_from(rng.next_u64());
        let topo = Topology::random_mesh(n, 3.0, &mut topo_rng, LinkQuality::paper_random);
        let links = topo.graph.link_count();
        let mut alive = vec![true; links];
        let mut routing = Routing::compute(&topo.graph);
        for _ in 0..rng.uniform_usize(1, 6) {
            // One batch: toggle a few links (dedup — a link toggles once per
            // batch, matching the engine's coalesced net-change semantics).
            let mut removed = Vec::new();
            let mut added = Vec::new();
            let mut touched = std::collections::HashSet::new();
            for _ in 0..rng.uniform_usize(1, 5) {
                let link = rng.uniform_usize(0, links);
                if !touched.insert(link) {
                    continue;
                }
                alive[link] = !alive[link];
                if alive[link] {
                    added.push(LinkId::new(link as u32));
                } else {
                    removed.push(LinkId::new(link as u32));
                }
            }
            let before = routing.clone();
            let delta =
                routing.update_for_link_change(&topo.graph, |l| alive[l.index()], &removed, &added);
            let scratch = Routing::compute_filtered(&topo.graph, |l| alive[l.index()]);
            assert_eq!(
                routing, scratch,
                "incremental routing drifted from the from-scratch oracle"
            );
            // The delta is exact: it reports a pair iff the entry changed.
            let mut expected = 0usize;
            for src in 0..n {
                for dest in 0..n {
                    let (s, d) = (BrokerId::new(src as u32), BrokerId::new(dest as u32));
                    let changed = before.route(s, d) != scratch.route(s, d);
                    assert_eq!(
                        delta.changed_dests(s).contains(&d),
                        changed,
                        "delta mismatch for ({s}, {d})"
                    );
                    expected += changed as usize;
                }
            }
            assert_eq!(delta.changed_pairs(), expected);
        }
    });
}

/// The table-level oracle of the sparse covering-aggregated layout: for
/// random topologies, subscription populations and interleaved churn +
/// link-delta sequences, (a) a sparse table maintained *incrementally*
/// (registry churn + `sync_aggregate` on exactly the changed destinations)
/// equals a from-scratch sparse build, and (b) the sparse table expanded at
/// edges resolves exactly the dense table's delivery set — same rows, same
/// routed fields, for scoped and unscoped arrivals alike.
#[test]
fn sparse_tables_match_dense_and_incremental_matches_scratch() {
    use bdps::overlay::sparse::{ResolvedEntry, SharedPopulation, SparseTable};
    use bdps::overlay::subtable::SubscriptionTable;
    use std::sync::{Arc, RwLock};

    check(0x5AA5_E011, 20, |rng| {
        let n = rng.uniform_usize(4, 9);
        let mut topo_rng = SimRng::seed_from(rng.next_u64());
        let topo = Topology::random_mesh(n, 3.0, &mut topo_rng, LinkQuality::paper_random);
        let links = topo.graph.link_count();
        let mut alive = vec![true; links];
        let mut routing = Routing::compute(&topo.graph);

        // Initial population on random edges.
        let mut subs: Vec<(Subscription, BrokerId)> = Vec::new();
        let mut next_id = 0u32;
        let make_sub = |rng: &mut SimRng, next_id: &mut u32| {
            let id = *next_id;
            *next_id += 1;
            (
                Subscription::best_effort(
                    SubscriptionId::new(id),
                    SubscriberId::new(id),
                    Filter::paper_conjunction(
                        rng.uniform_range(0.0, 10.0),
                        rng.uniform_range(0.0, 10.0),
                    ),
                ),
                BrokerId::new(rng.uniform_usize(0, n) as u32),
            )
        };
        for _ in 0..rng.uniform_usize(3, 15) {
            subs.push(make_sub(rng, &mut next_id));
        }

        let population = Arc::new(RwLock::new(SharedPopulation::from_population(&subs)));
        let mut sparse: Vec<SparseTable> = (0..n)
            .map(|b| SparseTable::build(BrokerId::new(b as u32), &routing, &population))
            .collect();

        for _ in 0..rng.uniform_usize(2, 6) {
            // One step: either a churn event or a link batch.
            if rng.chance(0.5) || links == 0 {
                if !subs.is_empty() && rng.chance(0.4) {
                    // Leave: registry once, local strip at the edge, one
                    // aggregate sync per broker.
                    let victim = rng.uniform_usize(0, subs.len());
                    let (sub, edge) = subs.remove(victim);
                    population.write().unwrap().remove(sub.id);
                    for table in sparse.iter_mut() {
                        table.remove_local(sub.id);
                        table.sync_aggregate(&routing, edge);
                    }
                } else {
                    // Join: registry once, full entry only at the edge.
                    let (sub, edge) = make_sub(rng, &mut next_id);
                    population.write().unwrap().insert(sub.clone(), edge);
                    for table in sparse.iter_mut() {
                        if table.broker() == edge {
                            table.insert_local(sub.clone());
                        } else {
                            table.sync_aggregate(&routing, edge);
                        }
                    }
                    subs.push((sub, edge));
                }
            } else {
                // A link batch: toggle a few links, patch exactly the
                // changed (broker, destination) aggregates.
                let mut removed = Vec::new();
                let mut added = Vec::new();
                let mut touched = std::collections::HashSet::new();
                for _ in 0..rng.uniform_usize(1, 4) {
                    let link = rng.uniform_usize(0, links);
                    if !touched.insert(link) {
                        continue;
                    }
                    alive[link] = !alive[link];
                    if alive[link] {
                        added.push(LinkId::new(link as u32));
                    } else {
                        removed.push(LinkId::new(link as u32));
                    }
                }
                let delta = routing.update_for_link_change(
                    &topo.graph,
                    |l| alive[l.index()],
                    &removed,
                    &added,
                );
                for table in sparse.iter_mut() {
                    for &dest in delta.changed_dests(table.broker()) {
                        table.sync_aggregate(&routing, dest);
                    }
                }
            }

            // Oracle (a): incremental maintenance equals a from-scratch
            // sparse build — locals, aggregates and routed fields alike.
            for table in &sparse {
                let scratch = SparseTable::build(table.broker(), &routing, &population);
                assert_eq!(
                    table.aggregates().collect::<Vec<_>>(),
                    scratch.aggregates().collect::<Vec<_>>(),
                    "incremental aggregates drifted at {}",
                    table.broker()
                );
                assert_eq!(
                    table.local().len(),
                    scratch.local().len(),
                    "local membership drifted at {}",
                    table.broker()
                );
            }

            // Oracle (b): the sparse table resolves exactly the dense
            // table's delivery set.
            let all_ids: Vec<SubscriptionId> = subs.iter().map(|(s, _)| s.id).collect();
            let scope = ScopeSet::from_unsorted(all_ids);
            for table in &sparse {
                let dense = SubscriptionTable::build(table.broker(), &routing, &subs);
                let mut resolved: Vec<ResolvedEntry> = Vec::new();
                table.resolve_scope(&scope, |e| resolved.push(e));
                let expected: Vec<ResolvedEntry> = scope
                    .iter()
                    .filter_map(|id| dense.entry(id).map(ResolvedEntry::from_entry))
                    .collect();
                assert_eq!(
                    resolved,
                    expected,
                    "scoped resolution drifted at {}",
                    table.broker()
                );
                // Unscoped matching (the covering-gated path) delivers the
                // same rows in the same ascending order.
                let h = head(rng.uniform_range(0.0, 10.0), rng.uniform_range(0.0, 10.0));
                let via_sparse = table.matching_all(&h);
                let mut via_dense: Vec<ResolvedEntry> = dense
                    .matching(&h)
                    .into_iter()
                    .map(ResolvedEntry::from_entry)
                    .collect();
                via_dense.sort_unstable_by_key(|e| e.subscription);
                assert_eq!(
                    via_sparse,
                    via_dense,
                    "unscoped matching drifted at {}",
                    table.broker()
                );
            }
        }
    });
}

/// Routing on random meshes is consistent and path statistics equal the
/// sum of link means along the realised path.
#[test]
fn routing_stats_match_paths() {
    check(0x0707, 60, |rng| {
        let n = rng.uniform_usize(4, 12);
        let mut topo_rng = SimRng::seed_from(rng.next_u64());
        let topo = Topology::random_mesh(n, 3.0, &mut topo_rng, LinkQuality::paper_random);
        let routing = Routing::compute(&topo.graph);
        assert!(routing.is_consistent());
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let from = BrokerId::new(from as u32);
                let to = BrokerId::new(to as u32);
                if let (Some(stats), Some(path)) =
                    (routing.path_stats(from, to), routing.path(from, to))
                {
                    let mut sum = 0.0;
                    for w in path.windows(2) {
                        sum += topo
                            .graph
                            .link_between(w[0], w[1])
                            .unwrap()
                            .quality
                            .rate_distribution()
                            .mean();
                    }
                    assert!((sum - stats.mean_rate()).abs() < 1e-6);
                    assert_eq!(stats.hops() as usize, path.len() - 1);
                }
            }
        }
    });
}
