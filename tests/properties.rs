//! Property-based tests on cross-crate invariants.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these use a small seeded harness: each property is checked over a few
//! hundred pseudo-random cases drawn from [`SimRng`], which keeps the runs
//! deterministic and the failures reproducible (the case index is reported
//! on panic).

use bdps::core::broker::ArrivalOutcome;
use bdps::core::metrics::{self, ClassScratch};
use bdps::core::queue::{OutputQueue, SuccessClass};
use bdps::core::strategy::ScheduleContext;
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

/// The edge broker a generated subscription is attached at: ids come in
/// runs of four per edge, and edges 64 apart share a mask bit.
fn edge_of(id: SubscriptionId) -> BrokerId {
    BrokerId::new(id.raw() / 4 * 3)
}

/// The copy of `message` serving `targets`, built the way the broker does.
fn copy_of(message: Message, targets: &[ResolvedTarget], enqueue_time: SimTime) -> QueuedMessage {
    let mut draft = CopyDraft::default();
    for &(subscription, subscriber, price, allowed_delay, stats) in targets {
        let class = draft.class_for(stats, allowed_delay);
        let edge = edge_of(subscription);
        draft.push_target(subscription, subscriber, price, 0, class, edge);
    }
    draft.to_copy(&Arc::new(message), enqueue_time)
}

/// A queued copy whose targets honour the queue's invariant: strictly
/// ascending subscription ids.
fn random_item(id: u64, rng: &mut SimRng) -> QueuedMessage {
    let mut targets: Vec<ResolvedTarget> = (0..rng.uniform_usize(1, 6))
        .map(|_| random_target(rng))
        .collect();
    targets.sort_by_key(|t| t.0);
    targets.dedup_by_key(|t| t.0);
    let message = Message::builder(MessageId::new(id))
        .publish_time(SimTime::from_millis(rng.uniform_usize(0, 5_000) as u64))
        .size_kb(rng.uniform_range(10.0, 100.0))
        .build();
    let enqueue_time = SimTime::from_secs(rng.uniform_usize(5, 10) as u64);
    copy_of(message, &targets, enqueue_time)
}

fn random_ctx(rng: &mut SimRng) -> ScheduleContext {
    ScheduleContext {
        now: SimTime::from_secs(rng.uniform_usize(10, 40) as u64),
        ebpc_weight: rng.uniform(),
        link_mean_rate_ms_per_kb: rng.uniform_range(0.0, 200.0),
    }
}

/// For every built-in strategy: `priority` is deterministic, finite for
/// valid (bounded-deadline) inputs, and blind to what its scratch held: a
/// score from the scratch the queue keeps across copies equals the score
/// from a fresh scratch.
#[test]
fn every_registered_strategy_is_deterministic_and_finite() {
    let names = StrategyHandle::NAMES;
    check(0xBD_05, 200, |rng| {
        let items: Vec<QueuedMessage> = (0..rng.uniform_usize(1, 8) as u64)
            .map(|i| random_item(i, rng))
            .collect();
        let ctx = random_ctx(rng);
        for name in &names {
            let strategy = StrategyHandle::from_name(name).expect("builtin resolves");
            let mut kept = ClassScratch::default();
            for item in &items {
                let score = strategy.priority(&ctx, item, &mut kept);
                assert!(score.is_finite(), "{name}: non-finite priority {score}");
                assert_eq!(
                    score.to_bits(),
                    strategy
                        .priority(&ctx, item, &mut ClassScratch::default())
                        .to_bits(),
                    "{name}: a score from a scratch that last held another copy must equal \
                     the score from a fresh scratch"
                );
            }
        }
    });
}

/// Under the FIFO strategy, pop order always matches enqueue order, whatever
/// the message contents.
#[test]
fn fifo_pop_order_matches_enqueue_order() {
    let config = SchedulerConfig {
        invalid_detection: InvalidDetection::Off,
        ..SchedulerConfig::paper(StrategyKind::Fifo)
    };
    check(0xF1F0, 200, |rng| {
        let mut queue = OutputQueue::new(75.0);
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

/// `OutputQueue::remove_subscription` searches only the copies whose edge
/// mask has the leaver's edge bit, and locates the id by binary search over
/// their ascending targets; the reference ignores masks and strips every
/// copy with a linear `retain`. Both must agree on the orphan count and on
/// every surviving copy — which copies, which targets, in which order —
/// wherever the id sits in a copy: absent, first, last, in the middle, or
/// its sole target. Copies carry the masks their targets' edges give them,
/// except requeued ones (all ones); an id that moved to another edge while
/// copies holding it were in flight is held only by requeued copies, as in
/// the engine.
#[test]
fn remove_subscription_matches_the_retain_reference() {
    let (mut moved, mut skipped) = (0, 0);
    check(0x5781, 300, |rng| {
        let mut items: Vec<QueuedMessage> = (0..rng.uniform_usize(1, 10) as u64)
            .map(|i| random_item(i, rng))
            .collect();
        let picked = &rng.choose(&items).targets;
        let id = match rng.uniform_usize(0, 4) {
            0 => SubscriptionId::new(1_000), // held by nobody
            1 => picked[0].subscription,
            2 => picked[picked.len() - 1].subscription,
            _ => rng.choose(picked).subscription,
        };
        let holds = |item: &QueuedMessage| item.targets.iter().any(|t| t.subscription == id);
        for item in &mut items {
            if rng.chance(0.2) {
                item.edges = u64::MAX; // requeued after a failed transfer
            }
        }
        let mut edge = edge_of(id);
        if rng.chance(0.25) {
            // The id left and re-joined elsewhere while its copies were in
            // flight: they all came back through a requeue.
            edge = BrokerId::new(rng.uniform_usize(0, 200) as u32);
            moved += 1;
            for item in items.iter_mut().filter(|item| holds(item)) {
                item.edges = u64::MAX;
            }
        }

        let mut queue = OutputQueue::new(75.0);
        for item in &items {
            queue.push(item.clone());
        }
        let stripped = queue.remove_subscription(id, edge);

        let mut expected = items;
        let holders = expected.iter().filter(|item| holds(item)).count() as u64;
        assert!(stripped.scanned >= holders && stripped.scanned <= expected.len() as u64);
        skipped += expected.len() as u64 - stripped.scanned;
        for item in &mut expected {
            item.targets.retain(|t| t.subscription != id);
        }
        let before = expected.len();
        expected.retain(|item| !item.targets.is_empty());
        assert_eq!(stripped.orphaned as usize, before - expected.len());
        assert_eq!(queue.len(), expected.len());
        let mut masks = 0;
        for (got, want) in queue.items().iter().zip(&expected) {
            assert_eq!(got.message.id, want.message.id);
            assert_eq!(got.targets, want.targets);
            masks |= got.edges;
            // Live counts follow the targets: a class is dead exactly when
            // its last member was stripped.
            for (class, c) in got.classes.iter().enumerate() {
                let members = got.targets.iter().filter(|t| t.class as usize == class);
                assert_eq!(c.live as usize, members.count());
            }
        }
        assert_eq!(
            queue.edges() & masks,
            masks,
            "the summary covers the survivors"
        );
    });
    assert!(
        moved > 30 && skipped > 300,
        "{moved} moved ids, {skipped} copies skipped"
    );
}

/// The strategy lookup round-trips every built-in name: resolving a name
/// yields a strategy whose display label resolves back to the same strategy.
#[test]
fn registry_round_trips_every_builtin_name() {
    for name in StrategyHandle::NAMES {
        let strategy = StrategyHandle::from_name(name).unwrap_or_else(|| panic!("{name} resolves"));
        let via_label = StrategyHandle::from_name(strategy.label())
            .unwrap_or_else(|| panic!("label {} resolves", strategy.label()));
        assert_eq!(strategy.label(), via_label.label(), "round trip of {name}");
        // Case-insensitive.
        assert!(StrategyHandle::from_name(&name.to_ascii_uppercase()).is_some());
    }
    // The five paper kinds are all reachable by their labels.
    for kind in StrategyKind::ALL {
        assert_eq!(StrategyHandle::from_name(kind.label()).unwrap(), kind);
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
            Message::builder(MessageId::new(1))
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
        let (early, late) = if elapsed_a <= elapsed_b {
            (elapsed_a, elapsed_b)
        } else {
            (elapsed_b, elapsed_a)
        };
        let p_early = metrics::success_probability(
            &message,
            &target(allowed_secs),
            SimTime::from_secs(early),
        );
        let p_late =
            metrics::success_probability(&message, &target(allowed_secs), SimTime::from_secs(late));
        assert!(p_late <= p_early + 1e-12);
        let p_longer = metrics::success_probability(
            &message,
            &target(allowed_secs + 10),
            SimTime::from_secs(early),
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
        let message = Message::builder(MessageId::new(1))
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
        let now = SimTime::from_secs(1);
        let mut scratch = ClassScratch::default();
        let eb = scratch.expected_benefit(&item, now);
        let pc = scratch.postponing_cost(&item, now, ft);
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

/// Same seed ⇒ identical run, with dynamic scenarios enabled.
#[test]
fn scenario_runs_replay_identically_for_the_same_seed() {
    check(0x5E_ED, 4, |rng| {
        let scenario = random_scenario(rng);
        let seed = rng.next_u64() % 10_000;
        let a = scenario_outcome(&scenario, StrategyKind::MaxEbpc, seed);
        let b = scenario_outcome(&scenario, StrategyKind::MaxEbpc, seed);
        assert_eq!(
            a.replay_state(),
            b.replay_state(),
            "replay drifted (scenario {scenario:?}, seed {seed})"
        );
    });
}

/// Per-phase breakdowns partition the run: phase-level counts add up to the
/// tracker's totals, the phases' slices of the run's one delay record tile
/// it in order, each slice as long as its phase's on-time count, and no
/// phase statistic is NaN, even for empty phases.
#[test]
fn scenario_phase_breakdowns_partition_the_run() {
    check(0x9A5E, 4, |rng| {
        let scenario = random_scenario(rng);
        let seed = rng.next_u64() % 10_000;
        let out = scenario_outcome(&scenario, StrategyKind::MaxEb, seed);
        let on_time: u64 = out.phases.iter().map(|p| p.on_time).sum();
        let late: u64 = out.phases.iter().map(|p| p.late).sum();
        assert_eq!(on_time, out.tracker.total_on_time());
        assert_eq!(late, out.tracker.total_late());
        let mut tiled = Vec::new();
        for p in &out.phases {
            let delays = out.phase_delays_ms(p);
            assert_eq!(delays.count() as u64, p.on_time, "{p:?}");
            assert!(delays.mean().is_finite(), "{p:?}");
            assert!(p.start <= p.end, "{p:?}");
            tiled.extend_from_slice(delays.values());
        }
        assert!(
            tiled == out.valid_delays_ms.values(),
            "the phases' slices do not tile the delay record (scenario {scenario:?}, seed {seed})"
        );
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
/// what the mesh has (`brokers`, `links`, ≤ 6 publishers, `subscriptions`
/// initial subscriptions), so known, unknown and duplicate ids all occur.
/// Joins and leaves are drawn twice as often as the other kinds, their ids
/// from one range just past the initial population: the front door rejects
/// a join id at or above it plus the stream's join count.
fn random_action(
    rng: &mut SimRng,
    brokers: usize,
    links: usize,
    subscriptions: usize,
) -> ScenarioAction {
    match rng.uniform_usize(0, 8) {
        0 => ScenarioAction::LinkDown {
            link: LinkId::new(rng.uniform_usize(0, links + 2) as u32),
        },
        1 => ScenarioAction::LinkUp {
            link: LinkId::new(rng.uniform_usize(0, links + 2) as u32),
        },
        2 | 3 => {
            let id = match rng.uniform_usize(0, 30) {
                0 => (1 << 31) | 3, // the aggregate sentinel bit
                _ => rng.uniform_usize(0, subscriptions + 2) as u32,
            };
            // Mostly a broker the mesh has: an unknown one fails the run.
            let reach = brokers + if rng.chance(0.1) { 2 } else { 0 };
            ScenarioAction::SubscriptionJoin {
                subscription: WorkloadConfig::paper_ssd(1.0).generate_subscription(
                    SubscriptionId::new(id),
                    SubscriberId::new(id & 0xff),
                    rng,
                ),
                broker: BrokerId::new(rng.uniform_usize(0, reach) as u32),
            }
        }
        4 | 5 => ScenarioAction::SubscriptionLeave {
            subscription: SubscriptionId::new(rng.uniform_usize(0, subscriptions + 2) as u32),
        },
        6 => ScenarioAction::PublisherRate {
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

/// A random run description and the shard count to run it on: mostly
/// sound, with every front-door hazard — degenerate meshes, out-of-range
/// rates and sizes, zero duration and `PD`, every link model × forwarding ×
/// shard-count combination, scenario events naming things the overlay may
/// not have, churn / burst / link-failure / blackout processes with NaN, ∞,
/// negative and zero parameters — mixed in.
fn random_front_door(rng: &mut SimRng) -> (SimulationBuilder, usize) {
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
    let subscriptions = mesh.layer_sizes.last().unwrap_or(&0) * mesh.subscribers_per_edge_broker;
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

    let scheduler =
        SchedulerConfig::paper(StrategyKind::ALL[rng.uniform_usize(0, StrategyKind::ALL.len())]);

    let mut scenario = DynamicScenario::named("front-door");
    if rng.chance(0.85) {
        for _ in 0..rng.uniform_usize(1, 5) {
            let at = Duration::from_secs(rng.uniform_usize(0, 60) as u64);
            scenario = scenario.at(at, random_action(rng, brokers, links, subscriptions));
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
    let builder = Simulation::builder()
        .layered_mesh(mesh)
        .workload(workload)
        .scheduler(scheduler)
        .scenario(scenario)
        .link_model(LinkModelKind::ALL[rng.uniform_usize(0, 2)])
        .forwarding(ForwardingMode::ALL[rng.uniform_usize(0, 2)])
        .seed(rng.uniform_usize(0, 1_000) as u64);
    (builder, shards)
}

/// The front door never unwinds: whatever the builder is handed, building
/// it and running the result on the drawn shard count answers `Ok` or a
/// structured `SimError`, and every run it accepts also conserves copies,
/// delivers no pair twice, reproduces the sequential run's replay state on
/// the drawn shard count and ends with tables equal to a from-scratch
/// rebuild when built and run sequentially.
#[test]
fn the_builder_front_door_returns_ok_or_err_and_never_unwinds() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (mut ok, mut err) = (0, 0);
    let mut variants_seen = [false; 3];
    let mut case = 0;
    check(0xF00D, 400, |rng| {
        case += 1;
        let (builder, shards) = random_front_door(rng);
        let config = builder.build_config();
        let answer = catch_unwind(AssertUnwindSafe(|| {
            let sharded = bdps::sim::try_run_sharded(builder.try_build()?, shards)?;
            // `run`'s own loop, kept open so the tables can be audited
            // before the simulation is consumed.
            let mut sim = builder.try_build()?;
            let stop = sim.hard_stop();
            while sim.step_next(stop) {}
            let tables = sim.audit_tables();
            Ok::<_, SimError>((sharded, sim.into_outcome(), tables))
        }))
        .unwrap_or_else(|_| panic!("case {case} unwound on {shards} shards: {config:?}"));
        match answer {
            Ok((sharded, outcome, tables)) => {
                ok += 1;
                tables.unwrap_or_else(|e| panic!("case {case}: {e}: {config:?}"));
                outcome
                    .check_conservation()
                    .unwrap_or_else(|v| panic!("case {case}: {v}: {config:?}"));
                outcome
                    .check_no_duplicates()
                    .unwrap_or_else(|v| panic!("case {case}: {v}: {config:?}"));
                assert_eq!(
                    sharded.replay_state(),
                    outcome.replay_state(),
                    "case {case}: {shards} shards drifted from the sequential run"
                );
            }
            Err(e) => {
                err += 1;
                let variant = match e {
                    SimError::InvalidConfig(_) => 0,
                    SimError::ShardedLinkModelUnsupported { .. } => 1,
                    SimError::ShardedForwardingUnsupported => 2,
                    other => panic!("case {case}: not a configuration error: {other}"),
                };
                variants_seen[variant] = true;
            }
        }
    });
    assert!(ok > 50 && err > 50, "vacuous mix: {ok} Ok, {err} Err");
    assert_eq!(
        variants_seen, [true; 3],
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

/// The routing oracle where the repair walks deep subtrees: a 108-broker
/// layered mesh under link-storm batches, each netted like the engine's
/// coalesced batch (a per-link down depth, compared with the liveness at
/// the last update). Events take both directions of a pair down or up
/// together, or one direction alone; downs nest (a second down of a dead
/// link needs a second up), and one batch may restore some links while it
/// cuts others. Half the cases draw link means from three values, so
/// equal-cost trees and their tie-breaks are everywhere. After every batch
/// the repaired routing equals [`Routing::compute_filtered`] and the delta
/// names exactly the changed pairs.
#[test]
fn repaired_routing_equals_scratch_on_a_layered_mesh_under_storm_batches() {
    use bdps::overlay::topology::LayeredMeshConfig;
    let config = LayeredMeshConfig {
        layer_sizes: vec![4, 8, 32, 64],
        fan_in: vec![0, 2, 2],
        publishers_per_first_layer_broker: 1,
        subscribers_per_edge_broker: 1,
    };
    check(0x5702_3B7A, 4, |rng| {
        let tie_heavy = rng.chance(0.5);
        let mut topo_rng = SimRng::seed_from(rng.next_u64());
        let topo = Topology::layered_mesh(&config, &mut topo_rng, |r| match tie_heavy {
            true => {
                LinkQuality::normal(*r.choose(&[50.0, 75.0, 100.0]), r.uniform_range(1.0, 20.0))
            }
            false => LinkQuality::paper_random(r),
        })
        .unwrap();
        let graph = &topo.graph;
        let (n, links) = (graph.broker_count(), graph.link_count());
        assert!(n >= 100);
        // Bidirectional links come in id pairs (2k, 2k + 1).
        let mut depth = vec![0u32; links];
        let mut alive = vec![true; links];
        let mut routing = Routing::compute(graph);
        let (mut mixed, mut nested, mut changed_pairs) = (0, 0, 0);
        for _ in 0..12 {
            for _ in 0..rng.uniform_usize(1, 7) {
                // Restore a down link's pair, take one down again (a
                // nested down), or take a pair down — half of those in the
                // 48 upper-tier pairs, whose cuts are the deepest.
                let down_links: Vec<usize> = (0..links).filter(|&i| depth[i] > 0).collect();
                let roll = rng.uniform_usize(0, 10);
                let restore = roll < 4 && !down_links.is_empty();
                let pair = match roll {
                    0..=5 if !down_links.is_empty() => {
                        down_links[rng.uniform_usize(0, down_links.len())] / 2
                    }
                    0..=7 => rng.uniform_usize(0, 48),
                    _ => rng.uniform_usize(0, links / 2),
                };
                let ids = match rng.uniform_usize(0, 4) {
                    0 => vec![2 * pair],
                    1 => vec![2 * pair + 1],
                    _ => vec![2 * pair, 2 * pair + 1],
                };
                for i in ids {
                    if restore {
                        depth[i] = depth[i].saturating_sub(1);
                    } else {
                        depth[i] += 1;
                    }
                }
            }
            let (mut removed, mut added) = (Vec::new(), Vec::new());
            for i in 0..links {
                if (depth[i] == 0) != alive[i] {
                    alive[i] = !alive[i];
                    let list = if alive[i] { &mut added } else { &mut removed };
                    list.push(LinkId::new(i as u32));
                }
            }
            let before = routing.clone();
            let delta =
                routing.update_for_link_change(graph, |l| alive[l.index()], &removed, &added);
            let scratch = Routing::compute_filtered(graph, |l| alive[l.index()]);
            assert_eq!(routing, scratch, "repaired routing drifted from the oracle");
            let mut expected = 0usize;
            for src in 0..n {
                let s = BrokerId::new(src as u32);
                let reported = delta.changed_dests(s);
                for dest in 0..n {
                    let d = BrokerId::new(dest as u32);
                    let changed = before.route(s, d) != scratch.route(s, d);
                    assert_eq!(
                        reported.binary_search(&d).is_ok(),
                        changed,
                        "delta mismatch for ({s}, {d})"
                    );
                    expected += changed as usize;
                }
            }
            assert_eq!(delta.changed_pairs(), expected);
            mixed += (!removed.is_empty() && !added.is_empty()) as usize;
            nested += depth.iter().filter(|&&d| d > 1).count();
            changed_pairs += expected;
        }
        assert!(
            mixed > 0 && nested > 0 && changed_pairs > 0,
            "a vacuous storm: {mixed} mixed batches, {nested} nested downs"
        );
    });
}

/// The table-level oracle of the sparse covering-aggregated table: for
/// random topologies, subscription populations and interleaved churn +
/// link-delta sequences, (a) a sparse table maintained *incrementally*
/// (registry churn + `sync_aggregate` on exactly the changed destinations)
/// equals a from-scratch sparse build, and (b) the sparse table expanded at
/// edges resolves exactly the delivery set of a dense table — one
/// `SubscriptionTable::build` over the whole population — with the same
/// rows and routed fields.
#[test]
fn sparse_tables_match_dense_and_incremental_matches_scratch() {
    use bdps::overlay::sparse::{read_population, SharedPopulation, SparseTable};
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
                    // Leave: registry once, one aggregate sync per broker.
                    let victim = rng.uniform_usize(0, subs.len());
                    let (sub, edge) = subs.remove(victim);
                    population.write().unwrap().remove(sub.id);
                    for table in sparse.iter_mut() {
                        table.sync_aggregate(&routing, edge);
                    }
                } else {
                    // Join: registry once, one aggregate sync per broker
                    // (a no-op at the edge itself).
                    let (sub, edge) = make_sub(rng, &mut next_id);
                    population.write().unwrap().insert(sub.clone(), edge);
                    for table in sparse.iter_mut() {
                        table.sync_aggregate(&routing, edge);
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
            // sparse build — aggregates and routed fields alike.
            for table in &sparse {
                let scratch = SparseTable::build(table.broker(), &routing, &population);
                assert_eq!(
                    table.aggregates().collect::<Vec<_>>(),
                    scratch.aggregates().collect::<Vec<_>>(),
                    "incremental aggregates drifted at {}",
                    table.broker()
                );
            }

            // Oracle (b): the sparse table resolves exactly the dense
            // table's delivery set.
            let pop = read_population(&population);
            for table in &sparse {
                let dense = SubscriptionTable::build(table.broker(), &routing, &subs);
                let ids = subs.iter().map(|(s, _)| s.id);
                dense.check_sparse(table, &pop, ids).unwrap();
            }
        }
    });
}

/// A registry without covers (exact forwarding's) and a full one driven
/// through the same random joins, leaves and re-joins of live ids agree
/// after every step on everything exact forwarding reads: group ids and
/// members, slot tags, records, the epoch and the state digest. The one
/// without covers never holds cover state or rebuilds a summary; the full
/// one rebuilds one per join and per leave that leaves its group populated.
#[test]
fn a_registry_without_covers_tracks_the_full_one_through_churn() {
    use bdps::overlay::sparse::{MemberRecord, SharedPopulation};

    fn sub(id: u32, rng: &mut SimRng) -> Subscription {
        let (sid, who) = (SubscriptionId::new(id), SubscriberId::new(id));
        let filter =
            Filter::paper_conjunction(rng.uniform_range(0.0, 10.0), rng.uniform_range(0.0, 10.0));
        if rng.chance(0.2) {
            return Subscription::best_effort(sid, who, filter);
        }
        let bound = DelayBound::from_secs(rng.uniform_usize(5, 40) as u64);
        let price = Price::from_units(rng.uniform_usize(1, 5) as i64);
        Subscription::with_qos(sid, who, filter, QosClass::new(bound, price))
    }
    fn record(r: &MemberRecord) -> (&Subscription, BrokerId, u64, u32) {
        (&r.subscription, r.edge, r.join_epoch, r.incarnation)
    }

    let (mut steps, mut rejoins) = (0, 0);
    check(0xC0_7E25, 40, |rng| {
        let edges = rng.uniform_usize(1, 6);
        let edge_of = |rng: &mut SimRng| BrokerId::new(rng.uniform_usize(0, edges) as u32);
        let mut next_id = rng.uniform_usize(0, 30) as u32;
        let initial: Vec<(Subscription, BrokerId)> = (0..next_id)
            .map(|id| (sub(id, rng), edge_of(rng)))
            .collect();
        let mut exact = SharedPopulation::without_covers(&initial);
        let mut full = SharedPopulation::from_population(&initial);
        let mut rebuilds = 0u64;
        for _ in 0..rng.uniform_usize(20, 80) {
            // A join leaves its group populated; a leave (also the implied
            // one of a live id's re-join) does when its group had company.
            let populated_after_leave = |pop: &SharedPopulation, id: SubscriptionId| {
                pop.member(id)
                    .and_then(|r| pop.group(r.edge))
                    .is_some_and(|g| g.ids().len() > 1)
            };
            let roll = rng.uniform();
            if roll < 0.4 {
                let (s, edge) = (sub(next_id, rng), edge_of(rng));
                next_id += 1;
                exact.insert(s.clone(), edge);
                full.insert(s, edge);
                rebuilds += 1;
            } else if roll < 0.75 {
                let id = SubscriptionId::new(rng.uniform_usize(0, next_id as usize + 1) as u32);
                rebuilds += u64::from(populated_after_leave(&exact, id));
                let (a, b) = (exact.remove(id), full.remove(id));
                assert_eq!(a.as_ref().map(record), b.as_ref().map(record));
            } else {
                let id = rng.uniform_usize(0, next_id as usize + 1) as u32;
                let (s, edge) = (sub(id, rng), edge_of(rng));
                rejoins += usize::from(exact.member(s.id).is_some());
                rebuilds += 1 + u64::from(populated_after_leave(&exact, s.id));
                next_id = next_id.max(id + 1);
                exact.insert(s.clone(), edge);
                full.insert(s, edge);
            }
            steps += 1;

            assert_eq!(exact.epoch(), full.epoch());
            assert_eq!(exact.state_digest(), full.state_digest());
            assert_eq!(exact.len(), full.len());
            let members = |pop: &SharedPopulation| -> Vec<(BrokerId, Vec<SubscriptionId>)> {
                pop.groups().map(|(e, g)| (e, g.ids().to_vec())).collect()
            };
            assert_eq!(members(&exact), members(&full));
            for id in (0..=next_id).map(SubscriptionId::new) {
                assert_eq!(exact.slot(id), full.slot(id), "slot {id}");
                assert_eq!(
                    exact.member(id).map(record),
                    full.member(id).map(record),
                    "record {id}"
                );
            }
            assert!(!exact.keeps_covers() && full.keeps_covers());
            assert!(exact.groups().all(|(_, g)| g.covers().is_none()));
            assert!(full.groups().all(|(_, g)| g.covers().is_some()));
            exact.audit_slots().unwrap();
            exact.audit_covers().unwrap();
            full.audit_covers().unwrap();
            assert_eq!(exact.summary_rebuilds(), 0);
            assert_eq!(full.summary_rebuilds(), rebuilds);
        }
    });
    assert!(
        steps >= 1_000 && rejoins >= 100,
        "{steps} steps, {rejoins} re-joins of live ids"
    );
}

/// A copy that crossed a link is routed by the receiver exactly as a scoped
/// arrival over the copy's target ids would be, whatever churn happened
/// while it was in flight. Seeded meshes and populations; broker A builds
/// its copies with a scoped arrival; then, before the copies arrive, some of
/// their ids leave, some re-join at another edge with another price and
/// bound, some re-join at the same edge with another price, and fresh ids
/// join. Every neighbour B then gets its copy as a link arrival, and the
/// outcome must equal B's scoped arrival over the copy's ids: the same
/// local deliveries, the same target ids per neighbour, and per target the
/// same subscriber, price, incarnation, class statistics and class bound.
#[test]
fn a_link_arrival_routes_its_copy_as_a_scoped_arrival_would() {
    use bdps::overlay::sparse::{PopulationHandle, SharedPopulation, SparseTable};
    use std::sync::RwLock;

    /// Per target of a queued copy: what scoring and the next hop read.
    type Row = (
        SubscriptionId,
        SubscriberId,
        Price,
        u32,
        PathStats,
        Duration,
    );
    fn rows(copy: &QueuedMessage) -> Vec<Row> {
        let row = |t: &MatchedTarget| {
            let c = copy.classes[t.class as usize];
            let (stats, bound) = (c.stats, c.allowed_delay);
            (
                t.subscription,
                t.subscriber,
                t.price,
                t.incarnation,
                stats,
                bound,
            )
        };
        copy.targets.iter().map(row).collect()
    }
    fn qos_sub(id: u32, rng: &mut SimRng) -> Subscription {
        let (sid, who) = (SubscriptionId::new(id), SubscriberId::new(id));
        if rng.chance(0.2) {
            return Subscription::best_effort(sid, who, Filter::match_all());
        }
        let bound = DelayBound::from_secs(rng.uniform_usize(5, 40) as u64);
        let price = Price::from_units(rng.uniform_usize(1, 5) as i64);
        Subscription::with_qos(sid, who, Filter::match_all(), QosClass::new(bound, price))
    }
    /// `sub` with another price and bound.
    fn requalified(sub: &Subscription) -> Subscription {
        let bound = DelayBound::from_secs(sub.allowed_delay().as_secs_f64().min(60.0) as u64 + 7);
        let price = sub.price.saturating_add(Price::from_units(1));
        Subscription::with_qos(
            sub.id,
            sub.subscriber,
            sub.filter.clone(),
            QosClass::new(bound, price),
        )
    }

    let (mut carried, mut rejoined_served, mut left_routable) = (0, 0, 0);
    check(0x11_4C_A7, 40, |rng| {
        let n = rng.uniform_usize(4, 9);
        let mut topo_rng = SimRng::seed_from(rng.next_u64());
        let topo = Topology::random_mesh(n, 3.0, &mut topo_rng, LinkQuality::paper_random);
        let routing = Routing::compute(&topo.graph);
        let edge_of = |rng: &mut SimRng| BrokerId::new(rng.uniform_usize(0, n) as u32);
        let members = rng.uniform_usize(40, 120) as u32;
        let subs: Vec<(Subscription, BrokerId)> = (0..members)
            .map(|id| (qos_sub(id, rng), edge_of(rng)))
            .collect();
        let pop: PopulationHandle = Arc::new(RwLock::new(SharedPopulation::from_population(&subs)));
        let config = SchedulerConfig::paper(StrategyKind::MaxEb);
        let broker_at = |b: BrokerId| {
            let table = SparseTable::build(b, &routing, &pop);
            BrokerState::from_overlay(&topo.graph, b, table, config.clone())
        };

        let mut message = Message::builder(MessageId::new(1))
            .publish_time(SimTime::ZERO)
            .size_kb(50.0);
        if rng.chance(0.3) {
            message = message.publisher_bound(DelayBound::from_secs(15));
        }
        let message = Arc::new(message.build());
        let scope_ids: Vec<SubscriptionId> = (0..members)
            .filter(|_| rng.chance(0.8))
            .map(SubscriptionId::new)
            .collect();
        let a = edge_of(rng);
        let mut sender = broker_at(a);
        let sent_at = SimTime::from_millis(rng.uniform_usize(1, 20_000) as u64);
        let scope = ScopeSet::from_sorted(scope_ids.clone());
        sender.handle_arrival_scoped(Arc::clone(&message), sent_at, Some(&scope));

        // Churn while the copies are in flight.
        let mut left = Vec::new();
        let mut rejoined = Vec::new();
        {
            let mut p = pop.write().unwrap();
            for &id in &scope_ids {
                let roll = rng.uniform();
                if roll < 0.1 {
                    let record = p.remove(id).expect("registered");
                    left.push((id, record.edge));
                } else if roll < 0.2 {
                    let record = p.remove(id).expect("registered");
                    p.insert(requalified(&record.subscription), edge_of(rng));
                    rejoined.push(id);
                } else if roll < 0.25 {
                    let record = p.remove(id).expect("registered");
                    p.insert(requalified(&record.subscription), record.edge);
                    rejoined.push(id);
                }
            }
            for id in members..members + rng.uniform_usize(0, 6) as u32 {
                p.insert(qos_sub(id, rng), edge_of(rng));
            }
        }

        let arrived_at = sent_at + Duration::from_millis(rng.uniform_usize(1, 20_000) as u64);
        for b in sender.neighbors() {
            let Some(copy) = sender.queue(b).and_then(|q| q.items().first()) else {
                continue;
            };
            let receiver = broker_at(b);
            let (mut via_link, mut scoped) = (receiver.clone(), receiver.clone());
            let mut link_outcome = ArrivalOutcome::default();
            via_link.arrive_forwarded(&mut link_outcome, copy.clone(), arrived_at);
            let ids = ScopeSet::from_sorted(
                copy.targets
                    .iter()
                    .map(|t| t.subscription)
                    .collect::<Vec<_>>(),
            );
            let scope_outcome =
                scoped.handle_arrival_scoped(Arc::clone(&message), arrived_at, Some(&ids));
            let what = format!("{a} -> {b}");
            assert_eq!(link_outcome.local, scope_outcome.local, "{what}");
            assert_eq!(
                link_outcome.enqueued_to, scope_outcome.enqueued_to,
                "{what}"
            );
            assert_eq!(via_link.counters, scoped.counters, "{what}");
            let mut served = Vec::new();
            for nb in receiver.neighbors() {
                let (q1, q2) = (via_link.queue(nb).unwrap(), scoped.queue(nb).unwrap());
                assert_eq!(q1.len(), q2.len(), "{what} towards {nb}");
                for (c1, c2) in q1.items().iter().zip(q2.items()) {
                    assert_eq!(rows(c1), rows(c2), "{what} towards {nb}");
                    served.extend(c2.targets.iter().map(|t| t.subscription));
                }
            }
            served.extend(scope_outcome.local.iter().map(|d| d.subscription));
            for t in &copy.targets {
                let id = t.subscription;
                if rejoined.contains(&id) {
                    rejoined_served += usize::from(served.contains(&id));
                } else if let Some(&(_, edge)) = left.iter().find(|(gone, _)| *gone == id) {
                    let routable = edge == b || receiver.table().aggregate(edge).is_some();
                    left_routable += usize::from(routable);
                } else {
                    carried += usize::from(served.contains(&id));
                }
            }
        }
    });
    // Every path of the link arrival is exercised: targets routed as
    // carried, re-joined ids re-resolved (another price, bound or edge), and
    // ids that left while their old edge is still served from the receiver.
    assert!(carried >= 1_000, "{carried} carried targets");
    assert!(
        rejoined_served >= 100,
        "{rejoined_served} re-joined targets"
    );
    assert!(left_routable >= 100, "{left_routable} departed targets");
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

/// A metamorphic relation of the paper's model, size against rate: double
/// every message's size and halve every link's rate mean and σ. Scaling by
/// two is exact in binary floating point, so every sampled transfer time,
/// every `fdl` mean and variance, every `FT` and every route is bit-for-bit
/// what it was, and so must the whole run be, digest included, for every
/// paper strategy. No oracle that compares the engine with itself sees a
/// term that reads the size without the rate (as `FT` once did, at a fixed
/// 50 KB). Link means stay far above `MIN_RATE_MS_PER_KB`, the floor of
/// rate sampling, which does not scale.
#[test]
fn doubling_sizes_and_halving_link_rates_leaves_every_run_unchanged() {
    let run = |strategy: StrategyKind, scenario: &str, scale: f64| {
        let mut rng = SimRng::seed_from(17);
        let mesh = bdps::overlay::topology::LayeredMeshConfig::small();
        let topology = Topology::layered_mesh(&mesh, &mut rng, |rng| {
            LinkQuality::normal(rng.uniform_range(40.0, 80.0) / scale, 8.0 / scale)
        })
        .expect("valid mesh");
        let mut workload = WorkloadConfig::paper_ssd(20.0);
        workload.message_size_kb *= scale;
        workload.duration = Duration::from_secs(300);
        Simulation::builder()
            .workload(workload)
            .strategy(strategy)
            .scenario_named(scenario)
            .expect("builtin scenario")
            .try_build_on(topology, SimRng::seed_from(5))
            .expect("valid run")
            .run()
    };
    for scenario in ["static", "chaos"] {
        for strategy in StrategyKind::ALL {
            let (base, scaled) = (run(strategy, scenario, 1.0), run(strategy, scenario, 2.0));
            assert!(base.tracker.total_on_time() > 0, "the run must deliver");
            assert_eq!(
                base.replay_state(),
                scaled.replay_state(),
                "{} under {scenario} moved with the size/rate scale",
                strategy.label()
            );
        }
    }
}
