//! Helpers shared by the differential-oracle suites: the differential grid
//! ([`grid`], run by `rebuild_equivalence.rs`, `layout_equivalence.rs` and
//! `shard_equivalence.rs`) and its flap storm, the forwarding
//! delivery-set oracle (`forwarding_equivalence.rs`) and the fair-share
//! physics tests (`linkmodel_equivalence.rs`). [`run_with_checks`] is the
//! one stepping loop they audit runs with.

pub mod grid;

use bdps::prelude::*;
use bdps::sim::engine::EventKind;
use std::collections::BTreeMap;

/// The delivery set of a finished run: every `(message, subscriber)` pair
/// delivered (on time or late), sorted. This is the oracle currency of the
/// forwarding suite — aggregate forwarding may reshape traffic, but the
/// delivery set must be exactly the exact-mode one.
#[allow(dead_code)]
pub fn delivered_pairs(outcome: &SimulationOutcome) -> Vec<(u64, u32)> {
    outcome
        .tracker
        .delivered_pairs()
        .into_iter()
        .map(|(m, s)| (m.raw(), s.raw()))
        .collect()
}

/// Directed link count of the small layered mesh the oracle suites run on
/// (the storm generator needs the id range to toggle).
#[allow(dead_code)] // each test binary uses its own subset of the helpers
pub fn small_mesh_link_count() -> u32 {
    let mut rng = SimRng::seed_from(1);
    let topo = bdps::overlay::topology::Topology::layered_mesh(
        &bdps::overlay::topology::LayeredMeshConfig::small(),
        &mut rng,
        bdps::net::link::LinkQuality::paper_random,
    )
    .unwrap();
    topo.graph.link_count() as u32
}

/// Builds the adversarial "flap storm": hundreds of seeded random link
/// events, deliberately including same-instant floods (exercising the
/// engine's rebuild coalescing with mixed down/up batches), nested
/// multi-depth failures (a link downed twice needs two recoveries), flaps
/// fully contained between two events, and unbalanced downs that leave
/// links dead at the horizon. This is the adversarial case the random
/// scenario processes do not reach; the differential grid and the
/// fair-share suite run the *same* storm so a generator change can never
/// weaken one of them silently.
#[allow(dead_code)] // each test binary uses its own subset of the helpers
pub fn flap_storm(seed: u64, links: u32, horizon_secs: u64) -> DynamicScenario {
    let mut rng = SimRng::seed_from(seed ^ 0xF1A9_5708);
    let mut scenario = DynamicScenario::named("flap-storm");
    let mut events = 0u32;
    // Same-instant floods: at a handful of instants, toggle many links at
    // once so the engine's coalescing (defer the rebuild to the batch's last
    // link event) is exercised with mixed down/up batches.
    for _ in 0..6 {
        let at = Duration::from_secs(rng.uniform_usize(1, horizon_secs as usize) as u64);
        for _ in 0..rng.uniform_usize(10, 30) {
            let link = LinkId::new(rng.uniform_usize(0, links as usize) as u32);
            let down = rng.chance(0.55);
            scenario = scenario.at(
                at,
                if down {
                    ScenarioAction::LinkDown { link }
                } else {
                    ScenarioAction::LinkUp { link }
                },
            );
            events += 1;
        }
    }
    // Nested failures: the same link downed 2-3 times, recovered one depth
    // at a time at later instants (possibly never fully).
    for _ in 0..10 {
        let link = LinkId::new(rng.uniform_usize(0, links as usize) as u32);
        let depth = rng.uniform_usize(2, 4);
        let at = rng.uniform_usize(1, horizon_secs as usize);
        for _ in 0..depth {
            scenario = scenario.at(
                Duration::from_secs(at as u64),
                ScenarioAction::LinkDown { link },
            );
            events += 1;
        }
        let ups = rng.uniform_usize(0, depth + 1);
        for k in 0..ups {
            let later = at + rng.uniform_usize(1, 40) + k;
            scenario = scenario.at(
                Duration::from_secs(later.min(horizon_secs as usize) as u64),
                ScenarioAction::LinkUp { link },
            );
            events += 1;
        }
    }
    // A background of independent short flaps, some fully contained between
    // two transfer completions.
    for _ in 0..120 {
        let link = LinkId::new(rng.uniform_usize(0, links as usize) as u32);
        let at = rng.uniform_usize(1, horizon_secs as usize);
        let up = at + rng.uniform_usize(1, 20);
        scenario = scenario.at(
            Duration::from_secs(at as u64),
            ScenarioAction::LinkDown { link },
        );
        scenario = scenario.at(
            Duration::from_secs(up.min(horizon_secs as usize) as u64),
            ScenarioAction::LinkUp { link },
        );
        events += 2;
    }
    assert!(events >= 300, "the storm must be a storm, got {events}");
    scenario
}

/// When [`run_with_checks`] calls its check.
#[allow(dead_code)] // each test binary uses its own subset of the helpers
#[derive(Clone, Copy)]
pub enum Audit {
    /// After every event of every instant that holds a scenario event.
    ScenarioInstants,
    /// After every `n`-th event.
    Every(u64),
}

/// Runs `sim` to its hard stop with the engine's own stepping, calling
/// `check` when `audit` says and once more at the end; the run panics,
/// naming `what` and the instant, on the first error it returns. Returns
/// the outcome.
///
/// Beside `check`, the loop keeps its own record of who is subscribed
/// where, folded from the joins and leaves it sees in each frontier, and
/// holds the engine's registry to it after every instant that churned.
#[allow(dead_code)] // each test binary uses its own subset of the helpers
pub fn run_with_checks(
    mut sim: Simulation,
    what: &str,
    audit: Audit,
    mut check: impl FnMut(&Simulation) -> std::result::Result<(), String>,
) -> SimulationOutcome {
    let stop = sim.hard_stop();
    let mut applied = 0u64;
    let mut members: BTreeMap<SubscriptionId, BrokerId> = sim
        .subscriptions()
        .into_iter()
        .map(|(sub, edge)| (sub.id, edge))
        .collect();
    loop {
        // Look at the next instant and put it back whole, so the engine's
        // same-instant rebuild coalescing peeks at the batch it sees in
        // `run`.
        let frontier = sim.take_frontier(stop);
        let Some(now) = frontier.first().map(|e| e.time) else {
            break;
        };
        // The frontier is in application order, and a join of a live id
        // moves it: the map's insert is the engine's leave-then-join.
        let (mut has_scenario, mut churned) = (false, false);
        for event in &frontier {
            let EventKind::Scenario { action } = &event.item else {
                continue;
            };
            has_scenario = true;
            match action {
                ScenarioAction::SubscriptionJoin {
                    subscription,
                    broker,
                } => members.insert(subscription.id, *broker),
                ScenarioAction::SubscriptionLeave { subscription } => members.remove(subscription),
                _ => continue,
            };
            churned = true;
        }
        for event in frontier {
            sim.push_back(event);
        }
        while sim.step_next(now) {
            applied += 1;
            let due = match audit {
                Audit::ScenarioInstants => has_scenario,
                Audit::Every(n) => applied.is_multiple_of(n),
            };
            if due {
                check(&sim).unwrap_or_else(|e| panic!("{what}: audit failed at {now}: {e}"));
            }
        }
        if churned {
            let registered: Vec<(SubscriptionId, BrokerId)> = sim
                .subscriptions()
                .into_iter()
                .map(|(sub, edge)| (sub.id, edge))
                .collect();
            let expected: Vec<(SubscriptionId, BrokerId)> =
                members.iter().map(|(id, edge)| (*id, *edge)).collect();
            assert_eq!(
                registered, expected,
                "{what}: the registry disagrees with the joins and leaves applied at {now}"
            );
        }
    }
    check(&sim).unwrap_or_else(|e| panic!("{what}: audit failed at the hard stop: {e}"));
    assert!(applied > 0, "{what}: the run applied no event");
    sim.into_outcome()
}
