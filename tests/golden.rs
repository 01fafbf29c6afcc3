//! Golden-report regression tests.
//!
//! These pin the *exact* metrics of fixed-seed runs across all five paper
//! strategies, so any refactor that silently changes seed behaviour —
//! event ordering, RNG stream discipline, matching semantics — shows up as
//! a loud diff instead of a quiet drift. The numbers were produced by the
//! simulator itself; when a change is *intended* to alter seed behaviour,
//! rerun the configuration below and update the table in the same commit.
//!
//! The configuration is a congested small mesh (publishing rate 20/min on
//! the small layered mesh) so the five strategies genuinely differentiate;
//! on an idle network they all pick the same messages and the golden values
//! would not distinguish them.

use bdps::core::config::StrategyKind;
use bdps::overlay::topology::LayeredMeshConfig;
use bdps::prelude::*;

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    published: u64,
    interested: u64,
    on_time: u64,
    late: u64,
    /// Total earning in thousandths of a price unit (exact integer compare).
    earning_milli: i64,
    message_number: u64,
    transmissions: u64,
    dropped_expired: u64,
    dropped_unlikely: u64,
}

fn golden_run(strategy: StrategyKind) -> SimulationReport {
    Simulation::builder()
        .layered_mesh(LayeredMeshConfig::small())
        .ssd(20.0)
        .duration(Duration::from_secs(300))
        .strategy(strategy)
        .seed(42)
        .report()
}

fn observed(report: &SimulationReport) -> Golden {
    Golden {
        published: report.published,
        interested: report.interested,
        on_time: report.on_time,
        late: report.late,
        earning_milli: (report.total_earning * 1000.0).round() as i64,
        message_number: report.message_number,
        transmissions: report.transmissions,
        dropped_expired: report.dropped_expired,
        dropped_unlikely: report.dropped_unlikely,
    }
}

/// The frozen seed-42 behaviour of every paper strategy (static scenario).
///
/// `published`/`interested` are identical across strategies: publication
/// schedules draw from per-publisher RNG streams (not the global stream),
/// so the offered load is a property of the workload alone and only the
/// scheduling outcomes differ.
fn golden_table() -> Vec<(StrategyKind, Golden)> {
    vec![
        (
            StrategyKind::MaxEb,
            Golden {
                published: 204,
                interested: 428,
                on_time: 379,
                late: 22,
                earning_milli: 741000,
                message_number: 599,
                transmissions: 395,
                dropped_expired: 21,
                dropped_unlikely: 3,
            },
        ),
        (
            StrategyKind::MaxPc,
            Golden {
                published: 204,
                interested: 428,
                on_time: 371,
                late: 34,
                earning_milli: 719000,
                message_number: 603,
                transmissions: 399,
                dropped_expired: 19,
                dropped_unlikely: 3,
            },
        ),
        (
            StrategyKind::MaxEbpc,
            Golden {
                published: 204,
                interested: 428,
                on_time: 379,
                late: 23,
                earning_milli: 741000,
                message_number: 600,
                transmissions: 396,
                dropped_expired: 20,
                dropped_unlikely: 3,
            },
        ),
        (
            StrategyKind::Fifo,
            Golden {
                published: 204,
                interested: 428,
                on_time: 348,
                late: 58,
                earning_milli: 654000,
                message_number: 605,
                transmissions: 401,
                dropped_expired: 21,
                dropped_unlikely: 0,
            },
        ),
        (
            StrategyKind::RemainingLifetime,
            Golden {
                published: 204,
                interested: 428,
                on_time: 334,
                late: 71,
                earning_milli: 621000,
                message_number: 611,
                transmissions: 407,
                dropped_expired: 17,
                dropped_unlikely: 0,
            },
        ),
    ]
}

#[test]
fn seed_42_metrics_match_the_golden_table_for_all_five_strategies() {
    for (strategy, expected) in golden_table() {
        let report = golden_run(strategy);
        assert_eq!(report.dynamics, "static");
        assert_eq!(
            observed(&report),
            expected,
            "seed behaviour of {} drifted — if intentional, regenerate the golden table",
            strategy.label()
        );
    }
}

#[test]
fn golden_config_differentiates_the_strategies() {
    // Guard against the golden setup degenerating into an uncongested run
    // where every strategy behaves identically (which would make the table
    // above meaningless as a strategy-level regression net).
    let table = golden_table();
    let distinct: std::collections::HashSet<i64> =
        table.iter().map(|(_, g)| g.earning_milli).collect();
    assert!(
        distinct.len() >= 3,
        "goldens should separate strategies, got {distinct:?}"
    );
}

#[test]
fn golden_runs_are_stable_within_a_process() {
    // The same builder invocation twice must reproduce the exact report —
    // the in-process half of the replay guarantee the golden table rests on.
    let a = golden_run(StrategyKind::MaxEb);
    let b = golden_run(StrategyKind::MaxEb);
    assert_eq!(a, b);
}

/// Frozen seed-42 behaviour of the `link-flap` dynamic scenario, pinned for
/// a link-model strategy and a baseline. Like the static table above, these
/// numbers came from the simulator itself; regenerate them in the same
/// commit as any intended seed-behaviour change.
#[derive(Debug, PartialEq, Eq)]
struct LinkFlapGolden {
    golden: Golden,
    requeued: u64,
}

fn link_flap_golden_table() -> Vec<(StrategyKind, LinkFlapGolden)> {
    vec![
        (
            StrategyKind::MaxEb,
            LinkFlapGolden {
                golden: Golden {
                    published: 204,
                    interested: 428,
                    on_time: 374,
                    late: 29,
                    earning_milli: 723000,
                    message_number: 598,
                    transmissions: 395,
                    dropped_expired: 19,
                    dropped_unlikely: 5,
                },
                requeued: 1,
            },
        ),
        (
            StrategyKind::Fifo,
            LinkFlapGolden {
                golden: Golden {
                    published: 204,
                    interested: 428,
                    on_time: 369,
                    late: 38,
                    earning_milli: 710000,
                    message_number: 606,
                    transmissions: 403,
                    dropped_expired: 20,
                    dropped_unlikely: 0,
                },
                requeued: 1,
            },
        ),
    ]
}

#[test]
fn seed_42_link_flap_metrics_are_pinned() {
    // A link-failure scenario drives the routing/table repair machinery:
    // route deltas and the aggregate patches that follow them.
    for (strategy, expected) in link_flap_golden_table() {
        let report = Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(20.0)
            .duration(Duration::from_secs(300))
            .strategy(strategy)
            .scenario_named("link-flap")
            .expect("link-flap is a builtin scenario")
            .seed(42)
            .report();
        assert_eq!(report.dynamics, "link-flap");
        let observed = LinkFlapGolden {
            golden: observed(&report),
            requeued: report.requeued,
        };
        assert_eq!(
            observed,
            expected,
            "{} drifted from the link-flap goldens",
            strategy.label()
        );
    }
}

/// Frozen seed-42 behaviour of the `chaos` scenario (churn + bursts + link
/// failures — every dynamic table-maintenance path at once), pinned for a
/// link-model strategy and a baseline. Like the tables above, these numbers
/// came from the simulator itself; regenerate them in the same commit as any
/// intended seed-behaviour change.
#[derive(Debug, PartialEq, Eq)]
struct ChaosGolden {
    golden: Golden,
    dropped_unsubscribed: u64,
    requeued: u64,
}

fn chaos_golden_table() -> Vec<(StrategyKind, ChaosGolden)> {
    vec![
        (
            StrategyKind::MaxEb,
            ChaosGolden {
                golden: Golden {
                    published: 204,
                    interested: 443,
                    on_time: 371,
                    late: 35,
                    earning_milli: 731000,
                    message_number: 601,
                    transmissions: 398,
                    dropped_expired: 21,
                    dropped_unlikely: 7,
                },
                dropped_unsubscribed: 1,
                requeued: 1,
            },
        ),
        (
            StrategyKind::Fifo,
            ChaosGolden {
                golden: Golden {
                    published: 204,
                    interested: 443,
                    on_time: 338,
                    late: 59,
                    earning_milli: 651000,
                    message_number: 603,
                    transmissions: 400,
                    dropped_expired: 31,
                    dropped_unlikely: 0,
                },
                dropped_unsubscribed: 0,
                requeued: 1,
            },
        ),
    ]
}

#[test]
fn seed_42_chaos_metrics_are_pinned() {
    // Chaos drives churn (shared-registry inserts/removals, queue
    // stripping) interleaved with link repairs (aggregate patching).
    for (strategy, expected) in chaos_golden_table() {
        let report = Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(20.0)
            .duration(Duration::from_secs(300))
            .strategy(strategy)
            .scenario_named("chaos")
            .expect("chaos is a builtin scenario")
            .seed(42)
            .report();
        assert_eq!(report.dynamics, "chaos");
        let observed = ChaosGolden {
            golden: observed(&report),
            dropped_unsubscribed: report.dropped_unsubscribed,
            requeued: report.requeued,
        };
        assert_eq!(
            observed,
            expected,
            "{} drifted from the chaos goldens",
            strategy.label()
        );
    }
}
