//! The differential grid: the small-mesh runs the oracles hold to, as one
//! table of rows that each suite runs with its own [`Check`]s.
//!
//! A [`Row`] is a builder [`Recipe`] — forwarding mode, SSD publishing
//! rate, duration, strategy and when its stepped runs are audited — plus
//! the scenario it runs, its seeds and the [`Guard`]s its runs must pass so
//! that no check is vacuous. Every run must also conserve every copy and
//! deliver no pair twice. The rows here are the registry's `link-flap`,
//! `blackout`, `churn` and `chaos` on seeds 1–10 of the small mesh at
//! SSD 12 for 240 s under EBPC, and the hand-built flap storm on the same
//! build. `rebuild_equivalence` runs every row with the table audits and
//! the plain run, `layout_equivalence` runs `link-flap`, `blackout`,
//! `chaos` and the storm with the dense layout, and `shard_equivalence`
//! runs `link-flap`, `churn`, `chaos` and a heavier churn row with the
//! shards.
#![allow(dead_code)] // each test binary uses its own subset of the grid

use bdps::overlay::sparse::ResolvedEntry;
use bdps::overlay::subtable::SubscriptionTable;
use bdps::overlay::topology::LayeredMeshConfig;
use bdps::prelude::*;

use super::{flap_storm, run_with_checks, small_mesh_link_count, Audit};

/// A check a suite runs a row with. The first two share one stepped pass.
#[derive(Clone, Copy, PartialEq)]
pub enum Check {
    /// At the recipe's [`Audit`] instants, [`Simulation::audit_tables`]
    /// holds the registry to the population list, routing, every broker's
    /// table and every envelope to from-scratch rebuilds, so a patch that
    /// skips one destination fails at the instant it happens.
    Tables,
    /// At the same instants every broker's table must resolve the whole
    /// population to exactly the rows of the dense `SubscriptionTable`
    /// built from scratch, routed fields included.
    DenseLayout,
    /// The stepped run ends in exactly the
    /// [`replay_state`](SimulationOutcome::replay_state) of a plain `run()`
    /// of the same build, so the stepping did not perturb what it audited.
    PlainRun,
    /// `run_sharded` at 2, 4 and 8 shards reproduces the sequential run's
    /// replay state bit for bit; 8 exceeds the small mesh's per-layer broker
    /// counts, so some shards own a single broker.
    Shards,
}

/// What a row's runs must have done for its checks to bite.
#[derive(Clone, Copy, Debug)]
pub enum Guard {
    /// Link events moved routes and retargeted aggregates.
    RoutesMoved,
    /// Leaves orphaned queued copies.
    LeavesOrphaned,
    /// Link events voided transfers in flight.
    Requeued,
    /// Something was delivered on time.
    OnTime,
}

impl Guard {
    fn holds(self, outcome: &SimulationOutcome) -> bool {
        match self {
            Guard::RoutesMoved => {
                outcome.route_trees_recomputed > 0
                    && outcome.route_pairs_changed > 0
                    && outcome.entries_retargeted > 0
            }
            Guard::LeavesOrphaned => outcome.dropped_unsubscribed() > 0,
            Guard::Requeued => outcome.requeued() > 0,
            Guard::OnTime => outcome.tracker.total_on_time() > 0,
        }
    }
}

/// How a row's runs are built.
#[derive(Clone, Copy)]
pub struct Recipe {
    pub forwarding: ForwardingMode,
    /// SSD publishing rate, messages per publisher per minute.
    pub rate: f64,
    pub secs: u64,
    pub strategy: StrategyKind,
    /// When a stepped run is audited.
    pub audit: Audit,
}

/// The build every oracle runs on: the small mesh, congested at SSD 12,
/// for 240 s under EBPC.
pub const SMALL_MESH: Recipe = Recipe {
    forwarding: ForwardingMode::Exact,
    rate: 12.0,
    secs: 240,
    strategy: StrategyKind::MaxEbpc,
    audit: Audit::ScenarioInstants,
};

#[derive(Clone, Copy, Debug)]
pub enum Scenario {
    Named(&'static str),
    /// [`flap_storm`] over the recipe's duration, seeded by the run's seed.
    FlapStorm,
    /// Churn alone, this many joins and as many leaves per minute.
    Churn(f64),
}

/// How many of a row's runs each of its guards must hold on.
#[derive(Clone, Copy)]
pub enum Quorum {
    SomeRun,
    EveryRun,
}

pub struct Row {
    pub recipe: Recipe,
    pub scenario: Scenario,
    pub seeds: &'static [u64],
    pub guards: &'static [Guard],
    pub quorum: Quorum,
}

/// A small-mesh row over seeds 1–10 of a registry scenario.
const fn seeds_1_to_10(name: &'static str, guards: &'static [Guard], quorum: Quorum) -> Row {
    Row {
        recipe: SMALL_MESH,
        scenario: Scenario::Named(name),
        seeds: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        guards,
        quorum,
    }
}

pub const LINK_FLAP: Row = seeds_1_to_10("link-flap", &[Guard::RoutesMoved], Quorum::SomeRun);

/// The mass transition: every remote route disappears when the mesh goes
/// dark and must reappear with fresh routed fields on recovery.
pub const BLACKOUT: Row = seeds_1_to_10("blackout", &[Guard::RoutesMoved], Quorum::EveryRun);

/// Joins register once globally and expand at the edge; leaves strip
/// queued copies and drop the route towards an emptied group. The guard
/// holds on only some seeds, so it cannot be per run.
pub const CHURN: Row = seeds_1_to_10("churn", &[Guard::LeavesOrphaned], Quorum::SomeRun);

/// Thirty joins and thirty leaves a minute: at this rate leaves orphan
/// queued copies on every seed, so the leave-stripping path runs in each.
pub const HEAVY_CHURN: Row = Row {
    recipe: SMALL_MESH,
    scenario: Scenario::Churn(30.0),
    seeds: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    guards: &[Guard::LeavesOrphaned],
    quorum: Quorum::EveryRun,
};

/// Churn, bursts and link failures interleaved: a join during an outage
/// must patch in on recovery.
pub const CHAOS: Row = seeds_1_to_10("chaos", &[Guard::RoutesMoved], Quorum::SomeRun);

/// The storm's same-instant floods are where an incremental patch does
/// least like a from-scratch build.
pub const FLAP_STORM: Row = Row {
    recipe: SMALL_MESH,
    scenario: Scenario::FlapStorm,
    seeds: &[3, 7, 11],
    guards: &[Guard::Requeued, Guard::RoutesMoved],
    quorum: Quorum::EveryRun,
};

impl Recipe {
    pub fn builder(&self, scenario: &DynamicScenario, seed: u64) -> SimulationBuilder {
        Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(self.rate)
            .duration(Duration::from_secs(self.secs))
            .strategy(self.strategy)
            .forwarding(self.forwarding)
            .scenario(scenario.clone())
            .seed(seed)
    }

    /// Runs this recipe under `scenario` with `checks` and returns the run:
    /// stepped when a check audits it, plain otherwise.
    pub fn run(
        &self,
        scenario: &DynamicScenario,
        seed: u64,
        checks: &[Check],
    ) -> SimulationOutcome {
        let build = self.builder(scenario, seed);
        let what = format!("{scenario}, seed {seed}");
        let tables = checks.contains(&Check::Tables);
        let dense = checks.contains(&Check::DenseLayout);
        let outcome = if tables || dense {
            let stepped = run_with_checks(build.build(), &what, self.audit, |sim| {
                if tables {
                    sim.audit_tables()?;
                }
                if dense {
                    tables_match_the_dense_layout(sim)?;
                }
                Ok(())
            });
            if checks.contains(&Check::PlainRun) {
                assert_eq!(
                    build.run().replay_state(),
                    stepped.replay_state(),
                    "the stepped run drifted from the plain run ({what})"
                );
            }
            stepped
        } else {
            build.run()
        };
        if checks.contains(&Check::Shards) {
            for shards in [2, 4, 8] {
                assert_eq!(
                    bdps::sim::run_sharded(build.build(), shards).replay_state(),
                    outcome.replay_state(),
                    "the {shards}-shard run drifted from the sequential run ({what})"
                );
            }
        }
        outcome.check_conservation().unwrap();
        outcome.check_no_duplicates().unwrap();
        outcome
    }
}

/// Holds every broker's live table to a dense table built from scratch
/// over the registered population, against the routing the live table was
/// last rebuilt on: scoped resolution of every registered subscription must
/// give the dense rows.
fn tables_match_the_dense_layout(sim: &Simulation) -> std::result::Result<(), String> {
    let subs = sim.subscriptions();
    let scope = ScopeSet::from_unsorted(subs.iter().map(|(sub, _)| sub.id).collect());
    sim.tables().try_for_each(|table| {
        let broker = table.broker();
        let dense = SubscriptionTable::build(broker, sim.routing(), &subs);
        let mut resolved: Vec<ResolvedEntry> = Vec::new();
        table.resolve_scope(&scope, |e, _| resolved.push(e));
        let expected: Vec<ResolvedEntry> = scope
            .iter()
            .filter_map(|id| dense.entry(id).map(ResolvedEntry::from_entry))
            .collect();
        if resolved != expected {
            let first = resolved.iter().zip(&expected).position(|(a, b)| a != b);
            return Err(format!(
                "broker {broker} resolves the population to {} rows, the dense layout to {} \
                 (first difference at row {first:?})",
                resolved.len(),
                expected.len()
            ));
        }
        Ok(())
    })
}

/// Runs every seed of `row` with `checks`, one thread each, and holds the
/// runs to the row's guards.
pub fn run_row(row: &Row, checks: &[Check]) {
    let outcomes: Vec<SimulationOutcome> = std::thread::scope(|s| {
        let runs: Vec<_> = row
            .seeds
            .iter()
            .map(|&seed| {
                s.spawn(move || {
                    let scenario = match row.scenario {
                        Scenario::Named(name) => DynamicScenario::from_name(name)
                            .unwrap_or_else(|| panic!("{name} is a builtin scenario")),
                        Scenario::FlapStorm => {
                            flap_storm(seed, small_mesh_link_count(), row.recipe.secs)
                        }
                        Scenario::Churn(per_min) => DynamicScenario::named("heavy-churn")
                            .with_churn(ChurnConfig {
                                joins_per_min: per_min,
                                leaves_per_min: per_min,
                            }),
                    };
                    row.recipe.run(&scenario, seed, checks)
                })
            })
            .collect();
        runs.into_iter()
            .map(|run| run.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let needed = match row.quorum {
        Quorum::SomeRun => 1,
        Quorum::EveryRun => outcomes.len(),
    };
    for guard in row.guards {
        let held = outcomes.iter().filter(|o| guard.holds(o)).count();
        assert!(
            held >= needed,
            "{:?}: {guard:?} held on {held} of {} runs, so the checks may never have bitten",
            row.scenario,
            outcomes.len()
        );
    }
}
