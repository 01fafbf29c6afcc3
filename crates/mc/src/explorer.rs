//! The bounded exhaustive DFS explorer and the counterexample replayer.
//!
//! [`explore`] walks **every** ordering of same-instant pending events of a
//! [`McModel`] under one [`CheckCell`], checking the protocol invariants
//! after every applied event and at every quiescent terminal. Branches that
//! converge onto an already-visited full-state digest are pruned, so
//! commuting event pairs cost one exploration instead of two.
//!
//! The walk is sound because every engine handler schedules its successors
//! strictly later than the event it handles (processing delays and transfer
//! times are positive, the next publication fires one gap later), so the
//! frontier at an instant is fixed once the clock reaches it: permuting the
//! frontier covers all same-instant interleavings, and recursing through
//! every frontier covers the model.
//!
//! On a violation the offending branch choices are greedily minimised back
//! towards the default (first-scheduled) order and packaged as a
//! [`Counterexample`]; [`replay`] re-drives the engine down exactly that
//! path, so traces double as permanent regression tests.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use bdps_sim::engine::{ConservationViolation, DuplicateDeliveryViolation, EventKind, Simulation};
use bdps_sim::sched::Scheduled;

use crate::model::{CheckCell, McModel};
use crate::trace::{ChoiceRecord, Counterexample};

/// Exploration budgets. Tiny models finish far inside the defaults; hitting
/// a budget is reported as [`InvariantViolation::BudgetExhausted`] so an
/// accidentally huge model fails loudly instead of silently passing a
/// partial search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreBudget {
    /// Maximum events applied along any single path.
    pub max_depth: usize,
    /// Maximum events applied across the whole search.
    pub max_states: u64,
}

impl Default for ExploreBudget {
    fn default() -> Self {
        ExploreBudget {
            max_depth: 4_096,
            max_states: 500_000,
        }
    }
}

/// Search accounting reported by [`explore`].
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Events applied across all branches (post-dedup states visited).
    pub states: u64,
    /// Branches abandoned because their state digest was already visited.
    pub deduped: u64,
    /// Quiescent terminal states reached and checked.
    pub terminals: u64,
    /// Frontiers with at least two same-instant events (real branch points).
    pub branch_points: u64,
    /// Largest same-instant frontier seen.
    pub max_frontier: usize,
    /// Deepest path explored, in applied events.
    pub max_depth: usize,
    /// Distinct delivered `(message, subscriber)` pair sets observed at the
    /// terminals, as raw id pairs in sorted order. Unlike the full digests —
    /// which legitimately differ between forwarding modes (traffic counters,
    /// scope contents) — the set of delivery sets must be identical between
    /// exact and aggregate forwarding in every interleaving: the
    /// aggregate-forwarding delivery-set oracle at model-checking depth.
    pub terminal_delivery_sets: BTreeSet<Vec<(u64, u32)>>,
}

/// A protocol invariant the explorer found violated (or a blown budget).
#[derive(Debug, Clone)]
pub enum InvariantViolation {
    /// A (message, subscriber) pair was delivered more than once.
    DuplicateDelivery(DuplicateDeliveryViolation),
    /// A queue or transfer conservation balance broke.
    Conservation(ConservationViolation),
    /// Routing or a broker table diverged from a from-scratch rebuild.
    TableAudit(String),
    /// The model required full drainage but quiescence left copies behind.
    Stranded {
        /// Copies still in output queues.
        queued: u64,
        /// Copies still in flight on links.
        in_flight: u64,
        /// Copies still inside a broker's processing module.
        pending_process: u64,
    },
    /// The search exceeded its budget — the model is too large to check
    /// exhaustively, which for a tiny model is an authoring error.
    BudgetExhausted {
        /// Events applied when the budget tripped.
        states: u64,
        /// Path depth when the budget tripped.
        depth: usize,
    },
}

impl InvariantViolation {
    /// Stable machine-readable discriminant name, used to decide whether a
    /// minimised trace still reproduces "the same" violation.
    pub fn kind(&self) -> &'static str {
        match self {
            InvariantViolation::DuplicateDelivery(_) => "duplicate-delivery",
            InvariantViolation::Conservation(_) => "conservation",
            InvariantViolation::TableAudit(_) => "table-audit",
            InvariantViolation::Stranded { .. } => "stranded",
            InvariantViolation::BudgetExhausted { .. } => "budget-exhausted",
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::DuplicateDelivery(v) => write!(f, "{v}"),
            InvariantViolation::Conservation(v) => write!(f, "{v}"),
            InvariantViolation::TableAudit(msg) => write!(f, "table audit failed: {msg}"),
            InvariantViolation::Stranded {
                queued,
                in_flight,
                pending_process,
            } => write!(
                f,
                "copies stranded at quiescence: {queued} queued, {in_flight} in flight, \
                 {pending_process} mid-processing"
            ),
            InvariantViolation::BudgetExhausted { states, depth } => write!(
                f,
                "exploration budget exhausted after {states} states at depth {depth}"
            ),
        }
    }
}

/// The outcome of exhaustively exploring one model under one cell.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The cell explored.
    pub cell: CheckCell,
    /// Search accounting.
    pub stats: ExploreStats,
    /// The first violation found, minimised and replayable; `None` when
    /// every interleaving upheld every invariant.
    pub counterexample: Option<Counterexample>,
}

impl Exploration {
    /// True when no interleaving violated any invariant.
    pub fn ok(&self) -> bool {
        self.counterexample.is_none()
    }
}

struct Ctx<'a> {
    budget: &'a ExploreBudget,
    stats: ExploreStats,
    seen: HashSet<u64>,
    path: Vec<ChoiceRecord>,
    require_quiescence: bool,
}

/// Exhaustively explores every same-instant interleaving of `model` under
/// `cell`, checking every invariant after every event.
pub fn explore(model: &McModel, cell: CheckCell, budget: &ExploreBudget) -> Exploration {
    let mut ctx = Ctx {
        budget,
        stats: ExploreStats::default(),
        seen: HashSet::new(),
        path: Vec::new(),
        require_quiescence: model.require_quiescence,
    };
    let result = dfs(model.build(cell), 0, &mut ctx);
    let Ctx { stats, path, .. } = ctx;
    let counterexample = result
        .err()
        .map(|violation| build_counterexample(model, cell, violation, path));
    Exploration {
        cell,
        stats,
        counterexample,
    }
}

fn dfs(mut sim: Simulation, mut depth: usize, ctx: &mut Ctx<'_>) -> Result<(), InvariantViolation> {
    loop {
        if depth > ctx.stats.max_depth {
            ctx.stats.max_depth = depth;
        }
        if depth > ctx.budget.max_depth {
            return Err(InvariantViolation::BudgetExhausted {
                states: ctx.stats.states,
                depth,
            });
        }
        let frontier = sim.take_frontier(sim.hard_stop());
        if frontier.is_empty() {
            ctx.stats.terminals += 1;
            ctx.stats.terminal_delivery_sets.insert(
                sim.tracker()
                    .delivered_pairs()
                    .into_iter()
                    .map(|(m, s)| (m.raw(), s.raw()))
                    .collect(),
            );
            return check_terminal(&sim, ctx.require_quiescence);
        }
        if frontier.len() > ctx.stats.max_frontier {
            ctx.stats.max_frontier = frontier.len();
        }
        if frontier.len() == 1 {
            let ev = frontier.into_iter().next().expect("frontier has one event");
            step(&mut sim, ev, depth, ctx)?;
            if !ctx.seen.insert(sim.state_digest()) {
                ctx.stats.deduped += 1;
                return Ok(());
            }
            depth += 1;
            continue;
        }

        ctx.stats.branch_points += 1;
        let labels: Vec<String> = frontier.iter().map(|e| e.item.label()).collect();
        let time_us = frontier[0].time.as_micros();
        for i in 0..frontier.len() {
            let mut branch = sim.fork();
            for (j, ev) in frontier.iter().enumerate() {
                if j != i {
                    branch.push_back(ev.clone());
                }
            }
            ctx.path.push(ChoiceRecord {
                time_us,
                chosen: labels[i].clone(),
                alternatives: labels.clone(),
            });
            let mut result = step(&mut branch, frontier[i].clone(), depth, ctx);
            if result.is_ok() {
                if !ctx.seen.insert(branch.state_digest()) {
                    ctx.stats.deduped += 1;
                } else {
                    result = dfs(branch, depth + 1, ctx);
                }
            }
            // On a violation the recorded path IS the counterexample prefix:
            // leave it in place and unwind.
            result?;
            ctx.path.pop();
        }
        return Ok(());
    }
}

fn step(
    sim: &mut Simulation,
    event: Scheduled<EventKind>,
    depth: usize,
    ctx: &mut Ctx<'_>,
) -> Result<(), InvariantViolation> {
    sim.apply(event);
    ctx.stats.states += 1;
    if ctx.stats.states > ctx.budget.max_states {
        return Err(InvariantViolation::BudgetExhausted {
            states: ctx.stats.states,
            depth,
        });
    }
    check_step(sim)
}

/// The per-event invariants: no duplicate delivery so far, both conservation
/// balances on the live snapshot, and table/routing agreement with a
/// from-scratch rebuild.
fn check_step(sim: &Simulation) -> Result<(), InvariantViolation> {
    let outcome = sim.outcome_snapshot();
    outcome
        .check_no_duplicates()
        .map_err(InvariantViolation::DuplicateDelivery)?;
    outcome
        .check_conservation()
        .map_err(InvariantViolation::Conservation)?;
    sim.audit_tables().map_err(InvariantViolation::TableAudit)?;
    Ok(())
}

fn check_terminal(sim: &Simulation, require_quiescence: bool) -> Result<(), InvariantViolation> {
    check_step(sim)?;
    if require_quiescence {
        let outcome = sim.outcome_snapshot();
        if outcome.queued_at_end != 0
            || outcome.in_flight_at_end != 0
            || outcome.pending_process_at_end != 0
        {
            return Err(InvariantViolation::Stranded {
                queued: outcome.queued_at_end,
                in_flight: outcome.in_flight_at_end,
                pending_process: outcome.pending_process_at_end,
            });
        }
    }
    Ok(())
}

/// Re-drives `model` under `cell` down one recorded path: at every branch
/// point the next [`ChoiceRecord`] selects the event to apply (falling back
/// to the default first-scheduled event when the label is absent or the
/// records are exhausted). Returns the violation the path reproduces, or
/// `None` when the path upholds every invariant.
pub fn replay(
    model: &McModel,
    cell: CheckCell,
    choices: &[ChoiceRecord],
) -> Option<InvariantViolation> {
    let mut sim = model.build(cell);
    let mut next = 0usize;
    loop {
        let mut frontier = sim.take_frontier(sim.hard_stop());
        if frontier.is_empty() {
            return check_terminal(&sim, model.require_quiescence).err();
        }
        let pick = if frontier.len() > 1 && next < choices.len() {
            let wanted = &choices[next].chosen;
            next += 1;
            frontier
                .iter()
                .position(|e| e.item.label() == *wanted)
                .unwrap_or(0)
        } else {
            0
        };
        let chosen = frontier.swap_remove(pick);
        // Scheduling order is (time, seq) and push preserves seq, so the
        // re-inserted leftovers keep their original relative order.
        for ev in frontier {
            sim.push_back(ev);
        }
        sim.apply(chosen);
        if let Err(violation) = check_step(&sim) {
            return Some(violation);
        }
    }
}

fn build_counterexample(
    model: &McModel,
    cell: CheckCell,
    violation: InvariantViolation,
    mut choices: Vec<ChoiceRecord>,
) -> Counterexample {
    // A blown budget is not a protocol violation; replaying one path cannot
    // reproduce it, so keep the raw prefix.
    if !matches!(violation, InvariantViolation::BudgetExhausted { .. }) {
        choices = minimize(model, cell, &violation, choices);
    }
    Counterexample {
        model: model.name.clone(),
        seed: model.seed,
        cell: cell.name(),
        kind: violation.kind().to_string(),
        violation: violation.to_string(),
        choices,
    }
}

/// Greedy minimisation: walk the recorded choices back-to-front, replacing
/// each non-default choice with the default first-scheduled event whenever
/// the same violation kind still reproduces, then drop the now-default tail
/// (replay defaults to the first-scheduled event past the end of the
/// records anyway).
fn minimize(
    model: &McModel,
    cell: CheckCell,
    violation: &InvariantViolation,
    mut choices: Vec<ChoiceRecord>,
) -> Vec<ChoiceRecord> {
    for i in (0..choices.len()).rev() {
        if choices[i].chosen == choices[i].alternatives[0] {
            continue;
        }
        let mut candidate = choices.clone();
        candidate[i].chosen = candidate[i].alternatives[0].clone();
        let reproduces =
            replay(model, cell, &candidate).is_some_and(|v| v.kind() == violation.kind());
        if reproduces {
            choices = candidate;
        }
    }
    while choices
        .last()
        .is_some_and(|c| c.chosen == c.alternatives[0])
    {
        choices.pop();
    }
    choices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{McModel, ModelTopology};

    fn two_publisher_line() -> McModel {
        let mut m = McModel::named("two-publisher-line", ModelTopology::Line(3));
        m.publishers = vec![0, 2];
        m.subscribers = vec![0, 1, 1, 2];
        m.publications_per_publisher = 3;
        m
    }

    #[test]
    fn symmetric_publishers_branch_and_uphold_every_invariant() {
        let model = two_publisher_line();
        let cell = CheckCell::all()[0];
        let exploration = explore(&model, cell, &ExploreBudget::default());
        assert!(
            exploration.ok(),
            "unexpected violation: {:?}",
            exploration.counterexample
        );
        assert!(
            exploration.stats.branch_points > 0,
            "two equal-gap publishers must collide at every publication instant"
        );
        assert!(exploration.stats.max_frontier >= 2);
        assert!(exploration.stats.terminals > 0);
        assert!(
            exploration.stats.deduped > 0,
            "independent publications commute, so branches must merge"
        );
    }

    #[test]
    fn default_replay_of_a_clean_model_reports_no_violation() {
        let model = two_publisher_line();
        for cell in CheckCell::all() {
            assert!(replay(&model, cell, &[]).is_none(), "{}", cell.name());
        }
    }

    #[test]
    fn budget_exhaustion_is_reported_not_silently_truncated() {
        let model = two_publisher_line();
        let cell = CheckCell::all()[0];
        let tiny = ExploreBudget {
            max_depth: 4_096,
            max_states: 3,
        };
        let exploration = explore(&model, cell, &tiny);
        let cex = exploration
            .counterexample
            .expect("a three-state budget cannot cover the model");
        assert_eq!(cex.kind, "budget-exhausted");
    }
}
