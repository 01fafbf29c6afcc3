//! The frontier-stepped traced run: the same engine as `Simulation::run`,
//! driven from outside through `take_frontier` + `try_apply`, with one
//! in-memory span per applied event.
//!
//! Span layout (after the per-component records of the DSLab core in
//! `SNIPPETS.md`): every span has a name, a start, a duration and a parent;
//! the spans of one cell share the cell's id. A cell's `run` span is the
//! parent of its `take_frontier` and event spans, which are leaves, so an
//! event span's self time is its duration and the run span's self time is
//! its duration minus the time its children cover — loop overhead, clock
//! reads and span pushes.
//!
//! Adjacent spans share one clock reading (the end of one is the start of
//! the next), so tracing costs two `Instant::now` per event: one after the
//! scheduler step, one after the handler.

use std::time::Instant;

use bdps_sim::engine::EventKind;
use bdps_sim::prelude::*;

use crate::metrics::SPAN_KINDS;
use crate::stats::percentile;

/// Index of `take_frontier` in a cell's span-kind table, after the event
/// kinds of [`SPAN_KINDS`].
pub const TAKE_FRONTIER: usize = SPAN_KINDS.len();
const KINDS: usize = SPAN_KINDS.len() + 1;

/// The display name of span kind `kind`.
pub fn kind_name(kind: usize) -> &'static str {
    if kind == TAKE_FRONTIER {
        "take_frontier"
    } else {
        SPAN_KINDS[kind]
    }
}

/// Maps an event to its span kind — its index in [`SPAN_KINDS`]: the
/// `EventKind` variant, with `Scenario` split by `ScenarioAction` variant.
/// Runs once per traced event, so it is a plain match (a test pins the
/// indices to the names).
fn classify(event: &EventKind) -> usize {
    match event {
        EventKind::Publish { .. } => 0,
        EventKind::Process { .. } => 1,
        EventKind::SendComplete { .. } => 2,
        EventKind::FlowComplete { .. } => 3,
        EventKind::Scenario { action } => match action {
            ScenarioAction::SubscriptionJoin { .. } => 4,
            ScenarioAction::SubscriptionLeave { .. } => 5,
            ScenarioAction::LinkDown { .. } => 6,
            ScenarioAction::LinkUp { .. } => 7,
            ScenarioAction::PublisherRate { .. } | ScenarioAction::PhaseMark { .. } => 8,
        },
    }
}

/// One leaf span of a cell's run: `kind` indexes [`kind_name`]; times are
/// nanoseconds since the cell's run span started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: u8,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The spans of one traced cell.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Duration of the cell's `run` span (the whole stepped loop plus
    /// `into_outcome`), ns.
    pub run_ns: u64,
    /// The children of the run span, in execution order.
    pub spans: Vec<Span>,
}

impl CellTrace {
    /// Time the children of the run span cover, ns.
    pub fn children_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.dur_ns).sum()
    }

    /// The run span's self time: its duration minus what its children cover.
    pub fn run_self_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.children_ns())
    }
}

/// Runs `sim` to completion exactly as `Simulation::try_run` does,
/// recording one span per applied event.
///
/// The plain loop pops one `(time, seq)`-minimal event at a time. Events
/// are only visible from outside as a same-instant frontier, so each step
/// takes the frontier, pushes everything but its first event back (with
/// its original key) and applies that first event. Pushing back matters
/// for more than order: the engine peeks at the pending set to coalesce a
/// same-instant batch of link events into one routing rebuild, and would
/// rebuild once per link event if the rest of the batch were held outside
/// the queue — same outcome, a third more work on the link storm.
pub fn run_traced(
    mut sim: Simulation,
    capacity_hint: usize,
) -> Result<(SimulationOutcome, CellTrace), SimError> {
    let mut spans: Vec<Span> = Vec::with_capacity(capacity_hint);
    let stop = sim.hard_stop();
    let origin = Instant::now();
    let mut mark = 0u64;
    let mut span = |kind: usize| {
        let now = origin.elapsed().as_nanos() as u64;
        let start_ns = std::mem::replace(&mut mark, now);
        spans.push(Span {
            kind: kind as u8,
            start_ns,
            dur_ns: now - start_ns,
        });
    };
    loop {
        let mut frontier = sim.take_frontier(stop).into_iter();
        let next = frontier.next();
        for later in frontier {
            sim.push_back(later);
        }
        span(TAKE_FRONTIER);
        let Some(event) = next else { break };
        let kind = classify(&event.item);
        sim.try_apply(event)?;
        span(kind);
    }
    let outcome = sim.into_outcome();
    let run_ns = origin.elapsed().as_nanos() as u64;
    Ok((outcome, CellTrace { run_ns, spans }))
}

/// Per-kind totals over any number of cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindStats {
    pub count: u64,
    pub self_ns: u64,
    pub p99_ns: u64,
}

/// What a traced repetition attributes its wall time to.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Indexed by span kind (event kinds, then `take_frontier`).
    pub kinds: Vec<KindStats>,
    /// Σ run-span durations over cells, ns.
    pub run_ns: u64,
    /// Σ run-span self times over cells, ns.
    pub run_self_ns: u64,
}

impl TraceSummary {
    pub fn of(cells: &[CellTrace]) -> TraceSummary {
        let mut durations: Vec<Vec<u64>> = vec![Vec::new(); KINDS];
        for cell in cells {
            for span in &cell.spans {
                durations[span.kind as usize].push(span.dur_ns);
            }
        }
        let kinds = durations
            .iter_mut()
            .map(|d| KindStats {
                count: d.len() as u64,
                self_ns: d.iter().sum(),
                p99_ns: percentile(d, 99.0),
            })
            .collect();
        TraceSummary {
            kinds,
            run_ns: cells.iter().map(|c| c.run_ns).sum(),
            run_self_ns: cells.iter().map(CellTrace::run_self_ns).sum(),
        }
    }

    /// Share of the summed run spans spent in `kind`, percent.
    pub fn share_pct(&self, kind: usize) -> f64 {
        if self.run_ns == 0 {
            0.0
        } else {
            100.0 * self.kinds[kind].self_ns as f64 / self.run_ns as f64
        }
    }

    /// Event-span counts indexed like [`SPAN_KINDS`].
    pub fn event_counts(&self) -> Vec<u64> {
        self.kinds[..SPAN_KINDS.len()]
            .iter()
            .map(|k| k.count)
            .collect()
    }

    /// The event kind with the largest self time.
    pub fn top_kind(&self) -> &'static str {
        (0..SPAN_KINDS.len())
            .max_by_key(|&k| self.kinds[k].self_ns)
            .map(kind_name)
            .unwrap_or("none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_core::config::StrategyKind;
    use bdps_types::time::Duration;

    fn span(kind: usize, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            kind: kind as u8,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn run_self_time_is_duration_minus_children() {
        let cell = CellTrace {
            run_ns: 1_000,
            spans: vec![
                span(TAKE_FRONTIER, 0, 100),
                span(0, 100, 300),
                span(1, 400, 450),
            ],
        };
        assert_eq!(cell.children_ns(), 850);
        assert_eq!(cell.run_self_ns(), 150);
        // A clock that ran backwards between reads must not underflow.
        let skewed = CellTrace {
            run_ns: 10,
            spans: vec![span(0, 0, 20)],
        };
        assert_eq!(skewed.run_self_ns(), 0);
    }

    #[test]
    fn summary_adds_cells_and_shares_sum_to_the_run() {
        let cells = [
            CellTrace {
                run_ns: 1_000,
                spans: vec![
                    span(TAKE_FRONTIER, 0, 100),
                    span(0, 100, 400),
                    span(2, 500, 400),
                ],
            },
            CellTrace {
                run_ns: 1_000,
                spans: vec![span(0, 0, 600), span(2, 600, 300)],
            },
        ];
        let summary = TraceSummary::of(&cells);
        assert_eq!(summary.run_ns, 2_000);
        assert_eq!(summary.run_self_ns, 200);
        assert_eq!(
            summary.kinds[0],
            KindStats {
                count: 2,
                self_ns: 1_000,
                p99_ns: 600
            }
        );
        assert_eq!(summary.kinds[2].self_ns, 700);
        assert_eq!(summary.top_kind(), "publish");
        let shares: f64 = (0..KINDS).map(|k| summary.share_pct(k)).sum();
        let self_share = 100.0 * summary.run_self_ns as f64 / summary.run_ns as f64;
        assert!((shares + self_share - 100.0).abs() < 1e-9);
        assert_eq!(summary.event_counts()[..3], [2, 0, 2]);
    }

    /// The acceptance check behind every traced workload, at paper scale:
    /// stepping the engine frontier by frontier is the plain run.
    #[test]
    fn frontier_stepped_run_equals_plain_run_on_a_60s_paper_cell() {
        let builder = Simulation::builder()
            .ssd(15.0)
            .duration(Duration::from_secs(60))
            .strategy(StrategyKind::MaxEb)
            .table_layout(TableLayout::Sparse)
            .scenario_named("chaos")
            .unwrap()
            .seed(42);
        let plain = builder.build().run();
        let (traced, trace) = run_traced(builder.build(), 0).unwrap();
        assert_eq!(
            crate::harness::Digest::of(&plain),
            crate::harness::Digest::of(&traced)
        );
        assert!(plain.events_processed > 100);
        let summary = TraceSummary::of(&[trace]);
        let events: u64 = summary.event_counts().iter().sum();
        assert_eq!(events, plain.events_processed, "one span per event");
        // Bursts leave stale publish events behind, which pop but publish nothing.
        assert!(summary.kinds[classify_name("publish")].count >= plain.published);
    }

    fn classify_name(name: &str) -> usize {
        SPAN_KINDS.iter().position(|k| *k == name).unwrap()
    }

    #[test]
    fn classify_indices_match_the_span_kind_names() {
        use bdps_types::id::{LinkId, PublisherId, SubscriptionId};
        let scenario = |action| EventKind::Scenario { action };
        let cases = [
            (
                EventKind::Publish {
                    publisher: PublisherId::new(0),
                    gen: 0,
                },
                "publish",
            ),
            (
                scenario(ScenarioAction::SubscriptionLeave {
                    subscription: SubscriptionId::new(1),
                }),
                "scn_leave",
            ),
            (
                scenario(ScenarioAction::LinkDown {
                    link: LinkId::new(2),
                }),
                "scn_link_down",
            ),
            (
                scenario(ScenarioAction::LinkUp {
                    link: LinkId::new(2),
                }),
                "scn_link_up",
            ),
            (
                scenario(ScenarioAction::PhaseMark {
                    label: "burst".into(),
                }),
                "scn_other",
            ),
        ];
        for (event, name) in cases {
            assert_eq!(kind_name(classify(&event)), name);
        }
        assert_eq!(
            SPAN_KINDS[1..4],
            ["process", "send_complete", "flow_complete"]
        );
        assert_eq!(SPAN_KINDS[4], "scn_join");
    }
}
