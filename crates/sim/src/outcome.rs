//! What a run reports: [`SimulationOutcome`], its per-link and per-phase
//! breakdowns, and the conservation / duplicate-delivery audits over it.

use bdps_core::broker::BrokerCounters;
use bdps_core::objective::ObjectiveTracker;
use bdps_core::queue::QueuedMessage;
use bdps_stats::summary::Summary;
use bdps_types::id::{MessageId, SubscriberId};
use bdps_types::money::Earning;
use bdps_types::time::SimTime;
use std::fmt;

#[cfg(doc)]
use crate::{engine::ForwardingMode, event::EventKind, scenario::ScenarioAction};
#[cfg(doc)]
use bdps_overlay::routing::RouteDelta;

/// Per-phase metric accumulation (see [`ScenarioAction::PhaseMark`]). Its
/// on-time delays are its slice of the run's one delay record, read through
/// [`SimulationOutcome::phase_delays_ms`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// The phase label ("run" for the implicit first phase).
    pub label: String,
    /// When the phase began.
    pub start: SimTime,
    /// When the phase ended (start of the next phase, or end of run).
    pub end: SimTime,
    /// Messages published during the phase.
    pub published: u64,
    /// On-time local deliveries during the phase (its slice's length).
    pub on_time: u64,
    /// Late local deliveries during the phase.
    pub late: u64,
    /// Copies dropped during the phase (expired, unlikely or unsubscribed).
    pub(crate) dropped: u64,
    /// Link transmissions started during the phase.
    pub transmissions: u64,
    /// Where the phase's slice of the delay record starts.
    pub(crate) delays_from: usize,
}

impl PhaseOutcome {
    pub(crate) fn new(label: String, start: SimTime, delays_from: usize) -> Self {
        PhaseOutcome {
            label,
            start,
            end: start,
            published: 0,
            on_time: 0,
            late: 0,
            dropped: 0,
            transmissions: 0,
            delays_from,
        }
    }

    /// Phase start, in seconds of simulated time.
    pub(crate) fn start_s(&self) -> f64 {
        self.start.as_secs_f64()
    }

    /// Phase end, in seconds of simulated time.
    pub(crate) fn end_s(&self) -> f64 {
        self.end.as_secs_f64()
    }
}

/// Per-link utilisation and queueing counters, accumulated by the engine
/// at every transfer start/completion (and, under a sharing link model, at
/// every flow arrival/departure). Time integrals are kept in integer
/// microseconds so the sharded executor reproduces them exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkLoad {
    /// Transfers started on this link.
    pub transmissions: u64,
    /// Transfers whose copy reached the downstream broker.
    pub(crate) completed_transfers: u64,
    /// Microseconds the link spent with at least one transfer in flight.
    /// Utilisation = `busy_us` / run duration; a saturated link stays busy
    /// (almost) the whole run.
    pub busy_us: u64,
    /// Integral of the in-flight flow count over time, in flow-µs —
    /// `flow_time_us / busy_us` is the mean concurrency while busy (always
    /// 1 under the exclusive constant-delay model).
    pub flow_time_us: u64,
    /// Most flows ever concurrently in flight (1 under the exclusive
    /// model; up to the admission cap under fair sharing).
    pub peak_flows: u64,
    /// Deepest the sender's output queue behind this link ever got —
    /// the queueing counter: a saturated link grows a backlog here.
    pub peak_queue: u64,
    /// Dedicated-link service consumed by flows under a sharing model, µs
    /// (each completed or voided flow contributes its sampled service time
    /// minus what it still owed). Zero under the exclusive model, where
    /// `busy_us` plays this role directly. With equal sharing the link
    /// serves at unit aggregate rate whenever busy, so `work_done_us ≈
    /// busy_us` once drained — the flow-level conservation law
    /// `tests/linkmodel_equivalence.rs` checks.
    pub work_done_us: f64,
}

impl LinkLoad {
    /// Fraction of a run ending at `finished_at` that the link spent with
    /// at least one flow in flight (`busy_us / finished_at`; 0 for a run
    /// that ended at t = 0). Under fair sharing a value near 1.0 means the
    /// link is saturated — the congestion signal delay-only links can never
    /// show.
    pub fn utilisation(&self, finished_at: SimTime) -> f64 {
        match finished_at.as_micros() {
            0 => 0.0,
            total_us => self.busy_us as f64 / total_us as f64,
        }
    }

    /// Mean number of concurrent flows while busy (`flow_time_us /
    /// busy_us`; exactly 1.0 under the exclusive constant-delay model, 0
    /// for a link that was never busy).
    pub fn mean_concurrency(&self) -> f64 {
        match self.busy_us {
            0 => 0.0,
            busy_us => self.flow_time_us as f64 / busy_us as f64,
        }
    }
}

/// One in-flight flow on a link under fair sharing. The engine keeps these
/// per link; the pending [`EventKind::FlowComplete`] for its message at
/// `completes_at` is the flow's live completion event.
#[derive(Clone)]
pub(crate) struct LinkFlow {
    /// The copy in flight, targets included (requeued intact on failure).
    pub(crate) queued: QueuedMessage,
    /// Sampled dedicated-link service requirement, µs.
    pub(crate) nominal_us: f64,
    /// Dedicated-link service still owed, µs (drains at `elapsed / flows`).
    pub(crate) remaining_us: f64,
    /// When the live completion event is scheduled.
    pub(crate) completes_at: SimTime,
}

/// What [`SimulationOutcome::replay_state`] returns: the digest, the
/// per-broker counters, the per-link loads, the per-phase breakdowns (counts
/// and slice starts; the last one ends at `finished_at`), the earning and
/// the on-time delay record.
pub type ReplayState<'a> = (
    u64,
    &'a [BrokerCounters],
    &'a [LinkLoad],
    &'a [PhaseOutcome],
    Earning,
    &'a Summary,
);

/// Aggregate results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The paper's objective bookkeeping (delivery rate, earning).
    pub tracker: ObjectiveTracker,
    /// Per-broker counters, indexed by broker id.
    pub(crate) broker_counters: Vec<BrokerCounters>,
    /// Number of messages published (the phases' sum).
    pub published: u64,
    /// Number of link transmissions started (the phases' sum).
    pub transmissions: u64,
    /// Transmissions whose copy reached the downstream broker (the link loads'
    /// sum; the rest were requeued after a failure or were still in flight).
    pub completed_transfers: u64,
    /// End-to-end delays of on-time deliveries (ms), in recorded order: the
    /// run's one record of them, which the phases' slices tile in order.
    pub valid_delays_ms: Summary,
    /// The simulated time at which the run ended.
    pub finished_at: SimTime,
    /// Copies still waiting in output queues when the run ended.
    pub queued_at_end: u64,
    /// Copies still in flight on links when the run ended.
    pub in_flight_at_end: u64,
    /// Copies received but still inside a broker's processing module (`PD`)
    /// when the run ended.
    pub pending_process_at_end: u64,
    /// Per-phase metric breakdown (a single "run" phase for static scenarios).
    pub phases: Vec<PhaseOutcome>,
    /// Total events the loop processed.
    pub events_processed: u64,
    /// The deepest the pending-event set ever got (scheduler load indicator).
    pub peak_pending_events: u64,
    /// Scope-set interns served — one per publication, since a forwarded
    /// copy carries its targets instead of a scope (see
    /// [`bdps_filter::scope::ScopeInterner`]).
    pub scope_interns: u64,
    /// Interner hits (shared allocations) out of [`scope_interns`](Self::scope_interns).
    pub scope_intern_hits: u64,
    /// Always 0: no table is ever rebuilt from the full population, link
    /// events only patch. Kept only because the benchmark harness under
    /// `benchmark/` reads it; ROADMAP item 1d deletes it.
    pub tables_rebuilt_full: u64,
    /// Table entries patched in place after link events: one aggregate entry
    /// per changed `(broker, destination)` pair — retargeted, inserted on
    /// recovered reachability or removed on lost reachability — not one
    /// entry per subscription.
    pub entries_retargeted: u64,
    /// Destination shortest-path trees repaired through a route delta over
    /// the run (Σ [`RouteDelta::dests_repaired`]) — the cost driver of a
    /// link event. A repair examines at most `|added| + Σ (in-degree +
    /// out-degree)` links over the sources it touches (plus their in-degree
    /// again for sources a removal cut off), not the `O(E log V)` of a
    /// fresh tree.
    pub route_trees_recomputed: u64,
    /// `(source, destination)` route entries those repairs actually
    /// changed (Σ [`RouteDelta::changed_pairs`]) — what
    /// [`entries_retargeted`](Self::entries_retargeted) then has to patch.
    pub route_pairs_changed: u64,
    /// Queued copies subscription leaves binary-searched for the leaver,
    /// over every broker: only copies whose edge mask has the leaver's edge
    /// bit are searched (see `bdps_core::queue`'s edge masks). Leaves apply
    /// at scenario barriers, so a sharded run counts exactly what the
    /// sequential one does.
    pub copies_scanned_on_leave: u64,
    /// Edge-group summaries churn rebuilt
    /// ([`SharedPopulation::summary_rebuilds`](bdps_overlay::sparse::SharedPopulation::summary_rebuilds)):
    /// one per join and one per leave that leaves its group non-empty under
    /// aggregate forwarding, and 0 under exact forwarding, whose registry
    /// keeps no covers. Churn applies to the one registry at scenario
    /// barriers, so a sharded run counts what the sequential one does.
    pub summary_rebuilds: u64,
    /// Aggregate table entries held across all brokers when the run ended:
    /// interior brokers store one covering-aggregated entry per reachable
    /// destination instead of one entry per subscription.
    pub aggregate_entries: u64,
    /// Rough bytes of subscription-table state at the end of the run: the
    /// sum of every broker's own table plus the shared population registry,
    /// counted once.
    pub table_bytes_estimate: u64,
    /// Per-link utilisation/queueing counters, indexed by link id, with
    /// the busy/flow-time integrals closed at `finished_at`.
    pub link_loads: Vec<LinkLoad>,
    /// Every effect the run applied to its totals — each publication,
    /// interested-count update, delivery (message, subscriber, price, delay
    /// in µs, on-time), drop, transmission, completed transfer and phase
    /// mark — folded in application order through a fixed multiply-rotate
    /// mix. Two runs that agree on it published the same messages and
    /// delivered them to the same subscribers with the same delays, in the
    /// same order. The sharded executor replays its
    /// shards' effects through the same fold in the sequential order, so it
    /// reproduces the sequential digest by construction.
    pub digest: u64,
    /// Conservative time windows the sharded executor ran (see
    /// [`crate::shard`]); 0 on a sequential run.
    pub shard_windows: u64,
    /// Those of the windows in which two or more shards had events due.
    pub shard_parallel_windows: u64,
    /// Shard windows handed to a worker thread: in a window with `k` due
    /// shards the calling thread runs one and hands off `k − 1`, so a run
    /// whose windows each had at most two due shards hands off exactly
    /// [`shard_parallel_windows`](Self::shard_parallel_windows).
    pub shard_handoffs: u64,
}

impl SimulationOutcome {
    /// What any replay of this run — on any shard count, stepped or not,
    /// whichever way its configuration was spelled — must reproduce exactly:
    /// the [`digest`](Self::digest), the state it does not fold (per-broker
    /// counters, which hold the paper's message number; per-link loads;
    /// per-phase breakdowns) and the order-sensitive sums (earning, the
    /// on-time delay record). The equivalence suites compare runs with it.
    pub fn replay_state(&self) -> ReplayState<'_> {
        (
            self.digest,
            &self.broker_counters,
            &self.link_loads,
            &self.phases,
            self.tracker.total_earning(),
            &self.valid_delays_ms,
        )
    }

    /// The on-time delays of `phase` (ms): its slice of
    /// [`valid_delays_ms`](Self::valid_delays_ms), empty (mean 0) for a phase
    /// that delivered nothing.
    pub fn phase_delays_ms(&self, phase: &PhaseOutcome) -> Summary {
        let slice = phase.delays_from..phase.delays_from + phase.on_time as usize;
        let values = self.valid_delays_ms.values().get(slice).unwrap_or_default();
        let mut delays = Summary::new();
        delays.extend(values.iter().copied());
        delays
    }

    /// The paper's "message number" metric: total messages received by all brokers.
    pub fn message_number(&self) -> u64 {
        self.broker_counters.iter().map(|c| c.received).sum()
    }

    /// Total copies dropped because they expired.
    pub fn dropped_expired(&self) -> u64 {
        self.broker_counters.iter().map(|c| c.dropped_expired).sum()
    }

    /// Total copies dropped as unlikely to make their deadline (eq. 11).
    pub fn dropped_unlikely(&self) -> u64 {
        self.broker_counters
            .iter()
            .map(|c| c.dropped_unlikely)
            .sum()
    }

    /// Total copies dropped because every target unsubscribed mid-run.
    pub fn dropped_unsubscribed(&self) -> u64 {
        self.broker_counters
            .iter()
            .map(|c| c.dropped_unsubscribed)
            .sum()
    }

    /// Total copies enqueued towards downstream neighbours.
    pub fn enqueued(&self) -> u64 {
        self.broker_counters.iter().map(|c| c.enqueued).sum()
    }

    /// Total copies requeued after their link failed mid-transfer.
    pub fn requeued(&self) -> u64 {
        self.broker_counters.iter().map(|c| c.requeued).sum()
    }

    /// Total local deliveries produced by expanding a covering aggregate at
    /// an edge broker — the local delivery count, since interior brokers
    /// route on aggregates and only edge brokers expand to concrete
    /// subscribers.
    pub fn expanded_at_edge(&self) -> u64 {
        self.broker_counters
            .iter()
            .map(|c| c.expanded_at_edge)
            .sum()
    }

    /// Copies that crossed at least one link only to expand to zero members
    /// at their edge broker — the traffic cost of covering-aggregate false
    /// positives (non-zero only under [`ForwardingMode::Aggregate`]).
    pub fn false_positive_forwards(&self) -> u64 {
        self.broker_counters
            .iter()
            .map(|c| c.false_positive_forwards)
            .sum()
    }

    /// Edge expansions that resolved zero members (includes the publisher's
    /// own broker, where no link was wasted; always ≥
    /// [`false_positive_forwards`](Self::false_positive_forwards)).
    pub fn false_positive_drops_at_edge(&self) -> u64 {
        self.broker_counters
            .iter()
            .map(|c| c.false_positive_drops_at_edge)
            .sum()
    }

    /// Checks the copy-conservation invariants and returns a structured
    /// report of the first violated one, if any. Two balances must hold at
    /// the end of every run, static or dynamic:
    ///
    /// 1. **Queue balance** — every copy put into an output queue (enqueued
    ///    or requeued) was either transmitted, dropped (expired / unlikely /
    ///    unsubscribed) or is still queued;
    /// 2. **Transfer balance** — every transmission either completed,
    ///    was requeued after a link failure, or is still in flight.
    ///
    /// Both balances read the one count of transmissions, so a copy that
    /// leaves its queue without starting a transfer breaks the first.
    pub fn check_conservation(&self) -> Result<(), ConservationViolation> {
        let inserted = self.enqueued() + self.requeued();
        let removed = self.transmissions
            + self.dropped_expired()
            + self.dropped_unlikely()
            + self.dropped_unsubscribed()
            + self.queued_at_end;
        if inserted != removed {
            return Err(ConservationViolation {
                balance: ConservationBalance::Queue,
                inserted,
                removed,
                terms: vec![
                    ("enqueued", self.enqueued()),
                    ("requeued", self.requeued()),
                    ("transmissions", self.transmissions),
                    ("dropped_expired", self.dropped_expired()),
                    ("dropped_unlikely", self.dropped_unlikely()),
                    ("dropped_unsubscribed", self.dropped_unsubscribed()),
                    ("queued_at_end", self.queued_at_end),
                ],
            });
        }
        let transfers = self.completed_transfers + self.requeued() + self.in_flight_at_end;
        if self.transmissions != transfers {
            return Err(ConservationViolation {
                balance: ConservationBalance::Transfer,
                inserted: self.transmissions,
                removed: transfers,
                terms: vec![
                    ("transmissions", self.transmissions),
                    ("completed_transfers", self.completed_transfers),
                    ("requeued", self.requeued()),
                    ("in_flight_at_end", self.in_flight_at_end),
                ],
            });
        }
        Ok(())
    }

    /// Checks the no-duplicate-delivery audit: every (message, subscriber)
    /// pair was delivered at most once. Returns a structured report naming
    /// the offending pairs (up to the tracker's sample cap) on violation.
    pub fn check_no_duplicates(&self) -> Result<(), DuplicateDeliveryViolation> {
        let count = self.tracker.duplicate_deliveries();
        if count == 0 {
            return Ok(());
        }
        Err(DuplicateDeliveryViolation {
            count,
            samples: self.tracker.duplicate_samples().to_vec(),
        })
    }
}

/// Which conservation balance a [`ConservationViolation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConservationBalance {
    /// Copies inserted into output queues vs copies leaving them.
    Queue,
    /// Transmissions started vs transfers completed / requeued / in flight.
    Transfer,
}

impl ConservationBalance {
    /// Stable report name (`"queue"` / `"transfer"`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            ConservationBalance::Queue => "queue",
            ConservationBalance::Transfer => "transfer",
        }
    }
}

/// A violated copy-conservation balance, with the counters behind it —
/// self-explaining in test failures and machine-readable in model-checking
/// counterexample traces (see `bdps-mc`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConservationViolation {
    /// Which balance broke.
    pub(crate) balance: ConservationBalance,
    /// The insertion side of the balance (what went in / started).
    pub(crate) inserted: u64,
    /// The removal side of the balance (where every copy must be accounted).
    pub(crate) removed: u64,
    /// Every counter contributing to the balance, by name — the full
    /// breakdown, so a report never needs re-deriving from the outcome.
    pub(crate) terms: Vec<(&'static str, u64)>,
}

impl fmt::Display for ConservationViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} balance violated: {} inserted != {} accounted (",
            self.balance.name(),
            self.inserted,
            self.removed
        )?;
        for (i, (name, value)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} {value}")?;
        }
        write!(f, ")")
    }
}

/// A violated no-duplicate-delivery audit: at least one (message,
/// subscriber) pair was delivered more than once.
#[derive(Debug, Clone, PartialEq)]
pub struct DuplicateDeliveryViolation {
    /// Total duplicate deliveries recorded.
    pub(crate) count: u64,
    /// The first few offending (message, subscriber) pairs.
    pub(crate) samples: Vec<(MessageId, SubscriberId)>,
}

impl fmt::Display for DuplicateDeliveryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} duplicate deliveries (first pairs:", self.count)?;
        for (m, s) in &self.samples {
            write!(f, " {m}->{s}")?;
        }
        write!(f, ")")
    }
}
