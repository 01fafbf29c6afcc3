//! The discrete-event simulation core.
//!
//! The simulator drives a set of [`BrokerState`]s through four kinds of
//! events, processed in strict time order with deterministic tie-breaking:
//!
//! * **Publish** — a publisher emits a new message and hands it to its
//!   attached broker (local hand-off, no overlay link involved);
//! * **Process** — a broker finishes the processing module for a received
//!   message (arrival time + `PD`), delivers local matches and enqueues
//!   copies to downstream output queues;
//! * **SendComplete** — a link finishes transmitting a message copy; the
//!   copy is handed to the receiving broker and the link immediately pulls
//!   the next message chosen by the scheduling strategy;
//! * **Scenario** — a [`ScenarioAction`] fires: a subscription joins or
//!   leaves, a publisher's rate changes, a link fails or recovers, or a new
//!   reporting phase begins (see [`crate::scenario`]).
//!
//! Every message copy carries the set of subscription identifiers it is
//! responsible for, so single-path routing never produces duplicate
//! deliveries (see [`BrokerState::handle_arrival_scoped`]). Under dynamic
//! scenarios the subscription tables, routing and link liveness all update
//! in place mid-run; the scenario event stream is materialised up front from
//! a seed-derived RNG stream, so runs stay bit-for-bit reproducible.

use bdps_core::broker::{BrokerCounters, BrokerState};
use bdps_core::config::SchedulerConfig;
use bdps_core::objective::ObjectiveTracker;
use bdps_core::queue::QueuedMessage;
use bdps_filter::index::MatchIndex;
use bdps_filter::scope::ScopeSet;
use bdps_filter::subscription::Subscription;
use bdps_net::linkmodel::LinkModelKind;
use bdps_overlay::graph::OverlayGraph;
use bdps_overlay::routing::{RouteDelta, Routing};
use bdps_overlay::sparse::{
    BrokerTable, PopulationHandle, SharedPopulation, SparseTable, TableLayout,
};
use bdps_overlay::subtable::{RetargetOutcome, SubscriptionTable};
use bdps_overlay::topology::Topology;
use bdps_stats::rng::SimRng;
use bdps_stats::summary::Summary;
use bdps_types::error::BdpsError;
use bdps_types::id::{BrokerId, LinkId, MessageId, PublisherId, SubscriberId, SubscriptionId};
use bdps_types::message::Message;
use bdps_types::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock, RwLockWriteGuard};

use crate::runner::SimulationConfig;
use crate::scenario::ScenarioAction;
use crate::sched::{EventQueue, Scheduled};
use crate::traffic::{Effect, EffectSink, Shared, Totals, TrafficCore};

/// Canonical, partition-independent event keys.
///
/// [`Scheduled::seq`] is not a global insertion counter but a key derived
/// from the event's *content*, so the total `(time, key)` order is the same
/// no matter which shard scheduled the event — the property that makes the
/// sharded executor ([`crate::shard`]) bit-identical to the sequential loop.
/// Layout: the event rank in the top two bits (scenario < publish < process
/// < send at equal times, so scenario actions always apply before traffic at
/// the same instant), discriminating content in the low bits.
///
/// Uniqueness among pending events at one instant:
/// * **scenario** — the materialization index is globally unique;
/// * **publish** — at most one publication is pending per
///   (publisher, rate generation);
/// * **process** — `via` names the delivering link (or 0 for the
///   publisher-side hand-off), a link completes one transfer at a time and a
///   local hand-off is a fresh message, so `(via, message)` never repeats at
///   an instant;
/// * **send** — a link carries at most one in-flight copy *per message*:
///   under the exclusive (constant-delay) link model at most one transfer is
///   in flight per link (`link_busy`), and under a sharing model
///   ([`bdps_net::linkmodel::FairShare`]) concurrent flows on one link are
///   distinct messages (single-path routing enqueues one copy of a message
///   per link), so `(link, message)` stays unique. A rescheduled flow
///   completion leaves stale events behind at *different* times (the engine
///   only re-pushes when the completion time moved), so equal `(time, key)`
///   pairs never coexist — and even a popped stale event is a no-op, making
///   pop order among hypothetical duplicates irrelevant.
pub(crate) mod key {
    use bdps_types::id::{LinkId, MessageId, PublisherId};

    /// Publisher index bits inside a [`MessageId`] (the counter gets the
    /// low 29 bits, the publisher the bits above).
    const MESSAGE_COUNTER_BITS: u32 = 29;
    /// Low-bit width of the message discriminator inside process/send keys:
    /// 12 publisher bits + 29 counter bits.
    const MESSAGE_BITS: u32 = 41;

    /// Most publisher slots the key layout supports (12 bits).
    pub(crate) const MAX_PUBLISHER_SLOTS: usize = 1 << 12;
    /// Most links the key layout supports (21 bits, minus the hand-off
    /// sentinel).
    pub(crate) const MAX_LINKS: usize = (1 << 21) - 1;

    /// The per-publisher message id: publisher index in the high bits,
    /// per-publisher counter in the low bits. Partition-independent — a
    /// publisher mints the same ids whichever shard it is homed to.
    pub(crate) fn message_id(publisher: PublisherId, counter: u64) -> MessageId {
        debug_assert!(publisher.index() < MAX_PUBLISHER_SLOTS);
        assert!(
            counter < 1 << MESSAGE_COUNTER_BITS,
            "per-publisher message counter overflowed the canonical key layout"
        );
        MessageId::new(((publisher.index() as u64) << MESSAGE_COUNTER_BITS) | counter)
    }

    /// Key of a scenario event: its materialization index (rank 0).
    pub(crate) fn scenario(index: u64) -> u64 {
        debug_assert!(index < 1 << 62);
        index
    }

    /// Key of a publication event (rank 1).
    pub(crate) fn publish(publisher: PublisherId, gen: u64) -> u64 {
        debug_assert!(gen < 1 << 40, "rate generation overflowed the key layout");
        (1 << 62) | ((publisher.index() as u64) << 40) | gen
    }

    /// Key of a processing-done event (rank 2). `via` is the link that
    /// delivered the copy, or `None` for the publisher-side hand-off.
    pub(crate) fn process(via: Option<LinkId>, message: MessageId) -> u64 {
        let via = via.map(|l| l.index() as u64 + 1).unwrap_or(0);
        debug_assert!(via <= MAX_LINKS as u64);
        debug_assert!(message.raw() < 1 << MESSAGE_BITS);
        (2 << 62) | (via << MESSAGE_BITS) | message.raw()
    }

    /// Key of a transfer-complete event (rank 3).
    pub(crate) fn send(link: LinkId, message: MessageId) -> u64 {
        debug_assert!(message.raw() < 1 << MESSAGE_BITS);
        (3 << 62) | ((link.index() as u64) << MESSAGE_BITS) | message.raw()
    }

    /// Whether a process-event key's copy arrived over a link (as opposed to
    /// the publisher-side hand-off, whose `via` field is 0). Recovered from
    /// the key rather than stored in the event so [`super::EventKind`] and
    /// its digests stay unchanged.
    pub(crate) fn process_via_link(seq: u64) -> bool {
        ((seq >> MESSAGE_BITS) & ((1 << 21) - 1)) != 0
    }
}

/// A structured, recoverable simulation failure.
///
/// The engine used to turn a poisoned population lock into a second panic
/// (`.expect("population lock")`), so one panicking `sweep` worker cascaded
/// into every sibling cell sharing the registry. Read paths now recover the
/// guard ([`bdps_overlay::sparse::read_population`]); write paths — where a
/// half-applied churn action could leave the registry inconsistent — surface
/// this error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration cannot be built into a run: an out-of-range
    /// workload or scheduler value, a malformed mesh, an overlay past the
    /// canonical event-key limits, or a scenario event naming a link or
    /// broker the graph does not have. Decided before any event is applied.
    InvalidConfig(BdpsError),
    /// The shared population registry's write lock was poisoned by a panic
    /// in another thread; the pending mutation was not applied.
    PopulationPoisoned {
        /// Which mutation was abandoned.
        during: &'static str,
    },
    /// A churn action or a link-event table patch found no population
    /// registry although the sparse layout always builds one; the mutation
    /// was not applied.
    PopulationMissing {
        /// Which mutation was abandoned.
        during: &'static str,
    },
    /// A shard worker thread panicked mid-window (sharded executor only).
    WorkerPanicked {
        /// The shard whose worker died.
        shard: usize,
        /// The payload of the worker's panic.
        message: String,
    },
    /// The sharded executor was asked to run a non-constant link model.
    ///
    /// Fair-share completion re-scheduling can move an already-scheduled
    /// cross-shard arrival inside the current conservative time window,
    /// which breaks the PD-lookahead soundness argument the sharded
    /// executor rests on — so the combination is rejected up front as a
    /// structured error instead of silently diverging from the sequential
    /// run.
    ShardedLinkModelUnsupported {
        /// The rejected link model's registry name.
        model: &'static str,
    },
    /// Aggregate-scoped forwarding ([`ForwardingMode::Aggregate`]) was
    /// requested together with the dense table layout. Aggregate publishing
    /// matches against the edge groups of the shared population registry and
    /// expands at the edge via that same registry — state only the sparse
    /// layout maintains — so the combination is rejected up front.
    AggregateForwardingNeedsSparseLayout,
    /// The sharded executor was asked to run aggregate-scoped forwarding
    /// across more than one shard. Edge expansion reads the shared
    /// population registry at delivery time, which would race with churn
    /// applied by other shards inside the same conservative window — run
    /// with shards = 1 (or exact forwarding).
    ShardedForwardingUnsupported,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => e.fmt(f),
            SimError::PopulationPoisoned { during } => write!(
                f,
                "population registry lock poisoned during {during}; mutation abandoned"
            ),
            SimError::PopulationMissing { during } => write!(
                f,
                "sparse table layout has no population registry during {during}; \
                 mutation abandoned"
            ),
            SimError::WorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
            SimError::ShardedLinkModelUnsupported { model } => write!(
                f,
                "sharded execution supports only the constant-delay link model \
                 (got `{model}`): flow completion re-scheduling can move a \
                 cross-shard arrival inside the PD-lookahead window — run with \
                 shards = 1"
            ),
            SimError::AggregateForwardingNeedsSparseLayout => write!(
                f,
                "aggregate-scoped forwarding requires the sparse table layout: \
                 publish-time matching and edge expansion both read the shared \
                 population registry, which the dense layout does not maintain"
            ),
            SimError::ShardedForwardingUnsupported => write!(
                f,
                "sharded execution does not support aggregate-scoped \
                 forwarding: edge expansion reads the shared population \
                 registry at delivery time, racing cross-shard churn — run \
                 with shards = 1 (or exact forwarding)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<BdpsError> for SimError {
    fn from(e: BdpsError) -> Self {
        SimError::InvalidConfig(e)
    }
}

/// One kind of pending simulation event.
///
/// The engine itself never exposes events mid-run; this type is public so
/// the model-checking explorer (`bdps-mc`) can hold a same-instant frontier
/// taken with [`Simulation::take_frontier`], re-insert the unconsumed events
/// with [`Simulation::push_back`] and apply a chosen one with
/// [`Simulation::apply`]. Treat it as opaque outside those calls.
#[derive(Clone)]
pub enum EventKind {
    /// A publisher emits its next message. `gen` is the publisher's rate
    /// generation: a rate change bumps it, invalidating pending publications
    /// so the new rate takes effect immediately instead of after one more
    /// old-rate gap.
    Publish {
        /// The emitting publisher.
        publisher: PublisherId,
        /// The publisher's rate generation when this event was scheduled.
        gen: u64,
    },
    /// A broker finishes processing a received message copy. The scope — the
    /// interned set of subscription ids the copy serves, frozen at
    /// publication time — is an `Arc`-backed [`ScopeSet`], so every hop of
    /// every copy of a message shares one allocation.
    Process {
        /// The broker whose processing module finishes.
        broker: BrokerId,
        /// The processed message.
        message: Arc<Message>,
        /// The subscription ids this copy serves.
        scope: ScopeSet,
    },
    /// A link finishes transmitting a message copy (targets included so the
    /// copy can be requeued intact if the link died mid-transfer). `gen` is
    /// the link's failure generation when the transfer started: if the link
    /// failed at any point while the copy was in flight — even if it also
    /// recovered before completion — the generation has moved on and the
    /// transfer is void.
    SendComplete {
        /// The transmitting link.
        link: LinkId,
        /// The copy in flight, targets included.
        queued: QueuedMessage,
        /// The link's failure generation when the transfer started.
        gen: u64,
    },
    /// A flow finishes under a sharing link model
    /// ([`bdps_net::linkmodel::FairShare`]). Unlike [`SendComplete`]
    /// (whose one-shot schedule can carry the copy itself), the copy stays
    /// in the engine's per-link flow table — completion re-scheduling would
    /// otherwise clone the copy's target list once per recompute. `resched`
    /// stamps which (re-)schedule this event belongs to: the engine bumps
    /// the flow's stamp whenever its completion time moves, so a popped
    /// event with an outdated stamp (or no live flow at all) is stale and
    /// ignored.
    ///
    /// [`SendComplete`]: EventKind::SendComplete
    FlowComplete {
        /// The transmitting link.
        link: LinkId,
        /// The message whose copy is in flight on the link.
        message: MessageId,
        /// The flow's re-schedule stamp when this event was pushed.
        resched: u64,
    },
    /// A scenario action fires.
    Scenario {
        /// The action.
        action: ScenarioAction,
    },
}

impl EventKind {
    /// A short human-readable label identifying the event — used by the
    /// model-checking explorer to render branch choices in counterexample
    /// traces (`publish:p0`, `process:b2:m5`, `send:l3:m5`,
    /// `scenario:link-down:l1`, ...).
    pub fn label(&self) -> String {
        match self {
            EventKind::Publish { publisher, .. } => format!("publish:p{}", publisher.index()),
            EventKind::Process {
                broker, message, ..
            } => {
                format!("process:b{}:m{}", broker.index(), message.id.raw())
            }
            EventKind::SendComplete { link, queued, .. } => {
                format!("send:l{}:m{}", link.index(), queued.message.id.raw())
            }
            EventKind::FlowComplete { link, message, .. } => {
                format!("flow:l{}:m{}", link.index(), message.raw())
            }
            EventKind::Scenario { action } => format!("scenario:{}", action.label()),
        }
    }

    /// Hashes the event's logical content (ignoring scheduling sequence
    /// numbers) into `h` — the per-event ingredient of
    /// [`Simulation::state_digest`].
    fn digest_into(&self, h: &mut impl Hasher) {
        match self {
            EventKind::Publish { publisher, gen } => {
                h.write_u8(1);
                h.write_u32(publisher.raw());
                h.write_u64(*gen);
            }
            EventKind::Process {
                broker,
                message,
                scope,
            } => {
                h.write_u8(2);
                h.write_u32(broker.raw());
                h.write_u64(message.id.raw());
                for id in scope.iter() {
                    h.write_u32(id.raw());
                }
            }
            EventKind::SendComplete { link, queued, gen } => {
                h.write_u8(3);
                h.write_u32(link.raw());
                h.write_u64(queued.message.id.raw());
                h.write_u64(*gen);
                h.write_u64(queued.enqueue_time.as_micros());
                for t in &queued.targets {
                    h.write_u32(t.subscription.raw());
                }
            }
            EventKind::Scenario { action } => {
                h.write_u8(4);
                h.write(action.label().as_bytes());
            }
            EventKind::FlowComplete {
                link,
                message,
                resched,
            } => {
                h.write_u8(5);
                h.write_u32(link.raw());
                h.write_u64(message.raw());
                h.write_u64(*resched);
            }
        }
    }
}

/// How publish-time matching scopes message copies.
///
/// Unlike the two [`TableLayout`]s, the two modes are **not**
/// bit-identical: covering aggregates admit false positives, so aggregate
/// forwarding may push copies down subtrees that end up serving nobody. What
/// is preserved — and what `tests/forwarding_equivalence.rs` pins per seed ×
/// scenario — is the *delivery set*: the exact set of
/// `(message, subscriber)` pairs delivered, the earning, and the
/// conservation/duplicate audits. Hop counts, traffic and per-message
/// interested counts may legitimately differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ForwardingMode {
    /// Freeze the exact matching subscription set at publication time by
    /// walking the global filter index — `O(population)` per publish. The
    /// reference implementation, kept as the delivery-set oracle.
    #[default]
    Exact,
    /// Match the publication against each edge broker's covering-aggregate
    /// summary only — `O(brokers)` per publish — and carry the aggregate as
    /// the copy's scope. Concrete subscribers are resolved once, at the edge
    /// broker, against the membership frozen at the publish epoch. Requires
    /// [`TableLayout::Sparse`].
    Aggregate,
}

impl ForwardingMode {
    /// Every selectable mode, oracle first.
    pub const ALL: [ForwardingMode; 2] = [ForwardingMode::Exact, ForwardingMode::Aggregate];

    /// Stable CLI/report name (`"exact"` / `"aggregate"`).
    pub fn name(self) -> &'static str {
        match self {
            ForwardingMode::Exact => "exact",
            ForwardingMode::Aggregate => "aggregate",
        }
    }

    /// Resolves a CLI name (case-insensitive): `"exact"` or `"aggregate"`
    /// (alias `"agg"`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "exact" => Some(ForwardingMode::Exact),
            "aggregate" | "agg" => Some(ForwardingMode::Aggregate),
            _ => None,
        }
    }
}

impl fmt::Display for ForwardingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-phase metric accumulation (see [`ScenarioAction::PhaseMark`]).
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// The phase label ("run" for the implicit first phase).
    pub label: String,
    /// When the phase began.
    pub start: SimTime,
    /// When the phase ended (start of the next phase, or end of run).
    pub end: SimTime,
    /// Messages published during the phase.
    pub published: u64,
    /// On-time local deliveries during the phase.
    pub on_time: u64,
    /// Late local deliveries during the phase.
    pub late: u64,
    /// Copies dropped during the phase (expired, unlikely or unsubscribed).
    pub dropped: u64,
    /// Link transmissions started during the phase.
    pub transmissions: u64,
    /// End-to-end delays of on-time deliveries in the phase (ms).
    pub delays_ms: Summary,
}

impl PhaseOutcome {
    pub(crate) fn new(label: String, start: SimTime) -> Self {
        PhaseOutcome {
            label,
            start,
            end: start,
            published: 0,
            on_time: 0,
            late: 0,
            dropped: 0,
            transmissions: 0,
            delays_ms: Summary::new(),
        }
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
    pub completed_transfers: u64,
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

/// One in-flight flow on a link under a sharing link model. The engine
/// keeps these per link; the pending [`EventKind::FlowComplete`] whose
/// `resched` stamp matches is the flow's live completion event.
#[derive(Clone)]
pub(crate) struct LinkFlow {
    /// The copy in flight, targets included (requeued intact on failure).
    pub(crate) queued: QueuedMessage,
    /// Sampled dedicated-link service requirement, µs.
    pub(crate) nominal_us: f64,
    /// Dedicated-link service still owed, µs (drains at `elapsed / flows`).
    pub(crate) remaining_us: f64,
    /// Re-schedule stamp of the live completion event.
    pub(crate) resched: u64,
    /// When the live completion event is scheduled.
    pub(crate) completes_at: SimTime,
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The paper's objective bookkeeping (delivery rate, earning).
    pub tracker: ObjectiveTracker,
    /// Per-broker counters, indexed by broker id.
    pub broker_counters: Vec<BrokerCounters>,
    /// Number of messages published.
    pub published: u64,
    /// Number of link transmissions started.
    pub transmissions: u64,
    /// Transmissions whose copy reached the downstream broker (the rest were
    /// requeued after a link failure or were still in flight at the end).
    pub completed_transfers: u64,
    /// Summary of end-to-end delays of on-time deliveries (ms).
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
    /// Scope-set interns served / interns that reused an existing
    /// allocation (see [`bdps_filter::scope::ScopeInterner`]).
    pub scope_interns: u64,
    /// Interner hits (shared allocations) out of [`scope_interns`](Self::scope_interns).
    pub scope_intern_hits: u64,
    /// Broker tables rebuilt from the full population after link events.
    /// [`TableLayout::Dense`] (the reference engine): every broker, on every
    /// coalesced link batch. [`TableLayout::Sparse`] (the production
    /// engine): always zero — it only ever patches.
    pub tables_rebuilt_full: u64,
    /// Table entries patched in place after link events. `Sparse`: one
    /// aggregate entry per changed `(broker, destination)` pair —
    /// retargeted, inserted on recovered reachability or removed on lost
    /// reachability — not one entry per subscription. `Dense`: always zero.
    pub entries_retargeted: u64,
    /// Destination shortest-path trees recomputed through a route delta over
    /// the run (Σ [`RouteDelta::dests_recomputed`]) — the cost driver of a
    /// link event, at `O(E log V)` each. `Sparse` only; `Dense` recomputes
    /// every tree on every batch without forming a delta and reports zero.
    pub route_trees_recomputed: u64,
    /// `(source, destination)` route entries those recomputes actually
    /// changed (Σ [`RouteDelta::changed_pairs`]) — what
    /// [`entries_retargeted`](Self::entries_retargeted) then has to patch
    /// (zero under `Dense`, like the tree count).
    pub route_pairs_changed: u64,
    /// Aggregate table entries held across all brokers when the run ended —
    /// non-zero only under [`TableLayout::Sparse`], where interior brokers
    /// store one covering-aggregated entry per reachable destination
    /// instead of one entry per subscription.
    pub aggregate_entries: u64,
    /// Rough bytes of subscription-table state at the end of the run: the
    /// sum of every broker's own table plus (under the sparse layout) the
    /// shared population registry, counted once.
    pub table_bytes_estimate: u64,
    /// Per-link utilisation/queueing counters, indexed by link id, with
    /// the busy/flow-time integrals closed at `finished_at`.
    pub link_loads: Vec<LinkLoad>,
}

impl SimulationOutcome {
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
    /// an edge broker — non-zero only under [`TableLayout::Sparse`], where
    /// it equals the local delivery count (interior brokers route on
    /// aggregates, only edge brokers expand to concrete subscribers).
    pub fn expanded_at_edge(&self) -> u64 {
        self.broker_counters
            .iter()
            .map(|c| c.expanded_at_edge)
            .sum()
    }

    /// Total copies handed to links.
    pub fn sent(&self) -> u64 {
        self.broker_counters.iter().map(|c| c.sent).sum()
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
    pub fn check_conservation(&self) -> Result<(), ConservationViolation> {
        let inserted = self.enqueued() + self.requeued();
        let removed = self.sent()
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
                    ("sent", self.sent()),
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConservationBalance {
    /// Copies inserted into output queues vs copies leaving them.
    Queue,
    /// Transmissions started vs transfers completed / requeued / in flight.
    Transfer,
}

impl ConservationBalance {
    /// Stable report name (`"queue"` / `"transfer"`).
    pub fn name(self) -> &'static str {
        match self {
            ConservationBalance::Queue => "queue",
            ConservationBalance::Transfer => "transfer",
        }
    }
}

/// A violated copy-conservation balance, with the counters behind it —
/// self-explaining in test failures and machine-readable in model-checking
/// counterexample traces (see `bdps-mc`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConservationViolation {
    /// Which balance broke.
    pub balance: ConservationBalance,
    /// The insertion side of the balance (what went in / started).
    pub inserted: u64,
    /// The removal side of the balance (where every copy must be accounted).
    pub removed: u64,
    /// Every counter contributing to the balance, by name — the full
    /// breakdown, so a report never needs re-deriving from the outcome.
    pub terms: Vec<(&'static str, u64)>,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DuplicateDeliveryViolation {
    /// Total duplicate deliveries recorded.
    pub count: u64,
    /// The first few offending (message, subscriber) pairs.
    pub samples: Vec<(MessageId, SubscriberId)>,
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

/// The subscription population, addressable by id.
///
/// `entries` is the slice [`Simulation::subscriptions`] exposes; `slot` maps
/// an id to its position, so a leave is a hash lookup and a swap-remove
/// instead of a scan and a `memmove` over 10⁵ entries. Entries are in
/// insertion order until the first leave and in no particular order after
/// it: every consumer keys or sorts by id (tables, the registry, the state
/// digest).
#[derive(Clone, Default)]
struct Population {
    entries: Vec<(Subscription, BrokerId)>,
    slot: HashMap<SubscriptionId, usize>,
}

impl Population {
    fn new(entries: Vec<(Subscription, BrokerId)>) -> Self {
        let slot = entries
            .iter()
            .enumerate()
            .map(|(i, (sub, _))| (sub.id, i))
            .collect();
        Population { entries, slot }
    }

    /// Adds a subscription attached at `edge`, replacing any entry with the
    /// same id.
    fn insert(&mut self, subscription: Subscription, edge: BrokerId) {
        match self.slot.get(&subscription.id) {
            Some(&i) => self.entries[i] = (subscription, edge),
            None => {
                self.slot.insert(subscription.id, self.entries.len());
                self.entries.push((subscription, edge));
            }
        }
    }

    /// Removes a subscription, returning the edge broker it was attached at.
    fn remove(&mut self, id: SubscriptionId) -> Option<BrokerId> {
        let i = self.slot.remove(&id)?;
        let (_, edge) = self.entries.swap_remove(i);
        if let Some((moved, _)) = self.entries.get(i) {
            self.slot.insert(moved.id, i);
        }
        Some(edge)
    }
}

/// A fully constructed simulation, ready to [`run`](Simulation::run).
///
/// Its state is three groups split along who may write what while traffic
/// flows (see `traffic.rs`) — the traffic `core`, the `shared` context
/// only scenario actions mutate, and the order-sensitive `totals` — plus
/// the population and routing state scenario application maintains.
pub struct Simulation {
    pub(crate) core: TrafficCore,
    pub(crate) shared: Shared,
    pub(crate) totals: Totals,
    subscriptions: Population,
    /// The graph the schedulers and routing believe in (identical to the true
    /// graph unless an estimation error is configured). Kept so routing can
    /// be recomputed when links fail or recover.
    believed_graph: OverlayGraph,
    routing: Routing,
    /// Set when link liveness changed since the last routing rebuild.
    routing_dirty: bool,
    /// Links whose liveness toggled since the last rebuild (deduplicated via
    /// `link_dirty`); the incremental path diffs them against
    /// `link_alive_at_rebuild` to find the net removed/restored sets.
    dirty_links: Vec<LinkId>,
    link_dirty: Vec<bool>,
    /// Per-link liveness as of the last routing rebuild.
    link_alive_at_rebuild: Vec<bool>,
    /// How brokers materialise their subscription tables (dense replicated
    /// entries, or sparse covering aggregates over the shared registry).
    table_layout: TableLayout,
    tables_rebuilt_full: u64,
    entries_retargeted: u64,
    route_trees_recomputed: u64,
    route_pairs_changed: u64,
    rng: SimRng,
    drain_grace: Duration,
}

/// A deliberately broken protocol invariant, compiled in only under the
/// `fault-injection` feature and armed via [`Simulation::inject_fault`].
///
/// The faults recreate the *classes* of the two historical oracle-found bugs
/// so the model-checking explorer (`bdps-mc`) can prove it detects real
/// violations: a conservation break (copies vanishing) and a duplicate
/// delivery. An unarmed build behaves bit-identically to one without the
/// feature.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A transfer voided by a link failure silently drops its copy instead
    /// of requeueing it — breaking the transfer-balance conservation law
    /// (the historical flap-voiding bug class).
    VoidedTransferVanishes,
    /// Every local delivery is recorded twice — breaking the
    /// no-duplicate-delivery audit.
    DoubleDelivery,
}

/// Compares a broker's live dense (or sparse-local) table against a
/// from-scratch rebuild, reporting the first divergent entry. Entries are
/// matched by subscription id; the routed fields (edge broker, next hop,
/// next link, path statistics) must agree exactly.
fn compare_dense_tables(
    broker: BrokerId,
    live: &SubscriptionTable,
    fresh: &SubscriptionTable,
) -> Result<(), String> {
    if live.len() != fresh.len() {
        return Err(format!(
            "broker {broker} table holds {} entries, scratch rebuild has {}",
            live.len(),
            fresh.len()
        ));
    }
    for e in fresh.entries() {
        let id = e.subscription.id;
        let Some(l) = live.entry(id) else {
            return Err(format!(
                "broker {broker} table is missing entry {id} present in a scratch rebuild"
            ));
        };
        if l.edge_broker != e.edge_broker
            || l.next_hop != e.next_hop
            || l.next_link != e.next_link
            || l.stats != e.stats
        {
            return Err(format!(
                "broker {broker} entry {id} drifted from the scratch rebuild: \
                 live (edge {}, hop {:?}, link {:?}) vs fresh (edge {}, hop {:?}, link {:?})",
                l.edge_broker, l.next_hop, l.next_link, e.edge_broker, e.next_hop, e.next_link
            ));
        }
    }
    Ok(())
}

/// Write-locks the sparse layout's population registry for one churn
/// mutation. Neither failure is recoverable here — a half-registered
/// subscription would desynchronise the registry from the broker tables —
/// so both surface as structured errors instead of panics.
fn write_population<'a>(
    shared: &'a Shared,
    during: &'static str,
) -> Result<RwLockWriteGuard<'a, SharedPopulation>, SimError> {
    shared
        .population
        .as_ref()
        .ok_or(SimError::PopulationMissing { during })?
        .write()
        .map_err(|_| SimError::PopulationPoisoned { during })
}

impl Simulation {
    /// The one constructor, reached through [`SimulationBuilder`]'s
    /// `try_build` / `try_build_on`: validates everything the configuration
    /// decides, then builds routing, the population, the event stream and
    /// the per-broker state for the configured layout, so a `Simulation` is
    /// complete the moment it exists.
    ///
    /// `config.topology`, `config.seed` and `config.shards` are the
    /// caller's business (it already turned the first two into `topology`
    /// and `rng`, and it picks the executor). All randomness is derived
    /// from `rng`; the scenario draws from a stream split off its seed, so
    /// the main simulation stream is the same whatever the scenario does.
    /// The routing tables, path statistics and `FT` estimates are computed
    /// from link parameters biased by `config.estimation_error` while
    /// transfers follow the true link model.
    ///
    /// [`SimulationBuilder`]: crate::builder::SimulationBuilder
    pub(crate) fn try_new(
        topology: Topology,
        config: SimulationConfig,
        mut rng: SimRng,
        drain_grace: Duration,
    ) -> Result<Self, SimError> {
        let SimulationConfig {
            workload,
            scheduler,
            estimation_error,
            scenario,
            table_layout,
            link_model,
            forwarding,
            ..
        } = config;
        workload.validate()?;
        scheduler.validate()?;
        if forwarding == ForwardingMode::Aggregate && table_layout == TableLayout::Dense {
            return Err(SimError::AggregateForwardingNeedsSparseLayout);
        }
        let link_count = topology.graph.link_count();
        let publisher_slots = topology
            .publishers
            .iter()
            .map(|(p, _)| p.index() + 1)
            .max()
            .unwrap_or(0);
        if publisher_slots > key::MAX_PUBLISHER_SLOTS || link_count > key::MAX_LINKS {
            return Err(BdpsError::InvalidConfig(format!(
                "canonical event keys support at most {} publisher slots and {} links, \
                 the overlay has {publisher_slots} and {link_count}",
                key::MAX_PUBLISHER_SLOTS,
                key::MAX_LINKS
            ))
            .into());
        }

        // The graph the *schedulers believe in*: identical structure, link
        // rate parameters perturbed by the estimation error. Link identifiers
        // are preserved because links are re-added in the original order.
        let believed_graph = if estimation_error.is_none() {
            topology.graph.clone()
        } else {
            let mut g = bdps_overlay::graph::OverlayGraph::new();
            for b in topology.graph.brokers() {
                g.add_broker(b.layer);
            }
            for l in topology.graph.links() {
                let believed = estimation_error.apply(l.quality.rate_distribution());
                let quality =
                    bdps_net::link::LinkQuality::new(bdps_net::bandwidth::NormalRate::new(
                        believed.mean().max(0.01),
                        believed.std_dev(),
                    ))
                    .with_propagation(l.quality.propagation);
                g.add_link(l.from, l.to, quality);
            }
            g
        };

        let routing = Routing::compute(&believed_graph);

        // Subscription population: one subscription per subscriber.
        let mut subscriptions = Vec::with_capacity(topology.subscribers.len());
        for (i, (subscriber, broker)) in topology.subscribers.iter().enumerate() {
            let sub = workload.generate_subscription(
                SubscriptionId::new(i as u32),
                *subscriber,
                &mut rng,
            );
            subscriptions.push((sub, *broker));
        }

        // The scenario event stream, drawn from an independent seed-derived
        // stream so it neither perturbs nor depends on the main simulation
        // randomness (replay stays exact whatever the scenario does).
        let mut scenario_rng = rng.split(0x5CE7_A210);
        let scenario_events = scenario.materialize(&topology, &workload, &mut scenario_rng);
        crate::scenario::validate_events(&scenario_events, &topology.graph)?;

        // Global filter index used to count ts_i at publication time.
        let global_index =
            MatchIndex::from_subscriptions(subscriptions.iter().map(|(s, _)| (s.id, &s.filter)));

        // Link bookkeeping.
        let n = topology.graph.broker_count();
        let mut link_of = vec![vec![None; n]; n];
        for l in topology.graph.links() {
            link_of[l.from.index()][l.to.index()] = Some(l.id);
        }

        // One independent, seed-derived RNG stream per publisher and per
        // link (`SimRng::split` derives from the seed alone, so the streams
        // are fixed the moment the seed is). Distinct tag bases keep them
        // disjoint from the builder's topology/sim splits (0, 1) and the
        // scenario stream (0x5CE7_A210).
        const PUBLISHER_STREAM_BASE: u64 = 0x70B1_0000_0000;
        const LINK_STREAM_BASE: u64 = 0x114B_0000_0000;
        let publisher_rng: Vec<SimRng> = (0..publisher_slots)
            .map(|i| rng.split(PUBLISHER_STREAM_BASE + i as u64))
            .collect();
        let link_rng: Vec<SimRng> = (0..link_count)
            .map(|i| rng.split(LINK_STREAM_BASE + i as u64))
            .collect();

        let mut sim = Simulation {
            core: TrafficCore::new(publisher_rng, link_rng, 0),
            shared: Shared {
                end: SimTime::ZERO + workload.duration,
                topology,
                global_index,
                workload,
                scheduler,
                link_model: link_model.create().into(),
                link_of,
                link_down_depth: vec![0; link_count],
                link_fail_gen: vec![0; link_count],
                rate_multiplier: vec![1.0; publisher_slots],
                publish_gen: vec![0; publisher_slots],
                forwarding,
                population: None,
                #[cfg(feature = "fault-injection")]
                injected_fault: None,
            },
            totals: Totals {
                tracker: ObjectiveTracker::new(),
                phases: vec![PhaseOutcome::new("run".into(), SimTime::ZERO)],
                valid_delays_ms: Summary::new(),
                published: 0,
                transmissions: 0,
                completed_transfers: 0,
            },
            subscriptions: Population::new(subscriptions),
            believed_graph,
            routing,
            routing_dirty: false,
            dirty_links: Vec::new(),
            link_dirty: vec![false; link_count],
            link_alive_at_rebuild: vec![true; link_count],
            table_layout,
            tables_rebuilt_full: 0,
            entries_retargeted: 0,
            route_trees_recomputed: 0,
            route_pairs_changed: 0,
            rng,
            drain_grace,
        };

        // Scenario keys rank lowest, so at equal times a scenario action
        // applies before publications and transfers.
        for (idx, ev) in scenario_events.into_iter().enumerate() {
            sim.core.push(
                SimTime::ZERO + ev.at,
                key::scenario(idx as u64),
                EventKind::Scenario { action: ev.action },
            );
        }

        // Seed the publishers.
        for &(publisher, _) in &sim.shared.topology.publishers {
            sim.core.schedule_next_publication(&sim.shared, publisher);
        }
        sim.build_brokers();
        Ok(sim)
    }

    /// Materialises the per-broker state (tables and queues) for the
    /// configured layout — the constructor's last step. Tables are built
    /// from the believed graph (what measurement reports), while transfer
    /// times are sampled from the true graph.
    fn build_brokers(&mut self) {
        let scheduler = &self.shared.scheduler;
        match self.table_layout {
            TableLayout::Dense => {
                let tables = SubscriptionTable::build_all(
                    &self.believed_graph,
                    &self.routing,
                    &self.subscriptions.entries,
                );
                self.core.brokers = tables
                    .into_iter()
                    .map(|table| {
                        BrokerState::from_overlay(
                            &self.believed_graph,
                            table.broker(),
                            table,
                            scheduler.clone(),
                        )
                    })
                    .collect();
            }
            TableLayout::Sparse => {
                let population: PopulationHandle = Arc::new(RwLock::new(
                    SharedPopulation::from_population(&self.subscriptions.entries),
                ));
                self.core.brokers = (0..self.believed_graph.broker_count())
                    .map(|i| {
                        let id = BrokerId::new(i as u32);
                        BrokerState::from_overlay(
                            &self.believed_graph,
                            id,
                            SparseTable::build(id, &self.routing, &population),
                            scheduler.clone(),
                        )
                    })
                    .collect();
                self.shared.population = Some(population);
            }
        }
    }

    /// The link transfer-time model this run uses.
    pub fn link_model(&self) -> LinkModelKind {
        self.shared.link_model.kind()
    }

    /// The forwarding mode this run uses.
    pub fn forwarding(&self) -> ForwardingMode {
        self.shared.forwarding
    }

    /// The objective bookkeeping accumulated so far — the mid-run view the
    /// model-checking explorer reads to collect terminal delivery sets.
    pub fn tracker(&self) -> &ObjectiveTracker {
        &self.totals.tracker
    }

    /// The table layout this run uses.
    pub fn table_layout(&self) -> TableLayout {
        self.table_layout
    }

    /// The subscription population of this run (changes under churn; in no
    /// particular order once a subscription has left).
    pub fn subscriptions(&self) -> &[(Subscription, BrokerId)] {
        &self.subscriptions.entries
    }

    /// The scheduler configuration of this run.
    pub fn scheduler(&self) -> &SchedulerConfig {
        &self.shared.scheduler
    }

    /// Runs the simulation to completion and returns the outcome, panicking
    /// on the (thread-environment-only) failures [`try_run`](Self::try_run)
    /// surfaces as [`SimError`].
    pub fn run(self) -> SimulationOutcome {
        match self.try_run() {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the simulation to completion, surfacing structured
    /// [`SimError`]s (e.g. a population registry lock poisoned by a sibling
    /// thread) instead of panicking.
    pub fn try_run(mut self) -> Result<SimulationOutcome, SimError> {
        let hard_stop = self.hard_stop();
        while let Some(entry) = self.core.events.pop_if_at_or_before(hard_stop) {
            self.try_apply(entry)?;
        }
        Ok(self.into_outcome())
    }

    /// The time past which [`run`](Self::run) stops popping events: the end
    /// of the publication period plus the drain grace.
    pub fn hard_stop(&self) -> SimTime {
        self.shared.end + self.drain_grace
    }

    /// Pops and applies the next event if it is at or before `limit`.
    /// Returns false when nothing was applied (run over, or the next event
    /// is past the limit). The run loop is exactly `while self.step_next(..)`.
    pub fn step_next(&mut self, limit: SimTime) -> bool {
        match self.core.events.pop_if_at_or_before(limit) {
            Some(entry) => {
                self.apply(entry);
                true
            }
            None => false,
        }
    }

    /// Removes every pending event scheduled at the earliest pending time at
    /// or before `limit` — the *same-instant frontier*, in deterministic
    /// `(time, seq)` order (the order the plain run loop would process them
    /// in). The model-checking explorer branches here: each frontier
    /// permutation is a distinct legal interleaving. Events not chosen for
    /// [`apply`](Self::apply) must be re-inserted with
    /// [`push_back`](Self::push_back).
    pub fn take_frontier(&mut self, limit: SimTime) -> Vec<Scheduled<EventKind>> {
        self.core.events.take_frontier(limit)
    }

    /// Re-inserts an event taken with [`take_frontier`](Self::take_frontier)
    /// without assigning a new sequence number, so the deterministic
    /// `(time, seq)` order among the re-inserted events is preserved.
    pub fn push_back(&mut self, event: Scheduled<EventKind>) {
        self.core.events.push(event);
    }

    /// Applies one event: advances the clock to the event's time and runs
    /// its handler, scheduling any follow-up events. This is the engine's
    /// single step; [`run`](Self::run) is a loop of these, and the
    /// model-checking explorer calls it directly with events chosen from a
    /// [`take_frontier`](Self::take_frontier) batch.
    pub fn apply(&mut self, entry: Scheduled<EventKind>) {
        if let Err(e) = self.try_apply(entry) {
            panic!("{e}");
        }
    }

    /// Like [`apply`](Self::apply), but surfaces structured [`SimError`]s
    /// instead of panicking. Traffic events run the shared handlers of
    /// `traffic.rs` against this simulation's own core, with the
    /// totals as the effect sink; scenario actions are applied here.
    pub fn try_apply(&mut self, entry: Scheduled<EventKind>) -> Result<(), SimError> {
        match entry.item {
            EventKind::Scenario { action } => {
                self.core.begin_event(entry.time);
                self.on_scenario(action, entry.time)
            }
            _ => {
                self.core.apply(&self.shared, &mut self.totals, entry);
                Ok(())
            }
        }
    }

    /// Computes the end-of-run outcome from the current state without
    /// consuming the simulation — the explorer snapshots outcomes at
    /// quiescence while keeping the state for further checks.
    pub fn outcome_snapshot(&self) -> SimulationOutcome {
        let core = &self.core;
        // End-of-run accounting for the conservation invariants: whatever is
        // left in the event queue is either in flight on a link or inside a
        // broker's processing module; whatever sits in output queues is
        // queued.
        let queued_at_end: u64 = core.brokers.iter().map(|b| b.queued_total() as u64).sum();
        let mut in_flight_at_end = 0u64;
        let mut pending_process_at_end = 0u64;
        core.events.for_each(&mut |entry| match entry.item {
            EventKind::SendComplete { .. } => in_flight_at_end += 1,
            EventKind::Process { .. } => pending_process_at_end += 1,
            // FlowComplete events are not counted: under a sharing model
            // the flow table is authoritative (stale rescheduled events
            // would otherwise inflate the in-flight count).
            _ => {}
        });
        in_flight_at_end += core.link_flows.iter().map(|f| f.len() as u64).sum::<u64>();
        let mut phases = self.totals.phases.clone();
        for i in 0..phases.len() {
            phases[i].end = if i + 1 < phases.len() {
                phases[i + 1].start
            } else {
                core.now
            };
        }

        let aggregate_entries: u64 = core
            .brokers
            .iter()
            .map(|b| b.table().aggregate_entries())
            .sum();
        let table_bytes_estimate: u64 = core
            .brokers
            .iter()
            .map(|b| b.table().bytes_estimate())
            .sum::<u64>()
            + self
                .shared
                .population
                .as_ref()
                .map(|p| bdps_overlay::sparse::read_population(p).bytes_estimate())
                .unwrap_or(0);

        SimulationOutcome {
            tracker: self.totals.tracker.clone(),
            broker_counters: core.brokers.iter().map(|b| b.counters).collect(),
            published: self.totals.published,
            transmissions: self.totals.transmissions,
            completed_transfers: self.totals.completed_transfers,
            valid_delays_ms: self.totals.valid_delays_ms.clone(),
            finished_at: core.now,
            queued_at_end,
            in_flight_at_end,
            pending_process_at_end,
            phases,
            events_processed: core.events_processed,
            peak_pending_events: core.peak_pending as u64,
            scope_interns: core.scope_interner.interns(),
            scope_intern_hits: core.scope_interner.hits(),
            tables_rebuilt_full: self.tables_rebuilt_full,
            entries_retargeted: self.entries_retargeted,
            route_trees_recomputed: self.route_trees_recomputed,
            route_pairs_changed: self.route_pairs_changed,
            aggregate_entries,
            table_bytes_estimate,
            link_loads: self.link_loads_snapshot(),
        }
    }

    /// The per-link counters with the open busy/flow-time integral interval
    /// closed at the current clock (the stored accumulators only advance
    /// when a link's in-flight set changes).
    fn link_loads_snapshot(&self) -> Vec<LinkLoad> {
        let core = &self.core;
        let closed = |(i, load): (usize, &LinkLoad)| {
            let mut load = load.clone();
            let elapsed = core.now.duration_since(core.link_last_change[i]);
            // Busy time accrues once however many flows share the link.
            load.busy_us += elapsed.as_micros() * core.active_flows(i).min(1);
            load.flow_time_us += elapsed.as_micros() * core.active_flows(i);
            load
        };
        core.link_load.iter().enumerate().map(closed).collect()
    }

    /// Consumes the simulation and returns the outcome (the tail of
    /// [`run`](Self::run)).
    pub fn into_outcome(self) -> SimulationOutcome {
        self.outcome_snapshot()
    }

    /// Deep-clones the simulation into an independent branch: every piece of
    /// mutable state — broker tables and queues, the event set, the RNG, the
    /// objective tracker, and (under the sparse layout) the shared
    /// population registry — is copied, so stepping the branch can never
    /// perturb the original. This is the branching primitive of the
    /// model-checking explorer.
    pub fn fork(&self) -> Simulation {
        let mut branch = Simulation {
            core: self.core.clone(),
            shared: self.shared.clone(),
            totals: self.totals.clone(),
            subscriptions: self.subscriptions.clone(),
            believed_graph: self.believed_graph.clone(),
            routing: self.routing.clone(),
            routing_dirty: self.routing_dirty,
            dirty_links: self.dirty_links.clone(),
            link_dirty: self.link_dirty.clone(),
            link_alive_at_rebuild: self.link_alive_at_rebuild.clone(),
            table_layout: self.table_layout,
            tables_rebuilt_full: self.tables_rebuilt_full,
            entries_retargeted: self.entries_retargeted,
            route_trees_recomputed: self.route_trees_recomputed,
            route_pairs_changed: self.route_pairs_changed,
            rng: self.rng.clone(),
            drain_grace: self.drain_grace,
        };
        // The sparse layout shares one population registry behind an
        // `Arc<RwLock>`; a branch must get its own deep copy, and every
        // cloned broker table must be re-pointed at it.
        if let Some(shared) = &self.shared.population {
            let own: PopulationHandle = Arc::new(RwLock::new(
                bdps_overlay::sparse::read_population(shared).clone(),
            ));
            for b in &mut branch.core.brokers {
                b.repoint_population(&own);
            }
            branch.shared.population = Some(own);
        }
        branch
    }

    /// Hashes the complete *logical* state of the simulation — clock,
    /// pending events (ignoring scheduling sequence numbers), broker
    /// counters, queues and tables, link liveness, RNG stream position and
    /// objective bookkeeping — into one `u64`. Two states with equal digests
    /// behave identically under any same-instant frontier permutation, which
    /// is what lets the model-checking explorer deduplicate branches that
    /// converge after commuting events.
    ///
    /// Sequence numbers are deliberately excluded: the explorer enumerates
    /// every frontier permutation anyway, so the relative seq order of
    /// same-instant events never narrows the set of explored behaviours.
    pub fn state_digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(self.core.now.as_micros());
        for &counter in &self.core.next_message {
            h.write_u64(counter);
        }
        h.write_u64(self.totals.published);
        h.write_u64(self.totals.transmissions);
        h.write_u64(self.totals.completed_transfers);
        for r in std::iter::once(&self.rng)
            .chain(self.core.publisher_rng.iter())
            .chain(self.core.link_rng.iter())
        {
            for w in r.state_words() {
                h.write_u64(w);
            }
        }
        // Pending events as a sorted multiset of (time, content digest).
        let mut pending: Vec<(u64, u64)> = Vec::with_capacity(self.core.events.len());
        self.core.events.for_each(&mut |e| {
            let mut eh = std::collections::hash_map::DefaultHasher::new();
            e.item.digest_into(&mut eh);
            pending.push((e.time.as_micros(), eh.finish()));
        });
        pending.sort_unstable();
        h.write_usize(pending.len());
        for (t, d) in pending {
            h.write_u64(t);
            h.write_u64(d);
        }
        // Link state.
        for (i, busy) in self.core.link_busy.iter().enumerate() {
            h.write_u8(*busy as u8);
            h.write_u32(self.shared.link_down_depth[i]);
            h.write_u64(self.shared.link_fail_gen[i]);
            h.write_u8(self.link_alive_at_rebuild[i] as u8);
            h.write_u64(self.core.link_last_change[i].as_micros());
            let load = &self.core.link_load[i];
            h.write_u64(load.transmissions);
            h.write_u64(load.completed_transfers);
            h.write_u64(load.busy_us);
            h.write_u64(load.flow_time_us);
            h.write_u64(load.peak_flows);
            h.write_u64(load.peak_queue);
            h.write_u64(load.work_done_us.to_bits());
            // Flows as an id-sorted multiset: the Vec order is admission
            // order, which is not logical state.
            let mut flows: Vec<&LinkFlow> = self.core.link_flows[i].iter().collect();
            flows.sort_unstable_by_key(|f| f.queued.message.id.raw());
            h.write_usize(flows.len());
            for f in flows {
                h.write_u64(f.queued.message.id.raw());
                h.write_u64(f.nominal_us.to_bits());
                h.write_u64(f.remaining_us.to_bits());
                h.write_u64(f.resched);
                h.write_u64(f.completes_at.as_micros());
            }
        }
        h.write_u8(self.shared.link_model.kind() as u8);
        h.write_u8(self.shared.forwarding as u8);
        // Publish epochs as a sorted list (aggregate forwarding only; the
        // map is insertion-ordered-free but iteration order is not logical
        // state).
        let mut epochs: Vec<(u64, u64)> = self
            .core
            .publish_epoch
            .iter()
            .map(|(m, e)| (m.raw(), *e))
            .collect();
        epochs.sort_unstable();
        h.write_usize(epochs.len());
        for (m, e) in epochs {
            h.write_u64(m);
            h.write_u64(e);
        }
        h.write_u8(self.routing_dirty as u8);
        // Brokers: counters, queues and tables.
        for b in &self.core.brokers {
            h.write_u64(b.state_digest());
        }
        if let Some(pop) = &self.shared.population {
            h.write_u64(bdps_overlay::sparse::read_population(pop).state_digest());
        }
        // Population membership (the dense layout has no registry), in id
        // order: the entry order is not logical state.
        let mut members: Vec<(u32, u32)> = self
            .subscriptions
            .entries
            .iter()
            .map(|(sub, edge)| (sub.id.raw(), edge.raw()))
            .collect();
        members.sort_unstable();
        h.write_usize(members.len());
        for (id, edge) in members {
            h.write_u32(id);
            h.write_u32(edge);
        }
        h.write_u64(self.totals.tracker.state_digest());
        h.finish()
    }

    /// Verifies that routing and every broker's subscription table agree
    /// with a from-scratch rebuild — the table/routing-consistency invariant
    /// the model checker asserts in every interleaving.
    ///
    /// The reference point is the link liveness **as of the last rebuild**
    /// (`link_alive_at_rebuild`): while a coalesced same-instant link batch
    /// is still in flight the engine intentionally defers the rebuild, so
    /// tables lag the instantaneous liveness but must always equal what a
    /// scratch rebuild at the last-rebuilt liveness produces.
    pub fn audit_tables(&self) -> Result<(), String> {
        let alive = &self.link_alive_at_rebuild;
        let fresh_routing = Routing::compute_filtered(&self.believed_graph, |l| alive[l.index()]);
        if fresh_routing != self.routing {
            return Err(
                "routing disagrees with a from-scratch recompute at the last-rebuilt liveness"
                    .to_string(),
            );
        }
        for broker in &self.core.brokers {
            match broker.table() {
                BrokerTable::Dense(table) => {
                    let fresh = SubscriptionTable::build(
                        broker.id,
                        &self.routing,
                        &self.subscriptions.entries,
                    );
                    compare_dense_tables(broker.id, table, &fresh)?;
                }
                BrokerTable::Sparse(table) => {
                    let fresh = SparseTable::build(broker.id, &self.routing, table.population());
                    compare_dense_tables(broker.id, table.local(), fresh.local())?;
                    let current: Vec<_> = table.aggregates().collect();
                    let rebuilt: Vec<_> = fresh.aggregates().collect();
                    if current.len() != rebuilt.len() {
                        return Err(format!(
                            "broker {} holds {} aggregates, scratch rebuild has {}",
                            broker.id,
                            current.len(),
                            rebuilt.len()
                        ));
                    }
                    for ((dest_a, a), (dest_b, b)) in current.iter().zip(rebuilt.iter()) {
                        if dest_a != dest_b || a != b {
                            return Err(format!(
                                "broker {} aggregate for {} drifted from the scratch rebuild",
                                broker.id, dest_a
                            ));
                        }
                    }
                    // Envelope-vs-members invariant: every aggregate's QoS
                    // envelope must be *exactly* the fold over the
                    // destination group's current members. The scratch fold
                    // iterates member records directly — independent of the
                    // prefix-fold machinery the table's envelope came from —
                    // so a prefix-maintenance bug cannot agree with it.
                    {
                        let pop = bdps_overlay::sparse::read_population(table.population());
                        let epoch = pop.epoch();
                        for (dest, a) in &current {
                            let scratch = pop.scratch_envelope(*dest, epoch);
                            if a.envelope != scratch {
                                return Err(format!(
                                    "broker {} envelope for {} is {:?}, but the fold over \
                                     current members gives {:?}",
                                    broker.id, dest, a.envelope, scratch
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Arms a deliberately broken invariant, proving the model-checking
    /// explorer catches real violations (see `bdps-mc`'s fault-injection
    /// suite). Compiled only with the `fault-injection` feature; without the
    /// fault armed, behaviour is untouched.
    #[cfg(feature = "fault-injection")]
    pub fn inject_fault(&mut self, fault: InjectedFault) {
        self.shared.injected_fault = Some(fault);
    }

    fn on_scenario(&mut self, action: ScenarioAction, time: SimTime) -> Result<(), SimError> {
        match action {
            ScenarioAction::SubscriptionJoin {
                subscription,
                broker,
            } => {
                self.shared
                    .global_index
                    .insert(subscription.id, subscription.filter.clone());
                match self.table_layout {
                    TableLayout::Dense => {
                        for i in 0..self.core.brokers.len() {
                            if let Some(entry) = SubscriptionTable::entry_for(
                                self.core.brokers[i].id,
                                &self.routing,
                                &subscription,
                                broker,
                            ) {
                                self.core.brokers[i].insert_subscription(entry);
                            }
                        }
                    }
                    TableLayout::Sparse => {
                        // Register once globally, expand only at the edge;
                        // interior brokers just refresh their aggregate from
                        // the group's stats, read once for all of them.
                        let group = {
                            let mut population =
                                write_population(&self.shared, "subscription join")?;
                            population.insert(subscription.clone(), broker);
                            population.group_stats(broker)
                        };
                        let routing = &self.routing;
                        for b in &mut self.core.brokers {
                            if b.id == broker {
                                b.insert_local_subscription(subscription.clone());
                            } else {
                                b.sync_aggregate(routing, broker, group);
                            }
                        }
                    }
                }
                self.subscriptions.insert(subscription, broker);
            }
            ScenarioAction::SubscriptionLeave { subscription } => {
                // An id nobody holds is in no index, table or queued copy.
                let Some(edge) = self.subscriptions.remove(subscription) else {
                    return Ok(());
                };
                self.shared.global_index.remove(subscription);
                // Under the sparse layout the aggregate towards the edge the
                // subscription left shrinks (or goes) at every other broker.
                let shrunk_group = match self.table_layout {
                    TableLayout::Sparse => {
                        let mut population = write_population(&self.shared, "subscription leave")?;
                        population.remove(subscription);
                        Some(population.group_stats(edge))
                    }
                    TableLayout::Dense => None,
                };
                let routing = &self.routing;
                let mut orphaned = 0;
                for b in &mut self.core.brokers {
                    // Every queued copy loses the target; the table row
                    // lives at every broker (dense) or at the edge alone.
                    orphaned += match shrunk_group {
                        Some(group) if b.id != edge => {
                            b.sync_aggregate(routing, edge, group);
                            b.strip_queued(subscription)
                        }
                        _ => b.remove_subscription(subscription),
                    };
                }
                self.totals.emit(Effect::Dropped { count: orphaned });
            }
            ScenarioAction::PublisherRate {
                publisher,
                multiplier,
            } => {
                let all = &self.shared.topology.publishers;
                let targets: Vec<PublisherId> = match publisher {
                    Some(p) => vec![p],
                    None => all.iter().map(|(p, _)| *p).collect(),
                };
                for p in targets {
                    if p.index() >= self.shared.rate_multiplier.len() {
                        continue;
                    }
                    self.shared.rate_multiplier[p.index()] = multiplier.max(0.0);
                    // Invalidate the pending publication drawn at the old
                    // rate and restart the chain at the new one.
                    self.shared.publish_gen[p.index()] += 1;
                    self.core.schedule_next_publication(&self.shared, p);
                }
            }
            ScenarioAction::LinkDown { link } => {
                // Bump the failure generation so transfers in flight right
                // now are voided when their SendComplete pops, even if the
                // link flaps back up before they complete. Queued copies
                // simply wait behind the dead link.
                self.shared.link_fail_gen[link.index()] += 1;
                // Under a sharing link model flows are voided eagerly: the
                // copies return to the sender's queue at the failure
                // instant (the sender knows its link died) and the pending
                // FlowComplete events go stale — no live flow will match
                // them at pop.
                if !self.core.link_flows[link.index()].is_empty() {
                    self.core.touch_link(link);
                    let (from, to) = self.shared.endpoints(link);
                    let flows = std::mem::take(&mut self.core.link_flows[link.index()]);
                    for flow in flows {
                        self.core.link_load[link.index()].work_done_us +=
                            flow.nominal_us - flow.remaining_us.max(0.0);
                        let accepted = self.core.brokers[from.index()].requeue(to, flow.queued);
                        debug_assert!(accepted, "sender must have a queue for its own link");
                    }
                    self.core.note_queue_peak(link, from, to);
                }
                if self.shared.link_down_depth[link.index()] == 0 {
                    self.routing_dirty = true;
                    self.mark_link_dirty(link);
                }
                self.shared.link_down_depth[link.index()] += 1;
                self.maybe_rebuild_routing()?;
            }
            ScenarioAction::LinkUp { link } => {
                let depth = &mut self.shared.link_down_depth[link.index()];
                if *depth > 0 {
                    *depth -= 1;
                    if *depth == 0 {
                        self.routing_dirty = true;
                        self.mark_link_dirty(link);
                    }
                }
                self.maybe_rebuild_routing()?;
                if self.shared.link_down_depth[link.index()] == 0 {
                    // Pump the queue that was waiting behind the outage.
                    let (from, to) = self.shared.endpoints(link);
                    self.core.try_send(&self.shared, &mut self.totals, from, to);
                }
            }
            ScenarioAction::PhaseMark { label } => {
                self.totals.phases.push(PhaseOutcome::new(label, time));
            }
        }
        Ok(())
    }

    /// Records a link whose liveness just toggled, for the incremental
    /// rebuild's net removed/restored diff.
    fn mark_link_dirty(&mut self, link: LinkId) {
        if !self.link_dirty[link.index()] {
            self.link_dirty[link.index()] = true;
            self.dirty_links.push(link);
        }
    }

    /// Brings routing and every broker's subscription table back in line
    /// with current link liveness (queues and counters untouched), if any
    /// link's liveness changed since the last rebuild.
    ///
    /// Every link event calls this; when the immediately following event is
    /// another link change at the same instant (a blackout floods hundreds
    /// of them), the rebuild is deferred to the batch's last link event —
    /// pure coalescing, the dirty flag guarantees it cannot be lost even if
    /// that last event is itself a liveness no-op (e.g. the second down of a
    /// nested failure).
    ///
    /// The reference engine ([`TableLayout::Dense`]) recomputes routing from
    /// scratch and rebuilds every table from the full population; the
    /// production engine ([`TableLayout::Sparse`]) recomputes only the
    /// destinations the batch can affect and patches only the aggregates
    /// whose route entry changed. Both leave routing in identical states.
    fn maybe_rebuild_routing(&mut self) -> Result<(), SimError> {
        if !self.routing_dirty {
            return Ok(());
        }
        if let Some((time, kind)) = self.core.events.peek() {
            if time == self.core.now
                && matches!(
                    kind,
                    EventKind::Scenario {
                        action: ScenarioAction::LinkDown { .. } | ScenarioAction::LinkUp { .. }
                    }
                )
            {
                return Ok(());
            }
        }
        self.routing_dirty = false;
        match self.table_layout {
            TableLayout::Dense => self.rebuild_routing_full(),
            TableLayout::Sparse => self.rebuild_routing_incremental()?,
        }
        Ok(())
    }

    /// Resolves the dirty-link set against the liveness snapshot of the last
    /// rebuild, returning the links that net-failed and net-recovered since
    /// then (a link that flapped down and back up within one coalesced batch
    /// appears in neither) and refreshing the snapshot.
    fn drain_dirty_links(&mut self) -> (Vec<LinkId>, Vec<LinkId>) {
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for &link in &self.dirty_links {
            let i = link.index();
            self.link_dirty[i] = false;
            let alive = self.shared.link_down_depth[i] == 0;
            if alive == self.link_alive_at_rebuild[i] {
                continue;
            }
            self.link_alive_at_rebuild[i] = alive;
            if alive {
                added.push(link);
            } else {
                removed.push(link);
            }
        }
        self.dirty_links.clear();
        (removed, added)
    }

    /// The reference engine's rebuild: all-pairs routing recompute plus a
    /// from-scratch table rebuild on every broker — `O(brokers ×
    /// subscriptions)` per coalesced link batch, and nothing to get wrong.
    fn rebuild_routing_full(&mut self) {
        let _ = self.drain_dirty_links(); // keep the snapshot coherent
        let depth = std::mem::take(&mut self.shared.link_down_depth);
        self.routing = Routing::compute_filtered(&self.believed_graph, |l| depth[l.index()] == 0);
        self.shared.link_down_depth = depth;
        for i in 0..self.core.brokers.len() {
            let table = SubscriptionTable::build(
                self.core.brokers[i].id,
                &self.routing,
                &self.subscriptions.entries,
            );
            self.core.brokers[i].set_table(table);
        }
        self.tables_rebuilt_full += self.core.brokers.len() as u64;
    }

    /// The production engine's rebuild: recompute only the destination trees
    /// the link batch can affect, then patch only the `(broker,
    /// destination)` aggregates whose route entry changed — work
    /// proportional to the change, not the population.
    fn rebuild_routing_incremental(&mut self) -> Result<(), SimError> {
        let (removed, added) = self.drain_dirty_links();
        if removed.is_empty() && added.is_empty() {
            return Ok(()); // the batch was a net liveness no-op
        }
        let depth = std::mem::take(&mut self.shared.link_down_depth);
        let delta = self.routing.update_for_link_change(
            &self.believed_graph,
            |l| depth[l.index()] == 0,
            &removed,
            &added,
        );
        self.shared.link_down_depth = depth;
        self.route_trees_recomputed += delta.dests_recomputed() as u64;
        self.route_pairs_changed += delta.changed_pairs() as u64;
        if delta.is_empty() {
            return Ok(());
        }
        self.patch_sparse_tables(&delta)
    }

    /// One [`BrokerState::sync_aggregate`] call per changed `(broker,
    /// destination)` pair — `O(changed pairs)` total, with no
    /// population-grouping pass (removing or inserting an aggregate is
    /// `O(log dests)`, so even a blackout's mass transition is cheap). The
    /// registry is locked once for the whole patch.
    fn patch_sparse_tables(&mut self, delta: &RouteDelta) -> Result<(), SimError> {
        let during = "link-event table patch";
        let population = self.shared.population.as_ref();
        let population = population.ok_or(SimError::PopulationMissing { during })?;
        let population = bdps_overlay::sparse::read_population(population);
        let routing = &self.routing;
        let mut patched = RetargetOutcome::default();
        for (i, broker) in self.core.brokers.iter_mut().enumerate() {
            let source = BrokerId::new(i as u32);
            for &dest in delta.changed_dests(source) {
                let group = population.group_stats(dest);
                patched.absorb(broker.sync_aggregate(routing, dest, group));
            }
        }
        self.entries_retargeted += patched.total();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use crate::scenario::{DynamicScenario, ScenarioRegistry};
    use crate::workload::{
        ArrivalKind, BlackoutWindow, BurstConfig, ChurnConfig, LinkFailureConfig, Scenario,
        WorkloadConfig,
    };
    use bdps_core::config::StrategyKind;
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;
    use bdps_overlay::topology::LayeredMeshConfig;
    use bdps_types::id::SubscriberId;

    fn fast_quality(_rng: &mut SimRng) -> LinkQuality {
        // 10 ms/KB -> a 50 KB message takes 500 ms per hop.
        LinkQuality::new(FixedRate::new(10.0))
    }

    fn small_topology(seed: u64) -> Topology {
        Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(seed),
            fast_quality,
        )
        .unwrap()
    }

    fn short_workload(scenario: Scenario, rate: f64) -> WorkloadConfig {
        let mut w = match scenario {
            Scenario::SubscriberSpecified => WorkloadConfig::paper_ssd(rate),
            _ => WorkloadConfig::paper_psd(rate),
        };
        w.scenario = scenario;
        w.duration = Duration::from_secs(300);
        w.arrivals = ArrivalKind::Deterministic;
        w
    }

    /// The builder every test here goes through: `workload`, the paper
    /// scheduler for `strategy` exactly as `SchedulerConfig::paper` spells
    /// it (so the detection policy is pinned), and `scenario`.
    fn configured(
        workload: WorkloadConfig,
        strategy: StrategyKind,
        scenario: DynamicScenario,
    ) -> SimulationBuilder {
        Simulation::builder()
            .workload(workload)
            .scheduler(SchedulerConfig::paper(strategy))
            .scenario(scenario)
    }

    /// A simulation over a hand-made topology, all randomness from `seed`.
    fn build_on(
        topo: Topology,
        workload: WorkloadConfig,
        strategy: StrategyKind,
        seed: u64,
        scenario: DynamicScenario,
    ) -> Simulation {
        configured(workload, strategy, scenario)
            .try_build_on(topo, SimRng::seed_from(seed))
            .expect("valid test configuration")
    }

    /// [`build_on`] under the static scenario.
    fn plain(
        topo: Topology,
        workload: WorkloadConfig,
        strategy: StrategyKind,
        seed: u64,
    ) -> Simulation {
        build_on(
            topo,
            workload,
            strategy,
            seed,
            DynamicScenario::static_scenario(),
        )
    }

    fn scenario_run(
        scenario: DynamicScenario,
        strategy: StrategyKind,
        seed: u64,
    ) -> SimulationOutcome {
        let topo = small_topology(seed);
        let mut w = WorkloadConfig::paper_ssd(8.0);
        w.duration = Duration::from_secs(300);
        build_on(topo, w, strategy, seed, scenario).run()
    }

    #[test]
    fn uncongested_run_delivers_almost_everything() {
        let topo = small_topology(1);
        let workload = short_workload(Scenario::PublisherSpecified, 4.0);
        let sim = plain(topo, workload, StrategyKind::MaxEb, 2);
        let out = sim.run();
        assert!(out.published > 0);
        assert!(out.tracker.total_interested() > 0);
        let rate = out.tracker.delivery_rate();
        assert!(
            rate > 0.95,
            "expected near-perfect delivery on an idle network, got {rate}"
        );
        assert!(out.message_number() > out.published);
        assert!(out.transmissions > 0);
        assert_eq!(out.dropped_expired() + out.dropped_unlikely(), 0);
        assert!(out.valid_delays_ms.count() > 0);
        assert!(out.valid_delays_ms.mean() > 0.0);
        // Static runs still satisfy the conservation balances and produce a
        // single "run" phase covering the whole run.
        out.check_conservation().unwrap();
        assert_eq!(out.phases.len(), 1);
        assert_eq!(out.phases[0].label, "run");
        assert_eq!(out.phases[0].published, out.published);
        assert_eq!(out.phases[0].end, out.finished_at);
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
    }

    #[test]
    fn runs_are_deterministic_for_a_given_seed() {
        let run = |seed: u64| {
            let topo = small_topology(seed);
            let workload = short_workload(Scenario::SubscriberSpecified, 6.0);
            plain(topo, workload, StrategyKind::MaxEbpc, seed).run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.published, b.published);
        assert_eq!(a.message_number(), b.message_number());
        assert_eq!(a.tracker.total_on_time(), b.tracker.total_on_time());
        assert_eq!(
            a.tracker.total_earning().millis(),
            b.tracker.total_earning().millis()
        );
        let c = run(8);
        assert_ne!(
            (a.published, a.tracker.total_on_time()),
            (c.published, c.tracker.total_on_time()),
            "different seeds should differ"
        );
    }

    #[test]
    fn zero_rate_produces_no_traffic() {
        let topo = small_topology(3);
        let workload = short_workload(Scenario::PublisherSpecified, 0.0);
        let out = plain(topo, workload, StrategyKind::Fifo, 4).run();
        assert_eq!(out.published, 0);
        assert_eq!(out.message_number(), 0);
        assert_eq!(out.tracker.delivery_rate(), 0.0);
    }

    #[test]
    fn ssd_earning_is_positive_and_bounded_by_perfect_delivery() {
        let topo = small_topology(5);
        let workload = short_workload(Scenario::SubscriberSpecified, 6.0);
        let out = plain(topo, workload, StrategyKind::MaxEb, 6).run();
        let earning = out.tracker.total_earning().as_f64();
        assert!(earning > 0.0);
        // Perfect delivery would earn at most 3 units per interested pair.
        let upper = 3.0 * out.tracker.total_interested() as f64;
        assert!(earning <= upper);
        // Every on-time delivery is also counted in the delivery-rate bookkeeping.
        assert!(out.tracker.total_on_time() > 0);
        assert!(out.tracker.delivery_rate() <= 1.0);
    }

    #[test]
    fn no_duplicate_deliveries_per_subscriber_and_message() {
        // With scoped forwarding each (message, subscriber) pair is delivered
        // at most once, so on-time + late deliveries never exceed interested
        // pairs (ts_i counts exactly the matching subscribers).
        let topo = small_topology(9);
        let workload = short_workload(Scenario::PublisherSpecified, 8.0);
        let out = plain(topo, workload, StrategyKind::Fifo, 10).run();
        let delivered = out.tracker.total_on_time() + out.tracker.total_late();
        assert!(
            delivered <= out.tracker.total_interested(),
            "delivered {delivered} > interested {}",
            out.tracker.total_interested()
        );
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
    }

    #[test]
    fn congestion_lowers_delivery_rate_and_eb_beats_fifo() {
        // Slow links + high rate -> congestion. EB should deliver at least as
        // much as FIFO (usually strictly more).
        let slow_quality = |_rng: &mut SimRng| LinkQuality::new(FixedRate::new(80.0));
        let make = |strategy| {
            let topo = Topology::layered_mesh(
                &LayeredMeshConfig::small(),
                &mut SimRng::seed_from(11),
                slow_quality,
            )
            .unwrap();
            let mut w = WorkloadConfig::paper_psd(12.0);
            w.duration = Duration::from_secs(600);
            plain(topo, w, strategy, 12).run()
        };
        let eb = make(StrategyKind::MaxEb);
        let fifo = make(StrategyKind::Fifo);
        assert!(
            eb.tracker.delivery_rate() < 1.0,
            "there should be congestion"
        );
        assert!(
            eb.tracker.delivery_rate() >= fifo.tracker.delivery_rate(),
            "EB {} should not be worse than FIFO {}",
            eb.tracker.delivery_rate(),
            fifo.tracker.delivery_rate()
        );
    }

    #[test]
    fn subscription_population_matches_subscribers() {
        let topo = small_topology(13);
        let n_subs = topo.subscribers.len();
        let workload = short_workload(Scenario::SubscriberSpecified, 1.0);
        let sim = plain(topo, workload, StrategyKind::MaxPc, 14);
        assert_eq!(sim.subscriptions().len(), n_subs);
        assert_eq!(sim.scheduler().strategy, StrategyKind::MaxPc);
        // Each subscription belongs to a distinct subscriber.
        let mut seen = std::collections::HashSet::new();
        for (s, _) in sim.subscriptions() {
            assert!(seen.insert(s.subscriber));
        }
        assert!(seen.contains(&SubscriberId::new(0)));
    }

    #[test]
    fn churn_scenario_changes_traffic_but_keeps_invariants() {
        let churn = DynamicScenario::named("churn").with_churn(ChurnConfig {
            joins_per_min: 6.0,
            leaves_per_min: 6.0,
        });
        let dynamic = scenario_run(churn, StrategyKind::MaxEb, 21);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::MaxEb, 21);
        // Publications draw from the same stream in both runs.
        assert_eq!(dynamic.published, baseline.published);
        // Churn must actually change what gets matched and delivered.
        assert_ne!(
            dynamic.tracker.total_interested(),
            baseline.tracker.total_interested()
        );
        dynamic.check_conservation().unwrap();
        assert_eq!(dynamic.tracker.duplicate_deliveries(), 0);
        let delivered = dynamic.tracker.total_on_time() + dynamic.tracker.total_late();
        assert!(delivered <= dynamic.tracker.total_interested());
    }

    #[test]
    fn burst_scenario_raises_publication_count_and_marks_phases() {
        let bursts = DynamicScenario::named("bursty").with_bursts(BurstConfig {
            mean_calm_secs: 60.0,
            mean_burst_secs: 60.0,
            multiplier: 5.0,
        });
        let dynamic = scenario_run(bursts, StrategyKind::MaxEb, 22);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::MaxEb, 22);
        assert!(
            dynamic.published > baseline.published,
            "bursts should add publications: {} vs {}",
            dynamic.published,
            baseline.published
        );
        assert!(dynamic.phases.len() > 1, "burst phases must be recorded");
        assert!(dynamic.phases.iter().any(|p| p.label == "burst"));
        // Published totals across phases account for every message.
        let phase_sum: u64 = dynamic.phases.iter().map(|p| p.published).sum();
        assert_eq!(phase_sum, dynamic.published);
        dynamic.check_conservation().unwrap();
    }

    #[test]
    fn publisher_pause_and_resume_honour_generations() {
        // Pause every publisher for the middle of the run, then resume.
        let scenario = DynamicScenario::named("pause")
            .at(
                Duration::from_secs(100),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 0.0,
                },
            )
            .at(
                Duration::from_secs(200),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 1.0,
                },
            );
        let out = scenario_run(scenario, StrategyKind::Fifo, 23);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::Fifo, 23);
        assert!(out.published < baseline.published);
        assert!(out.published > 0);
        out.check_conservation().unwrap();
        // The pause phase publishes nothing: verify via per-phase counts.
        let paused = DynamicScenario::named("pause-marked")
            .at(
                Duration::from_secs(100),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 0.0,
                },
            )
            .at(
                Duration::from_secs(100),
                ScenarioAction::PhaseMark {
                    label: "silence".into(),
                },
            )
            .at(
                Duration::from_secs(200),
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: 1.0,
                },
            )
            .at(
                Duration::from_secs(200),
                ScenarioAction::PhaseMark {
                    label: "resumed".into(),
                },
            );
        let out = scenario_run(paused, StrategyKind::Fifo, 23);
        let silence = out
            .phases
            .iter()
            .find(|p| p.label == "silence")
            .expect("silence phase present");
        assert_eq!(silence.published, 0, "no publications while paused");
        assert!(out
            .phases
            .iter()
            .any(|p| p.label == "resumed" && p.published > 0));
    }

    #[test]
    fn scenario_events_are_checked_against_the_overlay_at_construction() {
        let (links, brokers) = {
            let graph = small_topology(23).graph;
            (graph.link_count() as u32, graph.broker_count() as u32)
        };
        // A valid event first, so the reported index is the offender's.
        let rejection = |action: ScenarioAction| {
            let scenario = DynamicScenario::named("bad")
                .at(
                    Duration::from_secs(10),
                    ScenarioAction::LinkDown {
                        link: LinkId::new(links - 1),
                    },
                )
                .at(Duration::from_secs(20), action);
            let built = configured(WorkloadConfig::paper_ssd(8.0), StrategyKind::Fifo, scenario)
                .try_build_on(small_topology(23), SimRng::seed_from(23));
            match built.err() {
                Some(SimError::InvalidConfig(e)) => e.to_string(),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        let joiner = WorkloadConfig::paper_ssd(8.0).generate_subscription(
            SubscriptionId::new(500),
            SubscriberId::new(500),
            &mut SimRng::seed_from(1),
        );
        let cases = [
            (
                ScenarioAction::LinkDown {
                    link: LinkId::new(links),
                },
                format!("link-down:l{links}"),
            ),
            (
                ScenarioAction::LinkUp {
                    link: LinkId::new(9_999),
                },
                "link-up:l9999".to_string(),
            ),
            (
                ScenarioAction::SubscriptionJoin {
                    subscription: joiner,
                    broker: BrokerId::new(brokers),
                },
                format!("join:f500@b{brokers}"),
            ),
            (
                ScenarioAction::PublisherRate {
                    publisher: None,
                    multiplier: f64::NAN,
                },
                "rate:all:NaN".to_string(),
            ),
        ];
        for (action, label) in cases {
            let message = rejection(action);
            assert!(
                message.contains("scenario event 1") && message.contains(&label),
                "{label}: {message}"
            );
        }

        // The documented no-ops stay no-ops: a leave of an id nobody holds
        // and a rate change for a publisher the topology does not have.
        let no_ops = DynamicScenario::named("no-ops")
            .at(
                Duration::from_secs(100),
                ScenarioAction::SubscriptionLeave {
                    subscription: SubscriptionId::new(9_999),
                },
            )
            .at(
                Duration::from_secs(100),
                ScenarioAction::PublisherRate {
                    publisher: Some(PublisherId::new(999)),
                    multiplier: 5.0,
                },
            );
        let out = scenario_run(no_ops, StrategyKind::Fifo, 23);
        let baseline = scenario_run(DynamicScenario::static_scenario(), StrategyKind::Fifo, 23);
        assert_eq!(out.published, baseline.published);
        assert_eq!(out.transmissions, baseline.transmissions);
        assert_eq!(
            out.tracker.delivered_pairs(),
            baseline.tracker.delivered_pairs()
        );
    }

    #[test]
    fn link_failures_requeue_in_flight_copies_and_recover() {
        // Slow links (50 KB × 80 ms/KB = 4 s per hop) keep links busy, so a
        // failure almost always catches a copy mid-transfer.
        let topo = Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(24),
            |_rng| LinkQuality::new(FixedRate::new(80.0)),
        )
        .unwrap();
        let mut w = WorkloadConfig::paper_ssd(10.0);
        w.duration = Duration::from_secs(300);
        let flaky = DynamicScenario::named("flaky").with_link_failures(LinkFailureConfig {
            mean_time_between_failures_secs: 10.0,
            mean_downtime_secs: 10.0,
        });
        let out = build_on(topo, w, StrategyKind::MaxEb, 24, flaky).run();
        out.check_conservation().unwrap();
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
        assert!(out.requeued() > 0, "flaky links should void some transfers");
        assert!(out.tracker.total_on_time() > 0, "system must keep working");
    }

    #[test]
    fn blackout_halts_delivery_then_recovers() {
        let blackout = DynamicScenario::named("blackout").with_blackout(BlackoutWindow {
            start_frac: 0.3,
            duration_frac: 0.3,
        });
        let out = scenario_run(blackout, StrategyKind::MaxEb, 25);
        out.check_conservation().unwrap();
        let dark = out
            .phases
            .iter()
            .find(|p| p.label == "blackout")
            .expect("blackout phase recorded");
        assert_eq!(
            dark.transmissions, 0,
            "nothing can be transmitted with every link down"
        );
        let restored = out
            .phases
            .iter()
            .find(|p| p.label == "restored")
            .expect("restored phase recorded");
        assert!(
            restored.transmissions > 0,
            "traffic must resume after the blackout"
        );
        assert!(out.tracker.total_on_time() > 0);
    }

    #[test]
    fn nested_same_instant_link_downs_still_reroute_traffic() {
        // Diamond: B0 -(cheap)- B1 - B3 and B0 -(pricey)- B2 - B3. Taking
        // the whole cheap path down TWICE in the same instant ends the
        // event batch on a liveness no-op; the rebuild must still happen
        // (dirty-flag regression test) so traffic detours via B2.
        let mut graph = bdps_overlay::graph::OverlayGraph::new();
        let b0 = graph.add_broker(None);
        let b1 = graph.add_broker(None);
        let b2 = graph.add_broker(None);
        let b3 = graph.add_broker(None);
        // Links 0..=1, 2..=3 form the cheap path; 4..=7 the detour.
        graph.add_bidirectional_link(b0, b1, LinkQuality::new(FixedRate::new(40.0)));
        graph.add_bidirectional_link(b1, b3, LinkQuality::new(FixedRate::new(40.0)));
        graph.add_bidirectional_link(b0, b2, LinkQuality::new(FixedRate::new(60.0)));
        graph.add_bidirectional_link(b2, b3, LinkQuality::new(FixedRate::new(60.0)));
        graph.attach_publisher(b0, PublisherId::new(0));
        let subscriber = bdps_types::id::SubscriberId::new(0);
        graph.attach_subscriber(b3, subscriber);
        let topo = Topology {
            graph,
            publishers: vec![(PublisherId::new(0), b0)],
            subscribers: vec![(subscriber, b3)],
        };
        let mut w = WorkloadConfig::paper_psd(30.0);
        w.duration = Duration::from_secs(300);
        let mut scenario = DynamicScenario::named("double-down");
        for raw in 0..4u32 {
            for _ in 0..2 {
                scenario = scenario.at(
                    Duration::from_secs(1),
                    ScenarioAction::LinkDown {
                        link: LinkId::new(raw),
                    },
                );
            }
        }
        let out = build_on(topo, w, StrategyKind::MaxEb, 41, scenario).run();
        assert!(
            out.tracker.total_on_time() > 0,
            "messages must detour via B2 after the cheap path dies"
        );
        out.check_conservation().unwrap();
    }

    #[test]
    fn flap_contained_within_a_transfer_voids_it() {
        // Slow links (4 s per hop) and a 1.2 s blackout: many copies are in
        // flight across the window, flap fully inside their transfer. The
        // failure-generation check must void those transfers even though the
        // link is alive again when the SendComplete pops.
        let topo = Topology::layered_mesh(
            &LayeredMeshConfig::small(),
            &mut SimRng::seed_from(42),
            |_rng| LinkQuality::new(FixedRate::new(80.0)),
        )
        .unwrap();
        let mut w = WorkloadConfig::paper_ssd(10.0);
        w.duration = Duration::from_secs(300);
        let blink = DynamicScenario::named("blink").with_blackout(BlackoutWindow {
            start_frac: 0.1,
            duration_frac: 0.004, // 1.2 s, far below the 4 s per-hop transfer
        });
        let out = build_on(topo, w, StrategyKind::MaxEb, 42, blink).run();
        assert!(
            out.requeued() > 0,
            "transfers spanning the blink must be voided and requeued"
        );
        out.check_conservation().unwrap();
        assert_eq!(out.tracker.duplicate_deliveries(), 0);
    }

    #[test]
    fn table_layouts_agree_and_report_their_counters() {
        // Chaos drives every table-maintenance path at once; the blackout is
        // the mass transition — every route towards (almost) every
        // destination flips at one instant, twice.
        let chaos = ScenarioRegistry::builtin()
            .resolve("chaos")
            .expect("chaos is builtin");
        let blackout = DynamicScenario::named("blackout").with_blackout(BlackoutWindow {
            start_frac: 0.3,
            duration_frac: 0.2,
        });
        for (scenario, seed) in [(chaos, 28), (blackout, 27)] {
            let name = scenario.name.clone();
            let run = |layout: TableLayout| {
                let mut w = WorkloadConfig::paper_ssd(10.0);
                w.duration = Duration::from_secs(300);
                configured(w, StrategyKind::MaxEb, scenario.clone())
                    .table_layout(layout)
                    .try_build_on(small_topology(seed), SimRng::seed_from(seed))
                    .unwrap()
                    .run()
            };
            let dense = run(TableLayout::Dense);
            let sparse = run(TableLayout::Sparse);
            // Bit-identical results whichever engine runs.
            assert_eq!(dense.published, sparse.published, "{name}");
            assert_eq!(dense.transmissions, sparse.transmissions, "{name}");
            assert_eq!(dense.message_number(), sparse.message_number(), "{name}");
            assert_eq!(
                dense.tracker.total_on_time(),
                sparse.tracker.total_on_time(),
                "{name}"
            );
            assert_eq!(
                dense.tracker.total_late(),
                sparse.tracker.total_late(),
                "{name}"
            );
            assert_eq!(
                dense.tracker.total_earning().millis(),
                sparse.tracker.total_earning().millis(),
                "{name}"
            );
            assert_eq!(dense.queued_at_end, sparse.queued_at_end, "{name}");
            assert_eq!(dense.requeued(), sparse.requeued(), "{name}");
            assert_eq!(
                dense.dropped_unsubscribed(),
                sparse.dropped_unsubscribed(),
                "{name}: churn bookkeeping must match across layouts"
            );
            sparse.check_conservation().unwrap();
            // The reference only ever rebuilds whole tables and never forms
            // a route delta; the production engine only ever patches.
            assert!(dense.tables_rebuilt_full > 0, "{name}");
            assert_eq!(dense.entries_retargeted, 0, "{name}");
            assert_eq!(dense.route_trees_recomputed, 0, "{name}");
            assert_eq!(dense.route_pairs_changed, 0, "{name}");
            assert!(sparse.entries_retargeted > 0, "{name}");
            assert_eq!(sparse.tables_rebuilt_full, 0, "{name}");
            assert!(sparse.route_trees_recomputed > 0, "{name}");
            assert!(sparse.route_pairs_changed > 0, "{name}");
            // Layout observability: only the sparse run stores aggregates
            // and expands them at edge brokers; its tables are much smaller.
            assert_eq!(dense.aggregate_entries, 0, "{name}");
            assert_eq!(dense.expanded_at_edge(), 0, "{name}");
            assert!(sparse.aggregate_entries > 0, "{name}");
            assert_eq!(
                sparse.expanded_at_edge(),
                sparse.tracker.total_on_time() + sparse.tracker.total_late(),
                "{name}: every sparse local delivery is an edge expansion"
            );
            // The factor is modest only because this model is tiny: the
            // registry's fixed per-member cost (including the QoS envelope
            // bookkeeping, paid once globally) dominates at this size, while
            // the dense layout's per-broker replication dominates at scale.
            assert!(
                sparse.table_bytes_estimate * 3 / 2 <= dense.table_bytes_estimate,
                "{name}: sparse tables must be substantially smaller: {} vs {}",
                sparse.table_bytes_estimate,
                dense.table_bytes_estimate
            );
        }
    }

    #[test]
    fn scenario_runs_replay_bit_for_bit() {
        let registry = ScenarioRegistry::builtin();
        for name in ["churn", "flash-crowd", "link-flap", "chaos"] {
            let a = scenario_run(registry.resolve(name).unwrap(), StrategyKind::MaxEbpc, 31);
            let b = scenario_run(registry.resolve(name).unwrap(), StrategyKind::MaxEbpc, 31);
            assert_eq!(a.published, b.published, "{name}");
            assert_eq!(a.transmissions, b.transmissions, "{name}");
            assert_eq!(a.message_number(), b.message_number(), "{name}");
            assert_eq!(
                a.tracker.total_on_time(),
                b.tracker.total_on_time(),
                "{name}"
            );
            assert_eq!(
                a.tracker.total_earning().millis(),
                b.tracker.total_earning().millis(),
                "{name}"
            );
            assert_eq!(a.queued_at_end, b.queued_at_end, "{name}");
        }
    }
}
