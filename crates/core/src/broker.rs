//! The broker state machine.
//!
//! A broker (Fig. 2) receives messages, matches them against its subscription
//! table, delivers matches to locally attached subscribers, and places one
//! copy per relevant downstream neighbour into that neighbour's output queue.
//! Here the match happens once, when a message is published: every arrival
//! carries the subscriptions it is for — the publish-time scope or the
//! targets an upstream broker resolved — and the broker only resolves each
//! one into the paper's table entry: a row (its registry record's, or the
//! one a copy carried) joined with the table's route to its edge broker.
//! Whenever a link becomes free the broker asks the corresponding queue for
//! the next message under the configured scheduling strategy, dropping
//! expired and unlikely messages (§5.4) in the same pass.
//!
//! The broker is a pure state machine: it never advances time and never
//! performs I/O. The discrete-event simulator drives it through three
//! arrival entry points, one per arrival kind —
//! [`BrokerState::arrive_scoped`] for a publication handed to its first
//! broker, [`BrokerState::arrive_forwarded`] for a copy that crossed a link
//! and [`BrokerState::arrive_aggregate`] under aggregate forwarding — each
//! writing into an [`ArrivalOutcome`] the simulator lends it, and asks
//! [`BrokerState::next_to_send`] whenever a link frees.

use crate::config::SchedulerConfig;
use crate::queue::{CopyDraft, DropReason, DropRecord, OutputQueue, QueuedMessage, Stripped};
use bdps_filter::scope::ScopeSet;
use bdps_overlay::graph::OverlayGraph;
use bdps_overlay::pathstats::PathStats;
use bdps_overlay::routing::Routing;
use bdps_overlay::sparse::{
    aggregate_scope_dest, read_population, EdgeGroup, MemberRecord, PopulationHandle, QosEnvelope,
    SparseTable,
};
use bdps_overlay::subtable::RetargetOutcome;
use bdps_types::id::{BrokerId, SubscriberId, SubscriptionId};
use bdps_types::message::Message;
use bdps_types::money::Price;
use bdps_types::time::{Duration, SimTime};
use std::sync::Arc;

/// A delivery to a subscriber attached to this broker.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalDelivery {
    /// The subscription that matched.
    pub subscription: SubscriptionId,
    /// The subscriber that owns it.
    pub subscriber: SubscriberId,
    /// The price this delivery earns if it is on time.
    pub price: Price,
    /// End-to-end delay experienced by the message.
    pub delay: Duration,
    /// The effective allowed delay for this (message, subscription) pair.
    pub(crate) allowed_delay: Duration,
    /// Whether the delivery met its bound (`delay ≤ allowed_delay`).
    pub on_time: bool,
}

/// The outcome of processing one arriving message, and the buffers the
/// next arrival reuses: a simulator keeps one and lends it to every arrival
/// it applies, so that an arrival allocates only the copies it keeps, each
/// at its exact length. Between arrivals it holds capacity and nothing
/// else: its staged copies keep no message alive.
#[derive(Debug, Clone, Default)]
pub struct ArrivalOutcome {
    /// Deliveries to local subscribers.
    pub local: Vec<LocalDelivery>,
    /// Neighbours for which a copy was enqueued, ascending.
    pub enqueued_to: Vec<BrokerId>,
    staging: Staging,
}

impl ArrivalOutcome {
    /// Empties the outcome for an arrival whose rows come from a forwarded
    /// copy with `carried` classes (0 for any other arrival).
    fn begin(&mut self, carried: usize) {
        self.local.clear();
        self.enqueued_to.clear();
        let staging = &mut self.staging;
        staging.staged = 0;
        staging.carried.clear();
        staging.carried.resize(carried, (0, 0));
    }
}

/// What an arrival builds before it keeps anything: the router's class
/// lookups and the copies it stages, one per next hop.
#[derive(Debug, Clone, Default)]
struct Staging {
    /// The current run's classes, by effective bound.
    classes: Vec<(Duration, u32)>,
    /// Per class of the forwarded copy being routed: the last run a target
    /// of it joined a class in, and that class.
    carried: Vec<(u32, u32)>,
    /// The copies being built, by next hop: the first `staged` are this
    /// arrival's, the rest spare buffers.
    drafts: Vec<(BrokerId, CopyDraft)>,
    staged: usize,
}

impl Staging {
    /// The position in `drafts` of the copy this arrival is building towards
    /// `neighbor`, opened on first use in a spare draft. A broker has a
    /// handful of neighbours and an arrival looks one up per run of one edge
    /// broker, so the scan is short.
    fn copy_towards(&mut self, neighbor: BrokerId) -> usize {
        let staged = &self.drafts[..self.staged];
        if let Some(at) = staged.iter().rposition(|(nb, _)| *nb == neighbor) {
            return at;
        }
        if self.staged == self.drafts.len() {
            self.drafts.push((neighbor, CopyDraft::default()));
        }
        let (nb, draft) = &mut self.drafts[self.staged];
        *nb = neighbor;
        draft.clear();
        self.staged += 1;
        self.staged - 1
    }
}

/// The outcome of asking a queue for its next transmission.
#[derive(Debug, Clone, Default)]
pub struct NextSend {
    /// The message to transmit, if any survived the invalid-message
    /// detection.
    pub message: Option<QueuedMessage>,
    /// Messages dropped by the invalid-message detection while selecting.
    pub dropped: Vec<DropRecord>,
}

/// Per-broker counters; `received` across all brokers is the paper's
/// "message number" traffic metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerCounters {
    /// Messages received (from publishers or upstream brokers).
    pub received: u64,
    /// Copies enqueued towards downstream neighbours.
    pub enqueued: u64,
    /// Copies dropped because every target had expired.
    pub dropped_expired: u64,
    /// Copies dropped because no target had a success probability ≥ ε.
    pub dropped_unlikely: u64,
    /// Copies dropped because every remaining target unsubscribed mid-run.
    pub dropped_unsubscribed: u64,
    /// Copies put back into an output queue after their link failed mid-transfer.
    pub requeued: u64,
    /// Local deliveries resolved by expanding a covering aggregate at this
    /// edge broker: interior brokers route on aggregates and only edge
    /// brokers expand to concrete subscribers, so this is every local
    /// delivery.
    pub expanded_at_edge: u64,
    /// Aggregate-scoped copies that crossed at least one link to this edge
    /// broker and then expanded to **zero** member matches — the traffic a
    /// cover's false positive actually cost. Non-zero only under
    /// aggregate-scoped forwarding.
    pub false_positive_forwards: u64,
    /// Aggregate expansions at this edge broker that produced zero member
    /// matches (including publisher-local ones that never crossed a link).
    /// Always ≥ `false_positive_forwards`.
    pub false_positive_drops_at_edge: u64,
}

/// The state of one broker.
#[derive(Debug, Clone)]
pub struct BrokerState {
    /// The broker's identifier.
    pub id: BrokerId,
    /// The broker's counters.
    pub counters: BrokerCounters,
    table: SparseTable,
    /// One output queue per downstream neighbour, ascending by neighbour.
    queues: Vec<(BrokerId, OutputQueue)>,
    /// Copies held across all output queues, kept in step at every push and
    /// pop so a subscription leave can pass over the brokers — most of them,
    /// at any instant — that hold nothing to strip.
    queued: usize,
    config: SchedulerConfig,
}

impl BrokerState {
    /// Creates a broker from the overlay graph: one output queue per outgoing
    /// link, using each link's estimated mean rate for the `FT` estimate.
    pub fn from_overlay(
        graph: &OverlayGraph,
        id: BrokerId,
        table: SparseTable,
        config: SchedulerConfig,
    ) -> Self {
        // Every topology links an ordered broker pair at most once.
        let mut queues: Vec<(BrokerId, OutputQueue)> = graph
            .outgoing(id)
            .map(|l| (l.to, OutputQueue::new(l.quality.rate_distribution().mean())))
            .collect();
        queues.sort_unstable_by_key(|(nb, _)| *nb);
        BrokerState {
            id,
            counters: BrokerCounters::default(),
            table,
            queues,
            queued: 0,
            config,
        }
    }

    /// The broker's scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The broker's subscription table.
    pub fn table(&self) -> &SparseTable {
        &self.table
    }

    /// The downstream neighbours this broker can forward to.
    pub fn neighbors(&self) -> Vec<BrokerId> {
        self.queues.iter().map(|(nb, _)| *nb).collect()
    }

    /// The output queue towards a neighbour.
    pub fn queue(&self, neighbor: BrokerId) -> Option<&OutputQueue> {
        let at = self.queues.binary_search_by_key(&neighbor, |(nb, _)| *nb);
        at.ok().map(|at| &self.queues[at].1)
    }

    /// Total number of queued message copies across all output queues.
    pub fn queued_total(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.queues.iter().map(|(_, q)| q.len()).sum::<usize>()
        );
        self.queued
    }

    /// Re-points the table at a different shared-registry handle. Used when
    /// a simulation is forked for model checking: every cloned broker must
    /// reference the branch's own deep-cloned registry (see
    /// [`SparseTable::set_population`]).
    pub fn repoint_population(&mut self, population: &PopulationHandle) {
        self.table.set_population(population);
    }

    /// Hashes the broker's complete logical state — counters, table content
    /// and the exact ordered contents of every output queue (neighbours in
    /// ascending order) — into one `u64`, for the model-checking explorer's
    /// state deduplication.
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u32(self.id.raw());
        let c = &self.counters;
        for v in [
            c.received,
            c.enqueued,
            c.dropped_expired,
            c.dropped_unlikely,
            c.dropped_unsubscribed,
            c.requeued,
            c.expanded_at_edge,
            c.false_positive_forwards,
            c.false_positive_drops_at_edge,
        ] {
            h.write_u64(v);
        }
        self.table.digest_into(&mut h);
        for (neighbor, q) in &self.queues {
            h.write_u32(neighbor.raw());
            h.write_usize(q.len());
            for item in q.items() {
                h.write_u64(item.message.id.raw());
                h.write_u64(item.enqueue_time.as_micros());
                h.write_usize(item.targets.len());
                for t in &item.targets {
                    h.write_u32(t.subscription.raw());
                }
            }
        }
        h.finish()
    }

    /// Processes a publication at its first broker into `out`: local
    /// deliveries plus staging one copy per relevant downstream neighbour,
    /// for exactly the subscriptions in `scope`, and enqueueing the staged
    /// copies. `now` is the time at which the processing module finishes
    /// (i.e. arrival time plus `PD`).
    ///
    /// Under the paper's single-path routing a message copy forwarded to a
    /// neighbour is responsible for exactly the subscriptions the upstream
    /// broker grouped onto that neighbour; the copy therefore carries that
    /// subscription set and the receiving broker must not re-expand it (doing
    /// so would create duplicate deliveries along alternative mesh paths).
    ///
    /// **Contract:** the scope must consist of subscription ids whose
    /// filters matched the message when the scope was frozen (the simulator
    /// freezes it at publication time against the global index). The broker
    /// trusts the scope and does *not* re-match: because a live
    /// subscription's filter never changes, presence in this broker's table
    /// is the only remaining condition, which turns arrival processing into
    /// one pass over the scope, independent of the total population: per id
    /// one registry record read and one push; per *run* of ids behind one
    /// edge broker one aggregate lookup and one staged copy; per `(run, QoS
    /// bound)` one success class. A copy that crossed a link arrives through
    /// [`arrive_forwarded`](Self::arrive_forwarded) instead, which routes the
    /// same way without re-reading an unchanged record.
    pub fn arrive_scoped(
        &mut self,
        out: &mut ArrivalOutcome,
        message: &Arc<Message>,
        now: SimTime,
        scope: &ScopeSet,
    ) {
        self.counters.received += 1;
        {
            let mut router = Router::new(&self.table, message, now, out, 0);
            let pop = read_population(self.table.population());
            for id in scope.iter() {
                let Some(record) = pop.member(id) else {
                    continue; // left the population since the scope froze
                };
                router.push(record.edge, Row::of(record, message), None);
            }
        }
        self.finish_arrival(out, message, now);
    }

    /// [`arrive_scoped`](Self::arrive_scoped) into a fresh outcome, which it
    /// returns. `scope = None` resolves nothing: the arrival is counted and
    /// routes no row. Kept only because the benchmark harness calls it;
    /// ROADMAP item 1d removes it.
    pub fn handle_arrival_scoped(
        &mut self,
        message: Arc<Message>,
        now: SimTime,
        scope: Option<&ScopeSet>,
    ) -> ArrivalOutcome {
        let mut out = ArrivalOutcome::default();
        self.arrive_scoped(&mut out, &message, now, scope.unwrap_or(&ScopeSet::empty()));
        out
    }

    /// Processes a copy that crossed a link into `out`: the upstream
    /// broker's [`QueuedMessage`] itself, whose targets are exactly the
    /// subscriptions it grouped onto this broker, each with the subscriber,
    /// price and effective bound it resolved.
    ///
    /// A target whose registry slot still has the incarnation the target
    /// carries is routed as carried, plus the slot's edge broker — no record
    /// is read. A slot that has gone vacant (the subscription left while
    /// the copy was in flight) drops the target; a slot re-joined since
    /// (a leave and a join of the same id, perhaps at another edge, price
    /// or bound) is re-resolved from its record exactly as a scoped arrival
    /// would. The rows then route as in
    /// [`arrive_scoped`](Self::arrive_scoped): the outcome equals a scoped
    /// arrival over the copy's target ids.
    pub fn arrive_forwarded(
        &mut self,
        out: &mut ArrivalOutcome,
        copy: QueuedMessage,
        now: SimTime,
    ) {
        self.counters.received += 1;
        {
            let mut router = Router::new(&self.table, &copy.message, now, out, copy.classes.len());
            let pop = read_population(self.table.population());
            for t in &copy.targets {
                let Some(tag) = pop.slot(t.subscription) else {
                    continue; // an id the registry never held
                };
                if tag.vacant() {
                    continue; // left since the upstream broker resolved it
                }
                let (edge, row, carried) = if tag.incarnation() == t.incarnation {
                    let row = Row {
                        subscription: t.subscription,
                        subscriber: t.subscriber,
                        price: t.price,
                        incarnation: t.incarnation,
                        bound: copy.classes[t.class as usize].allowed_delay,
                    };
                    (tag.edge(), row, Some(t.class))
                } else {
                    let Some(record) = pop.member(t.subscription) else {
                        debug_assert!(false, "a live slot holds no record");
                        continue;
                    };
                    (record.edge, Row::of(record, &copy.message), None)
                };
                router.push(edge, row, carried);
            }
        }
        self.finish_arrival(out, &copy.message, now);
    }

    /// Processes an arriving message whose scope consists of **aggregate
    /// sentinels** (see [`bdps_overlay::sparse::aggregate_scope_id`]) into
    /// `out`: one id per destination edge broker instead of one per
    /// subscription — the aggregate-scoped forwarding hot path. `ids` are the
    /// publication scope at the publisher hand-off and the carried copy's
    /// target ids after a link.
    ///
    /// A sentinel naming *this* broker expands here, once, at the edge:
    /// the shared registry's group is enumerated, members that joined after
    /// `publish_epoch` are skipped (reproducing the exact mode's
    /// publish-time scope freeze), and each remaining member's filter is
    /// re-matched against the head — so a cover's false positive forwards
    /// traffic but never delivers. A sentinel naming a *remote* destination
    /// is forwarded as-is: one pseudo-target per destination, grouped per
    /// next hop, carrying the aggregate's path stats and the destination
    /// group's **QoS envelope** sampled epoch-consistently
    /// ([`GroupCovers::envelope_at`](bdps_overlay::sparse::GroupCovers::envelope_at)
    /// at `publish_epoch`): the target's price is the envelope's earning sum
    /// (the copy's earning upper bound — edge expansion still does the
    /// actual earning) and its allowed delay is the envelope's minimum
    /// member bound tightened by the publisher bound, so strategies rank
    /// aggregate copies by real deadlines/earnings and expiry-based
    /// shedding works in flight. A sentinel whose envelope is empty at the
    /// publish epoch is dropped here: every current member joined after the
    /// snapshot, so edge expansion could deliver to no one.
    ///
    /// `via_link` is true when the copy arrived over a link (false for the
    /// publisher hand-off) and attributes zero-match expansions to
    /// `false_positive_forwards`.
    pub fn arrive_aggregate(
        &mut self,
        out: &mut ArrivalOutcome,
        message: &Arc<Message>,
        now: SimTime,
        ids: impl IntoIterator<Item = SubscriptionId>,
        publish_epoch: u64,
        via_link: bool,
    ) {
        self.counters.received += 1;
        out.begin(0);
        {
            let pop = read_population(self.table.population());
            for id in ids {
                let Some(dest) = aggregate_scope_dest(id) else {
                    debug_assert!(false, "aggregate scope carries a member id {id}");
                    continue;
                };
                if dest == self.id {
                    let before = out.local.len();
                    if let Some(group) = pop.group(dest) {
                        for &member in group.ids() {
                            // `audit_tables` holds every group id to a
                            // registered member.
                            let Some(record) = pop.member(member) else {
                                debug_assert!(false, "group member {member} is not registered");
                                continue;
                            };
                            if record.join_epoch > publish_epoch {
                                continue; // joined after the publish snapshot
                            }
                            if !record.subscription.filter.matches(&message.head) {
                                continue;
                            }
                            let row = Row::of(record, message);
                            out.local.push(local_delivery(message, now, row));
                        }
                    }
                    if out.local.len() == before {
                        self.counters.false_positive_drops_at_edge += 1;
                        if via_link {
                            self.counters.false_positive_forwards += 1;
                        }
                    }
                } else {
                    let Some(agg) = self.table.aggregate(dest) else {
                        continue; // group emptied or destination unreachable
                    };
                    // The registry of an aggregate run keeps every
                    // group's covers (`audit_tables` holds it to that).
                    let envelope = pop
                        .group(dest)
                        .and_then(EdgeGroup::covers)
                        .map(|c| c.envelope_at(publish_epoch))
                        .unwrap_or(QosEnvelope::EMPTY);
                    if envelope.is_empty() {
                        continue; // no epoch-visible member: nothing to deliver
                    }
                    // Sentinels are monotone in the destination, so each
                    // copy's target list stays ascending.
                    let at = out.staging.copy_towards(agg.next_hop);
                    let draft = &mut out.staging.drafts[at].1;
                    let bound = effective_allowed_delay(message, envelope.min_allowed_delay);
                    let class = draft.open_class(agg.stats, bound);
                    let subscriber = SubscriberId::new(dest.raw());
                    draft.push_target(id, subscriber, envelope.earning_sum, 0, class, dest);
                }
            }
        }
        self.finish_arrival(out, message, now);
    }

    /// Counts an arrival's local deliveries — each one an aggregate
    /// expansion at this edge broker — and pushes the copies it staged onto
    /// their neighbours' queues, in ascending neighbour order so forwarding
    /// work is deterministic. Each copy is allocated here, at its exact
    /// length; the drafts stay behind for the next arrival.
    fn finish_arrival(&mut self, out: &mut ArrivalOutcome, message: &Arc<Message>, now: SimTime) {
        self.counters.expanded_at_edge += out.local.len() as u64;
        let staging = &mut out.staging;
        let staged = &mut staging.drafts[..staging.staged];
        staged.sort_unstable_by_key(|(neighbor, _)| *neighbor);
        for (neighbor, draft) in staged.iter() {
            let Some(queue) = queue_mut(&mut self.queues, *neighbor) else {
                // Routing pointed at a neighbour we have no link to; this
                // indicates an inconsistent setup and is simply skipped.
                continue;
            };
            queue.push(draft.to_copy(message, now));
            self.queued += 1;
            self.counters.enqueued += 1;
            out.enqueued_to.push(*neighbor);
        }
        debug_assert!(out.enqueued_to.windows(2).all(|w| w[0] < w[1]));
    }

    /// Chooses the next message to transmit towards `neighbor` in one pass
    /// over its queue: the invalid-message detection (§5.4) drops copies
    /// as the strategy scores them, reading the probabilities the score
    /// computed.
    pub fn next_to_send(&mut self, neighbor: BrokerId, now: SimTime) -> NextSend {
        let Some(queue) = queue_mut(&mut self.queues, neighbor) else {
            return NextSend::default();
        };
        let mut dropped = Vec::new();
        let detection = self.config.invalid_detection;
        let message = queue.take_next(now, &self.config, detection, &mut dropped);
        for d in &dropped {
            match d.reason {
                DropReason::Expired => self.counters.dropped_expired += 1,
                DropReason::Unlikely => self.counters.dropped_unlikely += 1,
            }
        }
        self.queued -= dropped.len() + usize::from(message.is_some());
        NextSend { message, dropped }
    }

    /// Brings the aggregate towards `dest` in line with the current routing
    /// and whether the destination group is populated, which the caller
    /// read from the shared registry (see
    /// [`SparseTable::sync_aggregate_with`]) — one aggregate patched for
    /// every subscription attached at `dest`. Queues and counters are
    /// untouched.
    pub fn sync_aggregate(
        &mut self,
        routing: &Routing,
        dest: BrokerId,
        populated: bool,
    ) -> RetargetOutcome {
        self.table.sync_aggregate_with(routing, dest, populated)
    }

    /// Removes a subscription attached at edge broker `edge` mid-run — the
    /// whole broker half of a leave, as the table holds no row of it: strips
    /// it from every queued copy's target set, searching only the copies
    /// whose edge mask has `edge`'s bit
    /// ([`OutputQueue::remove_subscription`]). Copies left with no target
    /// are discarded and counted under `dropped_unsubscribed`. Aggregates
    /// are synced separately (they need routing).
    pub fn strip_queued(&mut self, id: SubscriptionId, edge: BrokerId) -> Stripped {
        let mut stripped = Stripped::default();
        if self.queued == 0 {
            return stripped;
        }
        for (_, q) in &mut self.queues {
            stripped.absorb(q.remove_subscription(id, edge));
        }
        self.queued -= stripped.orphaned as usize;
        self.counters.dropped_unsubscribed += stripped.orphaned;
        stripped
    }

    /// Puts a message copy back into the queue towards `neighbor` after a
    /// failed transmission (the link died while the copy was in flight). The
    /// copy keeps its original enqueue time so FIFO-style strategies do not
    /// treat the retry as fresh arrival.
    ///
    /// The copy's edge mask widens to every edge: it was routed before its
    /// transfer, and a target's subscription may have left and re-joined at
    /// another edge while it was in flight (see the `queue` module docs on
    /// edge masks).
    ///
    /// Returns false — and drops the copy — when no queue towards `neighbor`
    /// exists; callers that believe the queue must exist (the simulator
    /// always requeues towards the link it just popped from) should assert
    /// on the result, because a silently lost copy breaks the transfer
    /// balance that `SimulationOutcome::check_conservation` enforces.
    #[must_use]
    pub fn requeue(&mut self, neighbor: BrokerId, mut item: QueuedMessage) -> bool {
        match queue_mut(&mut self.queues, neighbor) {
            Some(queue) => {
                item.edges = u64::MAX;
                queue.push(item);
                self.queued += 1;
                self.counters.requeued += 1;
                true
            }
            None => false,
        }
    }
}

/// The output queue towards `neighbor` among a broker's `queues`.
fn queue_mut(
    queues: &mut [(BrokerId, OutputQueue)],
    neighbor: BrokerId,
) -> Option<&mut OutputQueue> {
    let at = queues.binary_search_by_key(&neighbor, |(nb, _)| *nb).ok()?;
    Some(&mut queues[at].1)
}

/// One row an arrival routes: a target as resolved, with its effective
/// allowed delay.
#[derive(Clone, Copy)]
struct Row {
    subscription: SubscriptionId,
    subscriber: SubscriberId,
    price: Price,
    /// The registry incarnation the row was resolved under.
    incarnation: u32,
    bound: Duration,
}

impl Row {
    /// The row of a registry record, for `message`.
    fn of(record: &MemberRecord, message: &Message) -> Self {
        let sub = &record.subscription;
        Row {
            subscription: sub.id,
            subscriber: sub.subscriber,
            price: sub.price,
            incarnation: record.incarnation,
            bound: effective_allowed_delay(message, sub.allowed_delay()),
        }
    }
}

/// The delivery of `message` at `now` to the locally attached `row`.
fn local_delivery(message: &Message, now: SimTime, row: Row) -> LocalDelivery {
    let delay = message.elapsed(now);
    LocalDelivery {
        subscription: row.subscription,
        subscriber: row.subscriber,
        price: row.price,
        delay,
        allowed_delay: row.bound,
        on_time: delay <= row.bound,
    }
}

/// Where the rows of an arrival's current run go.
#[derive(Clone, Copy)]
enum RunDest {
    /// The run's edge broker is this one: deliver.
    Local,
    /// Append to the draft at this position of the staged copies, whose
    /// targets in the run all share the aggregate's path statistics and the
    /// run's `edge`.
    Copy {
        at: usize,
        stats: PathStats,
        edge: BrokerId,
    },
    /// No route towards the run's edge broker: not served here.
    Unserved,
}

/// Routes an arrival's rows onto local deliveries and per-neighbour staged
/// copies, in the [`ArrivalOutcome`] it was lent.
/// Rows come in ascending id order, and ids are minted edge by edge, so they
/// arrive in runs of one edge broker: the route and the copy are settled
/// once per run, a success class once per `(run, bound)` — and looked up
/// once per `(run, class)` of a forwarded copy — and a row is one push.
struct Router<'a> {
    table: &'a SparseTable,
    message: &'a Message,
    now: SimTime,
    out: &'a mut ArrivalOutcome,
    /// The current run's edge broker (`None` before the first row).
    edge: Option<BrokerId>,
    dest: RunDest,
    /// Runs entered so far: the current run's number.
    run: u32,
}

impl<'a> Router<'a> {
    /// A router over `table`'s routes for an arrival whose rows come from a
    /// forwarded copy with `carried` classes (0 for a publication).
    fn new(
        table: &'a SparseTable,
        message: &'a Message,
        now: SimTime,
        out: &'a mut ArrivalOutcome,
        carried: usize,
    ) -> Self {
        out.begin(carried);
        Router {
            table,
            message,
            now,
            out,
            edge: None,
            dest: RunDest::Unserved,
            run: 0,
        }
    }

    /// Routes one row attached at `edge`. A new edge starts a run, delivered
    /// here when `edge` is this broker, else onto the copy towards its
    /// aggregate's next hop, or nowhere without one. `carried` names the
    /// row's class in the forwarded copy it came in, when routed as carried.
    fn push(&mut self, edge: BrokerId, row: Row, carried: Option<u32>) {
        if self.edge != Some(edge) {
            self.edge = Some(edge);
            self.run += 1;
            let staging = &mut self.out.staging;
            staging.classes.clear();
            self.dest = match self.table.aggregate(edge) {
                _ if edge == self.table.broker() => RunDest::Local,
                Some(route) => RunDest::Copy {
                    at: staging.copy_towards(route.next_hop),
                    stats: route.stats,
                    edge,
                },
                None => RunDest::Unserved,
            };
        }
        match self.dest {
            RunDest::Local => {
                let delivery = local_delivery(self.message, self.now, row);
                self.out.local.push(delivery);
            }
            RunDest::Copy { at, stats, edge } => {
                let class = self.class_in_run(at, stats, row.bound, carried);
                let draft = &mut self.out.staging.drafts[at].1;
                let (id, subscriber, price) = (row.subscription, row.subscriber, row.price);
                draft.push_target(id, subscriber, price, row.incarnation, class, edge);
            }
            RunDest::Unserved => {}
        }
    }

    /// The class a row with effective `bound` joins in the current run's
    /// draft (at `at`, path `stats`): one of the run's classes, or one
    /// [`CopyDraft::class_for`] per `(run, bound)`. Every target of a
    /// `carried` class has the same bound, so that class's answer is kept
    /// for the rest of the run.
    fn class_in_run(
        &mut self,
        at: usize,
        stats: PathStats,
        bound: Duration,
        carried: Option<u32>,
    ) -> u32 {
        let staging = &mut self.out.staging;
        if let Some(c) = carried {
            let (run, class) = staging.carried[c as usize];
            if run == self.run {
                return class;
            }
        }
        let class = match staging.classes.iter().find(|(b, _)| *b == bound) {
            Some(&(_, class)) => class,
            None => {
                let class = staging.drafts[at].1.class_for(stats, bound);
                staging.classes.push((bound, class));
                class
            }
        };
        if let Some(c) = carried {
            staging.carried[c as usize] = (self.run, class);
        }
        class
    }
}

/// The effective allowed delay of a (message, subscription) pair: the tighter
/// of the publisher-specified and the subscriber-specified bound.
fn effective_allowed_delay(message: &Message, subscription_allowed: Duration) -> Duration {
    match message.publisher_bound {
        Some(b) => b.duration().min(subscription_allowed),
        None => subscription_allowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InvalidDetection, StrategyKind};
    use bdps_filter::filter::Filter;
    use bdps_filter::subscription::Subscription;
    use bdps_net::link::LinkQuality;
    use bdps_overlay::sparse::{aggregate_scope_id, SharedPopulation};
    use bdps_overlay::topology::Topology;
    use bdps_stats::rng::SimRng;
    use bdps_types::id::MessageId;
    use bdps_types::qos::{DelayBound, QosClass};
    use std::sync::RwLock;

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::fixed(60.0)
    }

    /// Line B0 - B1 - B2; subscriber S0 on B2 (10 s, price 3), S1 on B1
    /// (best effort), S2 on B0 (30 s, price 2).
    struct Setup {
        topo: Topology,
        routing: Routing,
        subs: Vec<(Subscription, BrokerId)>,
        pop: PopulationHandle,
    }

    /// The shared registry over `subs`.
    fn registry(subs: &[(Subscription, BrokerId)]) -> PopulationHandle {
        Arc::new(RwLock::new(SharedPopulation::from_population(subs)))
    }

    fn setup() -> Setup {
        let mut rng = SimRng::seed_from(1);
        let mut topo = Topology::line(3, &mut rng, fixed_quality);
        topo.graph
            .attach_subscriber(BrokerId::new(2), SubscriberId::new(0));
        topo.graph
            .attach_subscriber(BrokerId::new(1), SubscriberId::new(1));
        topo.graph
            .attach_subscriber(BrokerId::new(0), SubscriberId::new(2));
        let routing = Routing::compute(&topo.graph);
        let subs = vec![
            (
                Subscription::with_qos(
                    SubscriptionId::new(0),
                    SubscriberId::new(0),
                    Filter::paper_conjunction(5.0, 5.0),
                    QosClass::new(DelayBound::from_secs(10), Price::from_units(3)),
                ),
                BrokerId::new(2),
            ),
            (
                Subscription::best_effort(
                    SubscriptionId::new(1),
                    SubscriberId::new(1),
                    Filter::paper_conjunction(9.0, 9.0),
                ),
                BrokerId::new(1),
            ),
            (
                Subscription::with_qos(
                    SubscriptionId::new(2),
                    SubscriberId::new(2),
                    Filter::paper_conjunction(8.0, 8.0),
                    QosClass::new(DelayBound::from_secs(30), Price::from_units(2)),
                ),
                BrokerId::new(0),
            ),
        ];
        Setup {
            topo,
            routing,
            pop: registry(&subs),
            subs,
        }
    }

    fn broker(setup: &Setup, id: u32, strategy: StrategyKind) -> BrokerState {
        let id = BrokerId::new(id);
        let table = SparseTable::build(id, &setup.routing, &setup.pop);
        BrokerState::from_overlay(
            &setup.topo.graph,
            id,
            table,
            SchedulerConfig::paper(strategy),
        )
    }

    fn msg(id: u64, a1: f64, a2: f64, publish_secs: u64) -> Arc<Message> {
        Arc::new(
            Message::builder(MessageId::new(id))
                .publish_time(SimTime::from_secs(publish_secs))
                .size_kb(50.0)
                .attr("A1", a1)
                .attr("A2", a2)
                .build(),
        )
    }

    /// An aggregate-scoped arrival, into a fresh outcome.
    fn aggregate(
        b: &mut BrokerState,
        message: Arc<Message>,
        now: SimTime,
        ids: impl IntoIterator<Item = SubscriptionId>,
        publish_epoch: u64,
        via_link: bool,
    ) -> ArrivalOutcome {
        let mut out = ArrivalOutcome::default();
        b.arrive_aggregate(&mut out, &message, now, ids, publish_epoch, via_link);
        out
    }

    /// A publication as the engine hands it to its first broker: scoped to
    /// every registered id whose filter matches the head.
    fn arrive(b: &mut BrokerState, message: Arc<Message>, now: SimTime) -> ArrivalOutcome {
        let scope = {
            let pop = read_population(b.table().population());
            let matching = pop
                .groups()
                .flat_map(|(_, group)| group.ids())
                .copied()
                .filter(|&id| {
                    pop.member(id)
                        .is_some_and(|r| r.subscription.filter.matches(&message.head))
                });
            ScopeSet::from_unsorted(matching.collect())
        };
        b.handle_arrival_scoped(message, now, Some(&scope))
    }

    #[test]
    fn arrival_delivers_locally_and_enqueues_downstream() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let outcome = arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        // Local subscriber S2 matches (filter 8,8); on time.
        assert_eq!(outcome.local.len(), 1);
        assert_eq!(outcome.local[0].subscriber, SubscriberId::new(2));
        assert!(outcome.local[0].on_time);
        // Downstream: S0 and S1 both reached via B1 -> exactly one copy enqueued.
        assert_eq!(outcome.enqueued_to, vec![BrokerId::new(1)]);
        assert_eq!(b0.queued_total(), 1);
        assert_eq!(b0.counters.received, 1);
        assert_eq!(b0.counters.enqueued, 1);
        assert_eq!(b0.counters.expanded_at_edge, 1);
        let q = b0.queue(BrokerId::new(1)).unwrap();
        assert_eq!(q.items()[0].targets.len(), 2);
    }

    #[test]
    fn non_matching_message_goes_nowhere() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let outcome = arrive(&mut b0, msg(1, 9.5, 9.5, 0), SimTime::from_millis(2));
        assert!(outcome.local.is_empty());
        assert!(outcome.enqueued_to.is_empty());
        assert_eq!(b0.counters.received, 1);
        assert_eq!(b0.queued_total(), 0);
    }

    #[test]
    fn late_local_delivery_is_flagged() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        // Message published 40 s ago; S2's bound is 30 s.
        let outcome = arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_secs(40));
        assert_eq!(outcome.local.len(), 1);
        assert!(!outcome.local[0].on_time);
        assert_eq!(b0.counters.expanded_at_edge, 1);
    }

    #[test]
    fn effective_deadline_takes_publisher_bound_into_account() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let m = Arc::new(
            Message::builder(MessageId::new(9))
                .publish_time(SimTime::ZERO)
                .publisher_bound(DelayBound::from_secs(5))
                .attr("A1", 1.0)
                .attr("A2", 1.0)
                .build(),
        );
        let outcome = arrive(&mut b0, m, SimTime::from_millis(2));
        // Local S2 allowed delay is min(5 s, 30 s) = 5 s.
        assert_eq!(outcome.local[0].allowed_delay, Duration::from_secs(5));
        // Remote targets carry the same effective bound.
        let q = b0.queue(BrokerId::new(1)).unwrap();
        for c in &q.items()[0].classes {
            assert!(c.allowed_delay <= Duration::from_secs(5));
        }
    }

    #[test]
    fn next_to_send_sends_and_counts() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        arrive(&mut b0, msg(2, 2.0, 2.0, 0), SimTime::from_millis(4));
        assert_eq!(b0.queue(BrokerId::new(1)).unwrap().len(), 2);
        let send = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(10));
        assert!(send.message.is_some());
        assert!(send.dropped.is_empty());
        assert_eq!(b0.queue(BrokerId::new(1)).unwrap().len(), 1);
        let send2 = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(12));
        assert!(send2.message.is_some());
        assert!(b0.queue(BrokerId::new(1)).unwrap().is_empty());
        let send3 = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(14));
        assert!(send3.message.is_none());
        // Unknown neighbour: graceful empty result.
        let nothing = b0.next_to_send(BrokerId::new(9), SimTime::from_millis(14));
        assert!(nothing.message.is_none());
    }

    #[test]
    fn expired_messages_are_dropped_not_sent() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        // S0's bound is 10 s and S1 is best-effort, so the queued copy keeps a
        // live target even after a minute; force expiry via a publisher bound.
        let m = Arc::new(
            Message::builder(MessageId::new(2))
                .publish_time(SimTime::ZERO)
                .publisher_bound(DelayBound::from_secs(5))
                .attr("A1", 1.0)
                .attr("A2", 1.0)
                .build(),
        );
        arrive(&mut b0, m, SimTime::from_millis(4));
        let send = b0.next_to_send(BrokerId::new(1), SimTime::from_secs(60));
        // The publisher-bounded copy is dropped as expired; the other one
        // still has the best-effort target so it is transmitted.
        assert_eq!(send.dropped.len(), 1);
        assert_eq!(send.dropped[0].reason, DropReason::Expired);
        assert_eq!(send.message.as_ref().unwrap().message.id, MessageId::new(1));
        assert_eq!(b0.counters.dropped_expired, 1);
    }

    #[test]
    fn unlikely_messages_are_dropped_under_epsilon_policy() {
        let s = setup();
        // Broker B0 with only the 10 s / price-3 subscription (S0, attached to
        // B2, two hops away). A 50 KB message needs ~6 s on average over the
        // two 60 ms/KB hops, so with only 1 s of budget left the success
        // probability is far below epsilon — but the message is not expired.
        let only_s0 = registry(&s.subs[..1]);
        let table = SparseTable::build(BrokerId::new(0), &s.routing, &only_s0);
        let mut b0 = BrokerState::from_overlay(
            &s.topo.graph,
            BrokerId::new(0),
            table.clone(),
            SchedulerConfig::paper(StrategyKind::MaxEb),
        );
        let arrived = arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_secs(9));
        assert_eq!(arrived.enqueued_to, vec![BrokerId::new(1)]);
        let decision = b0.next_to_send(BrokerId::new(1), SimTime::from_secs(9));
        assert!(decision.message.is_none());
        assert_eq!(decision.dropped.len(), 1);
        assert_eq!(decision.dropped[0].reason, DropReason::Unlikely);
        assert_eq!(b0.counters.dropped_unlikely, 1);

        // With detection off the same message is transmitted anyway.
        let mut b0_off = BrokerState::from_overlay(
            &s.topo.graph,
            BrokerId::new(0),
            table,
            SchedulerConfig {
                invalid_detection: InvalidDetection::Off,
                ..SchedulerConfig::paper(StrategyKind::MaxEb)
            },
        );
        arrive(&mut b0_off, msg(2, 1.0, 1.0, 0), SimTime::from_secs(9));
        let decision = b0_off.next_to_send(BrokerId::new(1), SimTime::from_secs(9));
        assert!(decision.message.is_some());
    }

    #[test]
    fn scoped_arrival_restricts_matching() {
        let s = setup();
        // Broker B1 sees all three subscriptions; scope the arrival to S0 only.
        let mut b1 = broker(&s, 1, StrategyKind::MaxEb);
        let scope = ScopeSet::from_sorted(vec![SubscriptionId::new(0)]);
        let outcome =
            b1.handle_arrival_scoped(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2), Some(&scope));
        // S1 is local to B1 but out of scope: no local delivery.
        assert!(outcome.local.is_empty());
        // Only the copy towards B2 (for S0) is enqueued; nothing goes to B0.
        assert_eq!(outcome.enqueued_to, vec![BrokerId::new(2)]);
        let q = b1.queue(BrokerId::new(2)).unwrap();
        assert_eq!(q.items()[0].targets.len(), 1);
        assert_eq!(q.items()[0].targets[0].subscription, SubscriptionId::new(0));
        // An empty scope produces no work at all.
        let outcome = b1.handle_arrival_scoped(
            msg(2, 1.0, 1.0, 0),
            SimTime::from_millis(4),
            Some(&ScopeSet::empty()),
        );
        assert!(outcome.local.is_empty());
        assert!(outcome.enqueued_to.is_empty());
    }

    #[test]
    fn mid_run_subscription_churn_updates_matching_and_queues() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        // A leave as the engine applies it at every broker: the
        // registry forgets the id, the queues lose it, and the route towards
        // its edge goes once the edge's group is empty.
        let leave = |b0: &mut BrokerState, id: u32, edge: u32| {
            let emptied = {
                let mut pop = s.pop.write().unwrap();
                pop.remove(SubscriptionId::new(id));
                pop.group(BrokerId::new(edge)).is_none()
            };
            let orphaned = b0.strip_queued(SubscriptionId::new(id), BrokerId::new(edge));
            b0.sync_aggregate(&s.routing, BrokerId::new(edge), !emptied);
            orphaned.orphaned
        };
        // Enqueue a copy serving S0 and S1 (both via B1).
        arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        assert_eq!(b0.queued_total(), 1);
        // S1 leaves: the queued copy keeps serving S0.
        assert_eq!(leave(&mut b0, 1, 1), 0);
        assert_eq!(b0.queued_total(), 1);
        assert_eq!(b0.counters.dropped_unsubscribed, 0);
        // S0 leaves too: the copy is orphaned and discarded.
        assert_eq!(leave(&mut b0, 0, 2), 1);
        assert_eq!(b0.queued_total(), 0);
        assert_eq!(b0.counters.dropped_unsubscribed, 1);
        // Only S2 (local) is left in the table: new arrivals deliver locally
        // and enqueue nothing.
        assert_eq!(b0.table().aggregate_count(), 0);
        let outcome = arrive(&mut b0, msg(2, 1.0, 1.0, 0), SimTime::from_millis(4));
        assert_eq!(outcome.local.len(), 1);
        assert!(outcome.enqueued_to.is_empty());
        // A join re-adds S0 and downstream forwarding resumes.
        let (sub, edge) = s.subs[0].clone();
        s.pop.write().unwrap().insert(sub, edge);
        b0.sync_aggregate(&s.routing, edge, true);
        let outcome = arrive(&mut b0, msg(3, 1.0, 1.0, 0), SimTime::from_millis(6));
        assert_eq!(outcome.enqueued_to, vec![BrokerId::new(1)]);
    }

    /// A target carries the incarnation it was resolved under. One whose
    /// slot was left and re-joined while its copy crossed the link is
    /// resolved again from the new record — here at the receiving broker
    /// itself, with another price and bound — never routed as carried.
    #[test]
    fn a_link_arrival_re_resolves_a_target_whose_slot_re_joined() {
        let s = setup();
        let s0 = SubscriptionId::new(0);
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let scope = ScopeSet::from_sorted(vec![s0]);
        b0.handle_arrival_scoped(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2), Some(&scope));
        let copy = b0
            .next_to_send(BrokerId::new(1), SimTime::from_millis(2))
            .message
            .expect("a copy towards B1");
        let carried = &copy.targets[0];
        let bound = copy.classes[carried.class as usize].allowed_delay;
        assert_eq!(
            (carried.subscription, carried.price, bound),
            (s0, Price::from_units(3), Duration::from_secs(10))
        );
        // S0 leaves B2 and re-joins at B1, at price 7 with a 20 s bound.
        {
            let mut pop = s.pop.write().unwrap();
            pop.remove(s0);
            let qos = QosClass::new(DelayBound::from_secs(20), Price::from_units(7));
            let filter = Filter::paper_conjunction(5.0, 5.0);
            let sub = Subscription::with_qos(s0, SubscriberId::new(0), filter, qos);
            pop.insert(sub, BrokerId::new(1));
        }
        let mut b1 = broker(&s, 1, StrategyKind::MaxEb);
        let mut out = ArrivalOutcome::default();
        b1.arrive_forwarded(&mut out, copy, SimTime::from_secs(5));
        assert!(out.enqueued_to.is_empty());
        assert_eq!(out.local.len(), 1);
        let d = &out.local[0];
        assert_eq!(
            (d.subscription, d.price, d.allowed_delay, d.on_time),
            (s0, Price::from_units(7), Duration::from_secs(20), true)
        );
    }

    #[test]
    fn requeue_counts_and_preserves_the_copy() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::Fifo);
        arrive(&mut b0, msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        let send = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(10));
        let copy = send.message.unwrap();
        // S0 sits behind B2 and S1 behind B1.
        assert_eq!(copy.edges, 0b110);
        assert_eq!(b0.queued_total(), 0);
        assert!(b0.requeue(BrokerId::new(1), copy));
        assert_eq!(b0.queued_total(), 1);
        assert_eq!(b0.counters.requeued, 1);
        // The requeued copy answers to every edge: its targets may have
        // moved while it was in flight.
        let requeued = b0.queue(BrokerId::new(1)).unwrap();
        assert_eq!(
            (requeued.items()[0].edges, requeued.edges()),
            (u64::MAX, u64::MAX)
        );
        let c = b0.counters;
        assert_eq!(
            c.dropped_expired + c.dropped_unlikely + c.dropped_unsubscribed,
            0
        );
        // Requeueing towards an unknown neighbour is reported, not counted.
        let send = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(12));
        assert!(!b0.requeue(BrokerId::new(9), send.message.unwrap()));
        assert_eq!(b0.counters.requeued, 1);
    }

    #[test]
    fn neighbors_come_from_the_overlay() {
        let s = setup();
        let b1 = broker(&s, 1, StrategyKind::Fifo);
        assert_eq!(b1.neighbors(), vec![BrokerId::new(0), BrokerId::new(2)]);
        assert_eq!(b1.config().strategy, StrategyKind::Fifo);
        // S0 and S2 are one aggregate each, towards B2 and B0.
        assert_eq!(b1.table().aggregate_count(), 2);
    }

    /// Aggregate-scoped arrivals: edge expansion delivers exactly the
    /// epoch-eligible member matches, remote sentinels forward as
    /// pseudo-targets, and zero-match expansions are counted as false
    /// positives.
    #[test]
    fn aggregate_arrival_expands_at_the_edge_and_counts_false_positives() {
        let s = setup();
        let publish_epoch = s.pop.read().unwrap().epoch();
        let make = |id: u32| broker(&s, id, StrategyKind::MaxEb);
        // Scope: all three edge groups (B0, B1, B2), ascending — sentinels
        // are monotone in the destination.
        let scope = ScopeSet::from_sorted(vec![
            aggregate_scope_id(BrokerId::new(0)),
            aggregate_scope_id(BrokerId::new(1)),
            aggregate_scope_id(BrokerId::new(2)),
        ]);

        // Head (1,1) matches every filter. At B0 the self sentinel expands
        // to local S2; the two remote sentinels share the copy towards B1.
        let mut b0 = make(0);
        let outcome = aggregate(
            &mut b0,
            msg(1, 1.0, 1.0, 0),
            SimTime::from_millis(2),
            scope.iter(),
            publish_epoch,
            false,
        );
        assert_eq!(outcome.local.len(), 1);
        assert_eq!(outcome.local[0].subscriber, SubscriberId::new(2));
        assert_eq!(outcome.enqueued_to, vec![BrokerId::new(1)]);
        let q = b0.queue(BrokerId::new(1)).unwrap();
        let targets = &q.items()[0].targets;
        assert_eq!(targets.len(), 2);
        assert_eq!(
            targets[0].subscription,
            aggregate_scope_id(BrokerId::new(1))
        );
        assert_eq!(
            targets[1].subscription,
            aggregate_scope_id(BrokerId::new(2))
        );
        // Interior targets are stamped from the destination group's QoS
        // envelope: B1 holds only the best-effort S1 (unbounded, unit
        // price); B2 holds S0 (10 s bound, price 3).
        let copy = &q.items()[0];
        assert_eq!(targets[0].price, Price::unit());
        assert_eq!(copy.classes[0].allowed_delay, Duration::MAX);
        assert_eq!(targets[1].price, Price::from_units(3));
        assert_eq!(copy.classes[1].allowed_delay, Duration::from_secs(10));
        assert_eq!(b0.counters.expanded_at_edge, 1);
        assert_eq!(b0.counters.false_positive_drops_at_edge, 0);

        // Head (8.5, 8.5) matches only S1 (filter 9,9 at B1). B0's own
        // expansion comes up empty — a false positive, but not a
        // false-positive *forward* because the copy never crossed a link.
        let outcome = aggregate(
            &mut b0,
            msg(2, 8.5, 8.5, 0),
            SimTime::from_millis(4),
            scope.iter(),
            publish_epoch,
            false,
        );
        assert!(outcome.local.is_empty());
        assert_eq!(b0.counters.false_positive_drops_at_edge, 1);
        assert_eq!(b0.counters.false_positive_forwards, 0);

        // The same copy arriving at B2 over a link expands to nothing:
        // a counted false-positive forward.
        let remote_scope = ScopeSet::from_sorted(vec![aggregate_scope_id(BrokerId::new(2))]);
        let mut b2 = make(2);
        let outcome = aggregate(
            &mut b2,
            msg(2, 8.5, 8.5, 0),
            SimTime::from_millis(6),
            remote_scope.iter(),
            publish_epoch,
            true,
        );
        assert!(outcome.local.is_empty());
        assert!(outcome.enqueued_to.is_empty());
        assert_eq!(b2.counters.false_positive_forwards, 1);
        assert_eq!(b2.counters.false_positive_drops_at_edge, 1);

        // Epoch gating: a publish snapshotted before any member joined
        // delivers to nobody, even though filters match.
        let mut b1 = make(1);
        let outcome = aggregate(
            &mut b1,
            msg(3, 1.0, 1.0, 0),
            SimTime::from_millis(8),
            [aggregate_scope_id(BrokerId::new(1))],
            0,
            true,
        );
        assert!(outcome.local.is_empty());
        assert_eq!(b1.counters.false_positive_drops_at_edge, 1);
    }

    /// Every producer of queued copies — scoped arrivals (the publish-time
    /// scope and one in registration order) and aggregate sentinels —
    /// leaves `targets` strictly ascending by id,
    /// whatever order the population was registered in: the invariant
    /// `OutputQueue::remove_subscription` binary-searches on (`push` only
    /// `debug_assert!`s it).
    #[test]
    fn every_arrival_path_enqueues_strictly_ascending_targets() {
        let s = setup();
        // Six remote subscriptions seen from B0, registered out of id order.
        let subs: Vec<(Subscription, BrokerId)> = [(5, 2), (1, 1), (4, 1), (0, 2), (3, 2), (2, 1)]
            .into_iter()
            .map(|(id, edge)| {
                let sub = Subscription::best_effort(
                    SubscriptionId::new(id),
                    SubscriberId::new(id),
                    Filter::paper_conjunction(9.0, 9.0),
                );
                (sub, BrokerId::new(edge))
            })
            .collect();
        let b0 = BrokerId::new(0);
        let pop = registry(&subs);
        let epoch = pop.read().unwrap().epoch();
        let table = SparseTable::build(b0, &s.routing, &pop);
        let config = SchedulerConfig::paper(StrategyKind::MaxEb);
        let mut broker = BrokerState::from_overlay(&s.topo.graph, b0, table, config);
        let scope = ScopeSet::from_unsorted(subs.iter().map(|(sub, _)| sub.id).collect());
        let sentinels = ScopeSet::from_sorted(vec![
            aggregate_scope_id(BrokerId::new(1)),
            aggregate_scope_id(BrokerId::new(2)),
        ]);
        let now = SimTime::from_millis(2);
        arrive(&mut broker, msg(1, 1.0, 1.0, 0), now);
        broker.handle_arrival_scoped(msg(2, 1.0, 1.0, 0), now, Some(&scope));
        aggregate(
            &mut broker,
            msg(3, 1.0, 1.0, 0),
            now,
            sentinels.iter(),
            epoch,
            false,
        );
        let copies = broker.queue(BrokerId::new(1)).unwrap().items();
        assert_eq!(copies.len(), 3);
        assert_eq!(broker.queued_total(), 3);
        for copy in copies {
            assert!(
                copy.targets.len() >= 2,
                "the copy must have an order to check"
            );
            assert!(copy
                .targets
                .windows(2)
                .all(|w| w[0].subscription < w[1].subscription));
        }
    }

    /// The cost of an arrival, certified as a count instead of timed: in the
    /// shape of the benchmark's arrival probe (sparse table, one frozen
    /// scope, the publisher-side broker) a copy holds one class per
    /// `(edge broker, QoS bound)` it serves — never one per target — and an
    /// aggregate-mode copy holds exactly one per pseudo-target.
    #[test]
    fn an_arrival_opens_classes_per_edge_and_bound_not_per_target() {
        use std::collections::BTreeMap;
        const PER_EDGE: u32 = 256;
        let mut rng = SimRng::seed_from(21);
        let topo = Topology::acyclic_tree(4, 2, 0, &mut rng, LinkQuality::paper_random);
        let routing = Routing::compute(&topo.graph);
        let root = topo.publishers[0].1;
        let edges: Vec<BrokerId> = (7..15).map(BrokerId::new).collect(); // the 8 leaves
                                                                         // Ids run edge by edge, as the topology mints them; bounds cycle
                                                                         // through three QoS classes within every edge.
        let subs: Vec<(Subscription, BrokerId)> = (0..PER_EDGE * edges.len() as u32)
            .map(|id| {
                let filter = Filter::paper_conjunction(9.0, 9.0);
                let (sid, sub) = (SubscriptionId::new(id), SubscriberId::new(id));
                let qos = |secs, units| {
                    QosClass::new(DelayBound::from_secs(secs), Price::from_units(units))
                };
                let subscription = match id % 3 {
                    0 => Subscription::with_qos(sid, sub, filter, qos(10, 3)),
                    1 => Subscription::with_qos(sid, sub, filter, qos(30, 2)),
                    _ => Subscription::best_effort(sid, sub, filter),
                };
                (subscription, edges[(id / PER_EDGE) as usize])
            })
            .collect();
        assert!(subs.len() >= 2_000 && edges.len() >= 8);
        let pop = registry(&subs);
        let epoch = pop.read().unwrap().epoch();
        let table = SparseTable::build(root, &routing, &pop);
        let mut edges_via: BTreeMap<BrokerId, usize> = BTreeMap::new();
        for (_, aggregate) in table.aggregates() {
            *edges_via.entry(aggregate.next_hop).or_default() += 1;
        }
        let config = SchedulerConfig::paper(StrategyKind::MaxEb);
        let mut broker = BrokerState::from_overlay(&topo.graph, root, table, config);
        let now = SimTime::from_millis(2);

        let scope = ScopeSet::from_sorted(subs.iter().map(|(s, _)| s.id).collect::<Vec<_>>());
        let outcome = broker.handle_arrival_scoped(msg(1, 1.0, 1.0, 0), now, Some(&scope));
        assert_eq!(
            outcome.enqueued_to,
            broker.neighbors(),
            "both subtrees are served"
        );
        let (mut classes, mut targets) = (0, 0);
        for neighbor in broker.neighbors() {
            let copy = &broker.queue(neighbor).unwrap().items()[0];
            assert!(
                copy.classes.len() <= 3 * edges_via[&neighbor],
                "towards {neighbor}"
            );
            assert!(copy
                .targets
                .windows(2)
                .all(|w| w[0].subscription < w[1].subscription));
            assert!(copy.classes.iter().all(|c| c.live > 0));
            classes += copy.classes.len();
            targets += copy.targets.len();
        }
        assert_eq!(targets, subs.len());
        assert!(
            classes * 10 <= targets,
            "{classes} classes for {targets} targets"
        );

        let sentinels = ScopeSet::from_sorted(
            edges
                .iter()
                .map(|e| aggregate_scope_id(*e))
                .collect::<Vec<_>>(),
        );
        aggregate(
            &mut broker,
            msg(2, 1.0, 1.0, 0),
            now,
            sentinels.iter(),
            epoch,
            false,
        );
        let mut pseudo_targets = 0;
        for neighbor in broker.neighbors() {
            let copy = &broker.queue(neighbor).unwrap().items()[1];
            assert_eq!(copy.classes.len(), copy.targets.len(), "towards {neighbor}");
            for (i, t) in copy.targets.iter().enumerate() {
                assert_eq!((t.class as usize, copy.classes[i].live), (i, 1));
            }
            pseudo_targets += copy.targets.len();
        }
        assert_eq!(pseudo_targets, edges.len());
    }
}
