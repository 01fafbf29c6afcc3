//! The broker state machine.
//!
//! A broker (Fig. 2) receives messages, matches them against its subscription
//! table, delivers matches to locally attached subscribers, and places one
//! copy per relevant downstream neighbour into that neighbour's output queue.
//! Whenever a link becomes free the broker asks the corresponding queue for
//! the next message under the configured scheduling strategy, after purging
//! expired and unlikely messages (§5.4).
//!
//! The broker is a pure state machine: it never advances time and never
//! performs I/O. The discrete-event simulator (and any real transport layer)
//! drives it by calling [`BrokerState::handle_arrival`] and
//! [`BrokerState::next_to_send`].

use crate::config::SchedulerConfig;
use crate::queue::{DropReason, DropRecord, OutputQueue, QueuedMessage};
use bdps_filter::scope::ScopeSet;
use bdps_filter::subscription::Subscription;
use bdps_overlay::graph::OverlayGraph;
use bdps_overlay::pathstats::PathStats;
use bdps_overlay::routing::Routing;
use bdps_overlay::sparse::{
    aggregate_scope_dest, read_population, BrokerTable, PopulationHandle, QosEnvelope,
    ResolvedEntry, TableLayout,
};
use bdps_overlay::subtable::{RetargetOutcome, SubTableEntry};
use bdps_types::id::{BrokerId, LinkId, SubscriberId, SubscriptionId};
use bdps_types::message::Message;
use bdps_types::money::Price;
use bdps_types::time::{Duration, SimTime};
use std::collections::HashMap;
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
    pub allowed_delay: Duration,
    /// Whether the delivery met its bound (`delay ≤ allowed_delay`).
    pub on_time: bool,
}

/// The outcome of processing one arriving message.
#[derive(Debug, Clone, Default)]
pub struct ArrivalOutcome {
    /// Deliveries to local subscribers.
    pub local: Vec<LocalDelivery>,
    /// Neighbours for which a copy was enqueued.
    pub enqueued_to: Vec<BrokerId>,
}

/// The outcome of asking a queue for its next transmission.
#[derive(Debug, Clone, Default)]
pub struct NextSend {
    /// The message to transmit, if any survived purging.
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
    /// Copies handed to the link layer for transmission.
    pub sent: u64,
    /// Copies dropped because every target had expired.
    pub dropped_expired: u64,
    /// Copies dropped because no target had a success probability ≥ ε.
    pub dropped_unlikely: u64,
    /// Copies dropped because every remaining target unsubscribed mid-run.
    pub dropped_unsubscribed: u64,
    /// Copies put back into an output queue after their link failed mid-transfer.
    pub requeued: u64,
    /// Local deliveries that met their deadline.
    pub delivered_on_time: u64,
    /// Local deliveries that missed their deadline.
    pub delivered_late: u64,
    /// Local deliveries resolved by expanding a covering aggregate at this
    /// edge broker — non-zero only under [`TableLayout::Sparse`], where
    /// interior brokers route on aggregates and only edge brokers expand to
    /// concrete subscribers.
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
    table: BrokerTable,
    queues: HashMap<BrokerId, OutputQueue>,
    /// Copies held across all output queues, kept in step at every push and
    /// pop so a subscription leave can pass over the brokers — most of them,
    /// at any instant — that hold nothing to strip.
    queued: usize,
    config: SchedulerConfig,
}

impl BrokerState {
    /// Creates a broker with explicit outgoing links
    /// (`(neighbour, link, mean ms/KB rate)`). The table may use either
    /// layout ([`SubscriptionTable`](bdps_overlay::subtable::SubscriptionTable)
    /// and [`SparseTable`](bdps_overlay::sparse::SparseTable) both convert).
    pub fn new(
        id: BrokerId,
        table: impl Into<BrokerTable>,
        outgoing: impl IntoIterator<Item = (BrokerId, LinkId, f64)>,
        config: SchedulerConfig,
    ) -> Self {
        let queues = outgoing
            .into_iter()
            .map(|(nb, link, rate)| (nb, OutputQueue::new(nb, link, rate)))
            .collect();
        BrokerState {
            id,
            counters: BrokerCounters::default(),
            table: table.into(),
            queues,
            queued: 0,
            config,
        }
    }

    /// Creates a broker from the overlay graph: one output queue per outgoing
    /// link, using each link's estimated mean rate for the `FT` estimate.
    pub fn from_overlay(
        graph: &OverlayGraph,
        id: BrokerId,
        table: impl Into<BrokerTable>,
        config: SchedulerConfig,
    ) -> Self {
        let outgoing: Vec<(BrokerId, LinkId, f64)> = graph
            .outgoing(id)
            .map(|l| (l.to, l.id, l.quality.rate_distribution().mean()))
            .collect();
        BrokerState::new(id, table, outgoing, config)
    }

    /// The broker's scheduler configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The broker's subscription table (either layout).
    pub fn table(&self) -> &BrokerTable {
        &self.table
    }

    /// The downstream neighbours this broker can forward to.
    pub fn neighbors(&self) -> Vec<BrokerId> {
        let mut ns: Vec<BrokerId> = self.queues.keys().copied().collect();
        ns.sort_unstable();
        ns
    }

    /// The output queue towards a neighbour.
    pub fn queue(&self, neighbor: BrokerId) -> Option<&OutputQueue> {
        self.queues.get(&neighbor)
    }

    /// Total number of queued message copies across all output queues.
    pub fn queued_total(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.queues.values().map(OutputQueue::len).sum::<usize>()
        );
        self.queued
    }

    /// Re-points a sparse table at a different shared-registry handle (no-op
    /// under the dense layout). Used when a simulation is forked for model
    /// checking: every cloned broker must reference the branch's own
    /// deep-cloned registry (see [`bdps_overlay::sparse::SparseTable::set_population`]).
    pub fn repoint_population(&mut self, population: &PopulationHandle) {
        if let Some(t) = self.table.as_sparse_mut() {
            t.set_population(population);
        }
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
            c.sent,
            c.dropped_expired,
            c.dropped_unlikely,
            c.dropped_unsubscribed,
            c.requeued,
            c.delivered_on_time,
            c.delivered_late,
            c.expanded_at_edge,
            c.false_positive_forwards,
            c.false_positive_drops_at_edge,
        ] {
            h.write_u64(v);
        }
        self.table.digest_into(&mut h);
        for neighbor in self.neighbors() {
            let q = &self.queues[&neighbor];
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

    /// Processes an arriving message: local deliveries plus enqueueing one
    /// copy per relevant downstream neighbour. `now` is the time at which the
    /// processing module finishes (i.e. arrival time plus `PD`).
    pub fn handle_arrival(&mut self, message: Arc<Message>, now: SimTime) -> ArrivalOutcome {
        self.handle_arrival_scoped(message, now, None)
    }

    /// Like [`handle_arrival`](Self::handle_arrival), but restricted to the
    /// given subscriptions.
    ///
    /// Under the paper's single-path routing a message copy forwarded to a
    /// neighbour is responsible for exactly the subscriptions the upstream
    /// broker grouped onto that neighbour; the copy therefore carries that
    /// subscription set and the receiving broker must not re-expand it (doing
    /// so would create duplicate deliveries along alternative mesh paths).
    /// `scope = None` means "all matching subscriptions" and is used when a
    /// raw message enters the system without a precomputed scope.
    ///
    /// **Contract:** a `Some` scope must consist of subscription ids whose
    /// filters matched the message when the scope was frozen (the simulator
    /// freezes it at publication time against the global index). The broker
    /// trusts the scope and does *not* re-match: because a live
    /// subscription's filter never changes, presence in this broker's table
    /// is the only remaining condition, which turns arrival processing into
    /// one pass over the scope, independent of the total population: per id
    /// one registry probe and one append to its next hop's copy; per *run*
    /// of ids behind one edge broker one aggregate lookup; per `(edge
    /// broker, QoS bound)` one success class opened.
    pub fn handle_arrival_scoped(
        &mut self,
        message: Arc<Message>,
        now: SimTime,
        scope: Option<&ScopeSet>,
    ) -> ArrivalOutcome {
        self.counters.received += 1;
        let mut outcome = ArrivalOutcome::default();
        let mut copies = Vec::new();
        // One pass: each resolved row is delivered or appended to its next
        // hop's copy as the scope is walked. The rows are layout-agnostic
        // [`ResolvedEntry`]s — dense tables copy their materialised entries,
        // sparse tables assemble them from the local table, the shared
        // registry and the per-destination aggregate, in the same order with
        // the same routed fields — so both layouts feed the scheduling
        // pipeline identical inputs.
        let counters = &mut self.counters;
        let mut place = |e: ResolvedEntry| match e.next_hop {
            None => deliver_local(counters, &mut outcome.local, &message, now, &e),
            Some(neighbor) => {
                let copy = copy_towards(&mut copies, neighbor, &message, now);
                let bound = effective_allowed_delay(&message, e.allowed_delay);
                let class = copy.class_for(e.stats, bound);
                copy.push_target(e.subscription, e.subscriber, e.price, class);
            }
        };
        match scope {
            Some(scope) => self.table.resolve_scope(scope, &mut place),
            None => self
                .table
                .matching_all(&message.head)
                .into_iter()
                .for_each(&mut place),
        }
        if self.table.layout() == TableLayout::Sparse {
            // Under the sparse layout a local delivery is an aggregate
            // expansion at the edge broker.
            self.counters.expanded_at_edge += outcome.local.len() as u64;
        }
        self.enqueue(copies, &mut outcome);
        outcome
    }

    /// Processes an arriving message whose scope consists of **aggregate
    /// sentinels** (see [`bdps_overlay::sparse::aggregate_scope_id`]): one id
    /// per destination edge broker instead of one per subscription — the
    /// aggregate-scoped forwarding hot path.
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
    /// ([`EdgeGroup::envelope_at`](bdps_overlay::sparse::EdgeGroup::envelope_at)
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
    ///
    /// # Panics
    ///
    /// Panics when the broker uses the dense layout — aggregate forwarding
    /// requires the shared registry.
    pub fn handle_arrival_aggregate(
        &mut self,
        message: Arc<Message>,
        now: SimTime,
        scope: &ScopeSet,
        publish_epoch: u64,
        via_link: bool,
    ) -> ArrivalOutcome {
        self.counters.received += 1;
        let mut outcome = ArrivalOutcome::default();
        let table = self
            .table
            .as_sparse()
            .expect("aggregate forwarding requires the sparse layout");
        let mut copies = Vec::new();
        {
            let pop = read_population(table.population());
            for id in scope.iter() {
                let Some(dest) = aggregate_scope_dest(id) else {
                    debug_assert!(false, "aggregate scope carries a member id {id}");
                    continue;
                };
                if dest == self.id {
                    let before = outcome.local.len();
                    if let Some(group) = pop.group(dest) {
                        for &member in group.ids() {
                            let record = pop.member(member).expect("group member registered");
                            if record.join_epoch > publish_epoch {
                                continue; // joined after the publish snapshot
                            }
                            if !record.subscription.filter.matches(&message.head) {
                                continue;
                            }
                            let entry = ResolvedEntry {
                                subscription: member,
                                subscriber: record.subscription.subscriber,
                                price: record.subscription.price,
                                allowed_delay: record.subscription.allowed_delay(),
                                next_hop: None,
                                next_link: None,
                                stats: PathStats::local(),
                            };
                            let local = &mut outcome.local;
                            deliver_local(&mut self.counters, local, &message, now, &entry);
                        }
                    }
                    if outcome.local.len() == before {
                        self.counters.false_positive_drops_at_edge += 1;
                        if via_link {
                            self.counters.false_positive_forwards += 1;
                        }
                    }
                } else {
                    let Some(agg) = table.aggregate(dest) else {
                        continue; // group emptied or destination unreachable
                    };
                    let envelope = pop
                        .group(dest)
                        .map(|g| g.envelope_at(publish_epoch))
                        .unwrap_or(QosEnvelope::EMPTY);
                    if envelope.is_empty() {
                        continue; // no epoch-visible member: nothing to deliver
                    }
                    // Sentinels are monotone in the destination, so each
                    // copy's target list stays ascending.
                    let copy = copy_towards(&mut copies, agg.next_hop, &message, now);
                    let bound = effective_allowed_delay(&message, envelope.min_allowed_delay);
                    let class = copy.open_class(agg.stats, bound);
                    let subscriber = SubscriberId::new(dest.raw());
                    copy.push_target(id, subscriber, envelope.earning_sum, class);
                }
            }
        }
        self.counters.expanded_at_edge += outcome.local.len() as u64;
        self.enqueue(copies, &mut outcome);
        outcome
    }

    /// Pushes the copies an arrival built onto their neighbours' queues, in
    /// ascending neighbour order so forwarding work is deterministic.
    fn enqueue(
        &mut self,
        mut copies: Vec<(BrokerId, QueuedMessage)>,
        outcome: &mut ArrivalOutcome,
    ) {
        copies.sort_unstable_by_key(|(neighbor, _)| *neighbor);
        for (neighbor, mut copy) in copies {
            let Some(queue) = self.queues.get_mut(&neighbor) else {
                // Routing pointed at a neighbour we have no link to; this
                // indicates an inconsistent setup and is simply skipped.
                continue;
            };
            // A copy waits in queues and in flight for seconds: give back
            // the slack its vectors grew with.
            copy.targets.shrink_to_fit();
            copy.classes.shrink_to_fit();
            queue.push(copy);
            self.queued += 1;
            self.counters.enqueued += 1;
            outcome.enqueued_to.push(neighbor);
        }
        debug_assert!(outcome.enqueued_to.windows(2).all(|w| w[0] < w[1]));
    }

    /// Chooses the next message to transmit towards `neighbor`, applying the
    /// invalid-message detection first.
    pub fn next_to_send(&mut self, neighbor: BrokerId, now: SimTime) -> NextSend {
        let Some(queue) = self.queues.get_mut(&neighbor) else {
            return NextSend::default();
        };
        let dropped = queue.purge(now, &self.config);
        for d in &dropped {
            match d.reason {
                DropReason::Expired => self.counters.dropped_expired += 1,
                DropReason::Unlikely => self.counters.dropped_unlikely += 1,
            }
        }
        let message = queue.pop_next(now, &self.config);
        self.queued -= dropped.len();
        if message.is_some() {
            self.queued -= 1;
            self.counters.sent += 1;
        }
        NextSend { message, dropped }
    }

    /// Replaces the broker's subscription table in place, keeping queues and
    /// counters. The simulator calls this after recomputing routes when a
    /// link fails or recovers mid-run.
    pub fn set_table(&mut self, table: impl Into<BrokerTable>) {
        let table = table.into();
        debug_assert_eq!(table.broker(), self.id, "table belongs to another broker");
        self.table = table;
    }

    /// Adds (or replaces) one dense subscription-table entry mid-run — the
    /// incremental half of subscription churn under the dense layout.
    /// Messages already queued are unaffected; messages processed from now
    /// on match the new entry.
    ///
    /// # Panics
    ///
    /// Panics when the broker uses the sparse layout (use
    /// [`insert_local_subscription`](Self::insert_local_subscription) and
    /// [`sync_aggregate`](Self::sync_aggregate) there).
    pub fn insert_subscription(&mut self, entry: SubTableEntry) {
        self.table
            .as_dense_mut()
            .expect("insert_subscription requires the dense layout")
            .insert(entry);
    }

    /// Adds a locally attached subscription's full entry — the edge-broker
    /// half of a join under the sparse layout (interior brokers only sync
    /// their aggregate for the edge).
    ///
    /// # Panics
    ///
    /// Panics when the broker uses the dense layout.
    pub fn insert_local_subscription(&mut self, subscription: Subscription) {
        self.table
            .as_sparse_mut()
            .expect("insert_local_subscription requires the sparse layout")
            .insert_local(subscription);
    }

    /// Brings the sparse aggregate towards `dest` in line with the current
    /// routing and whether the destination group is populated, which the
    /// caller read from the shared registry (see
    /// [`SparseTable::sync_aggregate_with`](bdps_overlay::sparse::SparseTable::sync_aggregate_with))
    /// — one aggregate patched for every subscription attached at `dest`.
    /// Queues and counters are untouched, exactly like a full table swap.
    ///
    /// # Panics
    ///
    /// Panics when the broker uses the dense layout.
    pub fn sync_aggregate(
        &mut self,
        routing: &Routing,
        dest: BrokerId,
        populated: bool,
    ) -> RetargetOutcome {
        self.table
            .as_sparse_mut()
            .expect("sync_aggregate requires the sparse layout")
            .sync_aggregate_with(routing, dest, populated)
    }

    /// Removes a subscription mid-run: drops its materialised table row
    /// (dense entry, or sparse local entry) and strips it from every queued
    /// copy's target set. Copies left with no target are discarded and
    /// counted under `dropped_unsubscribed`; the number of such orphaned
    /// copies is returned. Sparse aggregates are synced separately (they
    /// need routing).
    pub fn remove_subscription(&mut self, id: SubscriptionId) -> u64 {
        self.table.remove(id);
        self.strip_queued(id)
    }

    /// The queue half of [`remove_subscription`](Self::remove_subscription),
    /// for brokers known to hold no table row of `id` (under the sparse
    /// layout, every broker but the subscription's edge).
    pub fn strip_queued(&mut self, id: SubscriptionId) -> u64 {
        if self.queued == 0 {
            return 0;
        }
        let orphaned: u64 = self
            .queues
            .values_mut()
            .map(|q| q.remove_subscription(id))
            .sum();
        self.queued -= orphaned as usize;
        self.counters.dropped_unsubscribed += orphaned;
        orphaned
    }

    /// Puts a message copy back into the queue towards `neighbor` after a
    /// failed transmission (the link died while the copy was in flight). The
    /// copy keeps its original enqueue time so FIFO-style strategies do not
    /// treat the retry as fresh arrival.
    ///
    /// Returns false — and drops the copy — when no queue towards `neighbor`
    /// exists; callers that believe the queue must exist (the simulator
    /// always requeues towards the link it just popped from) should assert
    /// on the result, because a silently lost copy breaks the transfer
    /// balance that `SimulationOutcome::check_conservation` enforces.
    #[must_use]
    pub fn requeue(&mut self, neighbor: BrokerId, item: QueuedMessage) -> bool {
        match self.queues.get_mut(&neighbor) {
            Some(queue) => {
                queue.push(item);
                self.queued += 1;
                self.counters.requeued += 1;
                true
            }
            None => false,
        }
    }
}

/// The copy an arrival is building towards `neighbor`, opened on first use.
/// A broker has a handful of neighbours, and id-ordered scopes arrive in
/// runs of one edge broker — hence of one next hop — so the scan is short.
fn copy_towards<'a>(
    copies: &'a mut Vec<(BrokerId, QueuedMessage)>,
    neighbor: BrokerId,
    message: &Arc<Message>,
    now: SimTime,
) -> &'a mut QueuedMessage {
    let pos = match copies.iter().rposition(|(nb, _)| *nb == neighbor) {
        Some(pos) => pos,
        None => {
            copies.push((neighbor, QueuedMessage::new(Arc::clone(message), now)));
            copies.len() - 1
        }
    };
    &mut copies[pos].1
}

/// Delivers `message` to the locally attached subscription `entry` resolved.
fn deliver_local(
    counters: &mut BrokerCounters,
    local: &mut Vec<LocalDelivery>,
    message: &Message,
    now: SimTime,
    entry: &ResolvedEntry,
) {
    let allowed_delay = effective_allowed_delay(message, entry.allowed_delay);
    let delay = message.elapsed(now);
    let on_time = delay <= allowed_delay;
    if on_time {
        counters.delivered_on_time += 1;
    } else {
        counters.delivered_late += 1;
    }
    local.push(LocalDelivery {
        subscription: entry.subscription,
        subscriber: entry.subscriber,
        price: entry.price,
        delay,
        allowed_delay,
        on_time,
    });
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
    use bdps_net::bandwidth::FixedRate;
    use bdps_net::link::LinkQuality;
    use bdps_overlay::subtable::SubscriptionTable;
    use bdps_overlay::topology::Topology;
    use bdps_stats::rng::SimRng;
    use bdps_types::id::{MessageId, PublisherId};
    use bdps_types::qos::{DelayBound, QosClass};

    fn fixed_quality(_rng: &mut SimRng) -> LinkQuality {
        LinkQuality::new(FixedRate::new(60.0))
    }

    /// Line B0 - B1 - B2; subscriber S0 on B2 (10 s, price 3), S1 on B1
    /// (best effort), S2 on B0 (30 s, price 2).
    struct Setup {
        topo: Topology,
        routing: Routing,
        subs: Vec<(Subscription, BrokerId)>,
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
            subs,
        }
    }

    fn broker(setup: &Setup, id: u32, strategy: StrategyKind) -> BrokerState {
        let id = BrokerId::new(id);
        let table = SubscriptionTable::build(id, &setup.routing, &setup.subs);
        BrokerState::from_overlay(
            &setup.topo.graph,
            id,
            table,
            SchedulerConfig::paper(strategy),
        )
    }

    fn msg(id: u64, a1: f64, a2: f64, publish_secs: u64) -> Arc<Message> {
        Arc::new(
            Message::builder(MessageId::new(id), PublisherId::new(0))
                .publish_time(SimTime::from_secs(publish_secs))
                .size_kb(50.0)
                .attr("A1", a1)
                .attr("A2", a2)
                .build(),
        )
    }

    #[test]
    fn arrival_delivers_locally_and_enqueues_downstream() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let outcome = b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        // Local subscriber S2 matches (filter 8,8); on time.
        assert_eq!(outcome.local.len(), 1);
        assert_eq!(outcome.local[0].subscriber, SubscriberId::new(2));
        assert!(outcome.local[0].on_time);
        // Downstream: S0 and S1 both reached via B1 -> exactly one copy enqueued.
        assert_eq!(outcome.enqueued_to, vec![BrokerId::new(1)]);
        assert_eq!(b0.queued_total(), 1);
        assert_eq!(b0.counters.received, 1);
        assert_eq!(b0.counters.enqueued, 1);
        assert_eq!(b0.counters.delivered_on_time, 1);
        let q = b0.queue(BrokerId::new(1)).unwrap();
        assert_eq!(q.items()[0].targets.len(), 2);
    }

    #[test]
    fn non_matching_message_goes_nowhere() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let outcome = b0.handle_arrival(msg(1, 9.5, 9.5, 0), SimTime::from_millis(2));
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
        let outcome = b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_secs(40));
        assert_eq!(outcome.local.len(), 1);
        assert!(!outcome.local[0].on_time);
        assert_eq!(b0.counters.delivered_late, 1);
    }

    #[test]
    fn effective_deadline_takes_publisher_bound_into_account() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::MaxEb);
        let m = Arc::new(
            Message::builder(MessageId::new(9), PublisherId::new(0))
                .publish_time(SimTime::ZERO)
                .publisher_bound(DelayBound::from_secs(5))
                .attr("A1", 1.0)
                .attr("A2", 1.0)
                .build(),
        );
        let outcome = b0.handle_arrival(m, SimTime::from_millis(2));
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
        b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        b0.handle_arrival(msg(2, 2.0, 2.0, 0), SimTime::from_millis(4));
        assert_eq!(b0.queue(BrokerId::new(1)).unwrap().len(), 2);
        let send = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(10));
        assert!(send.message.is_some());
        assert!(send.dropped.is_empty());
        assert_eq!(b0.counters.sent, 1);
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
        b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        // S0's bound is 10 s and S1 is best-effort, so the queued copy keeps a
        // live target even after a minute; force expiry via a publisher bound.
        let m = Arc::new(
            Message::builder(MessageId::new(2), PublisherId::new(0))
                .publish_time(SimTime::ZERO)
                .publisher_bound(DelayBound::from_secs(5))
                .attr("A1", 1.0)
                .attr("A2", 1.0)
                .build(),
        );
        b0.handle_arrival(m, SimTime::from_millis(4));
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
        let only_s0 = vec![s.subs[0].clone()];
        let table = SubscriptionTable::build(BrokerId::new(0), &s.routing, &only_s0);
        let mut b0 = BrokerState::from_overlay(
            &s.topo.graph,
            BrokerId::new(0),
            table.clone(),
            SchedulerConfig::paper(StrategyKind::MaxEb),
        );
        let arrived = b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_secs(9));
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
            SchedulerConfig::paper(StrategyKind::MaxEb)
                .with_invalid_detection(InvalidDetection::Off),
        );
        b0_off.handle_arrival(msg(2, 1.0, 1.0, 0), SimTime::from_secs(9));
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
        // Enqueue a copy serving S0 and S1 (both via B1).
        b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        assert_eq!(b0.queued_total(), 1);
        // S1 leaves: the queued copy keeps serving S0.
        b0.remove_subscription(SubscriptionId::new(1));
        assert_eq!(b0.queued_total(), 1);
        assert_eq!(b0.counters.dropped_unsubscribed, 0);
        // S0 leaves too: the copy is orphaned and discarded.
        b0.remove_subscription(SubscriptionId::new(0));
        assert_eq!(b0.queued_total(), 0);
        assert_eq!(b0.counters.dropped_unsubscribed, 1);
        // Only S2 (local) is left in the table: new arrivals deliver locally
        // and enqueue nothing.
        let outcome = b0.handle_arrival(msg(2, 1.0, 1.0, 0), SimTime::from_millis(4));
        assert_eq!(outcome.local.len(), 1);
        assert!(outcome.enqueued_to.is_empty());
        // A join re-adds S0 and downstream forwarding resumes.
        let entry = s.subs[0].clone();
        let routing = &s.routing;
        let rebuilt = SubscriptionTable::entry_for(b0.id, routing, &entry.0, entry.1).unwrap();
        b0.insert_subscription(rebuilt);
        let outcome = b0.handle_arrival(msg(3, 1.0, 1.0, 0), SimTime::from_millis(6));
        assert_eq!(outcome.enqueued_to, vec![BrokerId::new(1)]);
    }

    #[test]
    fn requeue_counts_and_preserves_the_copy() {
        let s = setup();
        let mut b0 = broker(&s, 0, StrategyKind::Fifo);
        b0.handle_arrival(msg(1, 1.0, 1.0, 0), SimTime::from_millis(2));
        let send = b0.next_to_send(BrokerId::new(1), SimTime::from_millis(10));
        let copy = send.message.unwrap();
        assert_eq!(b0.queued_total(), 0);
        assert!(b0.requeue(BrokerId::new(1), copy));
        assert_eq!(b0.queued_total(), 1);
        assert_eq!(b0.counters.requeued, 1);
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
        assert_eq!(b1.table().stored_rows(), 3);
        assert_eq!(
            b1.table().layout(),
            bdps_overlay::sparse::TableLayout::Dense
        );
    }

    /// Aggregate-scoped arrivals: edge expansion delivers exactly the
    /// epoch-eligible member matches, remote sentinels forward as
    /// pseudo-targets, and zero-match expansions are counted as false
    /// positives.
    #[test]
    fn aggregate_arrival_expands_at_the_edge_and_counts_false_positives() {
        use bdps_overlay::sparse::{aggregate_scope_id, SharedPopulation, SparseTable};
        use std::sync::RwLock;
        let s = setup();
        let pop = Arc::new(RwLock::new(SharedPopulation::from_population(&s.subs)));
        let publish_epoch = pop.read().unwrap().epoch();
        let make = |id: u32| {
            let id = BrokerId::new(id);
            BrokerState::from_overlay(
                &s.topo.graph,
                id,
                SparseTable::build(id, &s.routing, &pop),
                SchedulerConfig::paper(StrategyKind::MaxEb),
            )
        };
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
        let outcome = b0.handle_arrival_aggregate(
            msg(1, 1.0, 1.0, 0),
            SimTime::from_millis(2),
            &scope,
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
        let outcome = b0.handle_arrival_aggregate(
            msg(2, 8.5, 8.5, 0),
            SimTime::from_millis(4),
            &scope,
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
        let outcome = b2.handle_arrival_aggregate(
            msg(2, 8.5, 8.5, 0),
            SimTime::from_millis(6),
            &remote_scope,
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
        let outcome = b1.handle_arrival_aggregate(
            msg(3, 1.0, 1.0, 0),
            SimTime::from_millis(8),
            &ScopeSet::from_sorted(vec![aggregate_scope_id(BrokerId::new(1))]),
            0,
            true,
        );
        assert!(outcome.local.is_empty());
        assert_eq!(b1.counters.false_positive_drops_at_edge, 1);
    }

    /// Every producer of queued copies — unscoped and scoped arrivals under
    /// both layouts, and aggregate sentinels — leaves `targets` strictly
    /// ascending by id, whatever order the population was registered in:
    /// the invariant `OutputQueue::remove_subscription` binary-searches on
    /// (`push` only `debug_assert!`s it).
    #[test]
    fn every_arrival_path_enqueues_strictly_ascending_targets() {
        use bdps_overlay::sparse::{aggregate_scope_id, SharedPopulation, SparseTable};
        use std::sync::RwLock;
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
        let config = || SchedulerConfig::paper(StrategyKind::MaxEb);
        let pop = Arc::new(RwLock::new(SharedPopulation::from_population(&subs)));
        let epoch = pop.read().unwrap().epoch();
        let dense = SubscriptionTable::build(b0, &s.routing, &subs);
        let sparse = SparseTable::build(b0, &s.routing, &pop);
        let mut brokers = [
            BrokerState::from_overlay(&s.topo.graph, b0, dense, config()),
            BrokerState::from_overlay(&s.topo.graph, b0, sparse, config()),
        ];
        let scope = ScopeSet::from_unsorted(subs.iter().map(|(sub, _)| sub.id).collect());
        let sentinels = ScopeSet::from_sorted(vec![
            aggregate_scope_id(BrokerId::new(1)),
            aggregate_scope_id(BrokerId::new(2)),
        ]);
        let now = SimTime::from_millis(2);
        for b in &mut brokers {
            b.handle_arrival(msg(1, 1.0, 1.0, 0), now);
            b.handle_arrival_scoped(msg(2, 1.0, 1.0, 0), now, Some(&scope));
        }
        brokers[1].handle_arrival_aggregate(msg(3, 1.0, 1.0, 0), now, &sentinels, epoch, false);
        for b in &brokers {
            let copies = b.queue(BrokerId::new(1)).unwrap().items();
            assert_eq!(copies.len(), b.queued_total());
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
        assert_eq!(brokers[0].queued_total(), 2);
        assert_eq!(brokers[1].queued_total(), 3);
    }

    /// The cost of an arrival, certified as a count instead of timed: in the
    /// shape of the benchmark's arrival probe (sparse table, one frozen
    /// scope, the publisher-side broker) a copy holds one class per
    /// `(edge broker, QoS bound)` it serves — never one per target — and an
    /// aggregate-mode copy holds exactly one per pseudo-target.
    #[test]
    fn an_arrival_opens_classes_per_edge_and_bound_not_per_target() {
        use bdps_overlay::sparse::{aggregate_scope_id, SharedPopulation, SparseTable};
        use std::collections::BTreeMap;
        use std::sync::RwLock;
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
        let pop = Arc::new(RwLock::new(SharedPopulation::from_population(&subs)));
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
        broker.handle_arrival_aggregate(msg(2, 1.0, 1.0, 0), now, &sentinels, epoch, false);
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

    /// A sparse broker processes the same arrivals into the same deliveries
    /// and queue contents as its dense twin — the broker-level seed of the
    /// engine-wide layout differential oracle.
    #[test]
    fn sparse_broker_matches_dense_broker_on_arrivals() {
        use bdps_overlay::sparse::{SharedPopulation, SparseTable};
        use std::sync::{Arc, RwLock};
        let s = setup();
        let make_dense = |id: u32| broker(&s, id, StrategyKind::MaxEb);
        let pop = Arc::new(RwLock::new(SharedPopulation::from_population(&s.subs)));
        let make_sparse = |id: u32| {
            let id = BrokerId::new(id);
            BrokerState::from_overlay(
                &s.topo.graph,
                id,
                SparseTable::build(id, &s.routing, &pop),
                SchedulerConfig::paper(StrategyKind::MaxEb),
            )
        };
        for id in 0..3u32 {
            let mut dense = make_dense(id);
            let mut sparse = make_sparse(id);
            for (i, (scoped, a1)) in [(false, 1.0), (true, 1.0), (true, 7.0)].iter().enumerate() {
                let m = msg(i as u64, *a1, *a1, 0);
                let scope = ScopeSet::from_unsorted(
                    s.subs
                        .iter()
                        .filter(|(sub, _)| sub.filter.matches(&m.head))
                        .map(|(sub, _)| sub.id)
                        .collect::<Vec<_>>(),
                );
                let now = SimTime::from_millis(2 + i as u64);
                let (a, b) = if *scoped {
                    (
                        dense.handle_arrival_scoped(Arc::clone(&m), now, Some(&scope)),
                        sparse.handle_arrival_scoped(m, now, Some(&scope)),
                    )
                } else {
                    (
                        dense.handle_arrival(Arc::clone(&m), now),
                        sparse.handle_arrival(m, now),
                    )
                };
                assert_eq!(a.local, b.local, "broker {id} arrival {i}");
                assert_eq!(a.enqueued_to, b.enqueued_to, "broker {id} arrival {i}");
            }
            assert_eq!(dense.queued_total(), sparse.queued_total(), "broker {id}");
            for nb in dense.neighbors() {
                let dq = dense.queue(nb).unwrap();
                let sq = sparse.queue(nb).unwrap();
                assert_eq!(dq.items().len(), sq.items().len());
                for (di, si) in dq.items().iter().zip(sq.items().iter()) {
                    assert_eq!(di.targets, si.targets, "broker {id} queue to {nb}");
                    assert_eq!(di.classes, si.classes, "broker {id} queue to {nb}");
                }
            }
            // Edge expansions are counted only on the sparse side, and only
            // for locally delivered copies.
            assert_eq!(
                sparse.counters.expanded_at_edge,
                sparse.counters.delivered_on_time + sparse.counters.delivered_late
            );
            assert_eq!(dense.counters.expanded_at_edge, 0);
        }
    }
}
