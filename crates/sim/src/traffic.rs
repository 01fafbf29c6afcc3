//! The traffic core: the paper's broker loop (receive → match → enqueue →
//! pick the next copy → send), written once and run by every executor.
//!
//! A run's state is four groups, split by who may write it: the
//! [`TrafficCore`] (everything the owner of a traffic event mutates), the
//! [`Shared`] context (read by every traffic handler, written only by
//! scenario actions), the scenario core (`scenario_apply.rs`: population and
//! routing, which traffic never touches) and the order-sensitive [`Totals`],
//! which both cores reach only through an [`EffectSink`]. The traffic
//! handlers are methods of the core taking `(&Shared, &mut impl
//! EffectSink)`: the sequential engine is one core owning every broker whose
//! sink *is* the totals (static dispatch, so an emit compiles to the field
//! update it names); a shard worker ([`crate::shard`]) runs the same methods
//! on its block of brokers with a sink that logs the effects for ordered
//! replay through the same `Totals::emit`.

use bdps_core::broker::{ArrivalOutcome, BrokerState};
use bdps_core::config::{SchedulerConfig, PROCESSING_DELAY};
use bdps_core::objective::ObjectiveTracker;
use bdps_core::queue::QueuedMessage;
use bdps_filter::index::MatchIndex;
use bdps_filter::scope::ScopeInterner;
use bdps_net::linkmodel::LinkModelKind;
use bdps_overlay::sparse::{aggregate_scope_id, read_population, PopulationHandle};
use bdps_overlay::topology::Topology;
use bdps_stats::rng::SimRng;
use bdps_stats::summary::Summary;
use bdps_types::id::{BrokerId, LinkId, MessageId, PublisherId, SubscriberId, SubscriptionId};
use bdps_types::money::Price;
use bdps_types::time::{Duration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::ForwardingMode;
use crate::event::{key, Arrival, EventKind};
use crate::outcome::{LinkFlow, LinkLoad, PhaseOutcome};
use crate::sched::{EventHeap, EventQueue, Scheduled};
use crate::workload::WorkloadConfig;

/// One update of the order-sensitive [`Totals`], named by a traffic or
/// scenario handler and applied by whichever [`EffectSink`] the executor
/// supplies.
pub(crate) enum Effect {
    /// A message was published with `interested` matching subscriptions.
    Published { message: MessageId, interested: u32 },
    /// An edge expansion resolved `count` more interested members
    /// (aggregate forwarding only).
    Interested { message: MessageId, count: u32 },
    /// A copy reached a subscriber.
    Delivery {
        message: MessageId,
        subscriber: SubscriberId,
        price: Price,
        delay: Duration,
        on_time: bool,
    },
    /// Queued copies were dropped (expired, unlikely or unsubscribed).
    Dropped { count: u64 },
    /// A link transmission started.
    Transmission,
    /// A link transmission completed (not voided by a failure).
    CompletedTransfer,
    /// A reporting phase began (`ScenarioAction::PhaseMark`). The label is
    /// boxed so this rare arm does not widen the enum.
    PhaseStarted { label: Box<str>, at: SimTime },
}

impl Effect {
    /// `digest` with this effect folded in: a tag word naming the kind, then
    /// every field (a delivery's delay in whole microseconds, a phase
    /// label's length and bytes).
    fn fold_into(&self, digest: u64) -> u64 {
        let fold = |words: &[u64]| words.iter().fold(digest, |d, &w| mix(d, w));
        match *self {
            Effect::Published {
                message,
                interested,
            } => fold(&[1, message.raw(), interested.into()]),
            Effect::Interested { message, count } => fold(&[2, message.raw(), count.into()]),
            Effect::Delivery {
                message,
                subscriber,
                price,
                delay,
                on_time,
            } => fold(&[
                3,
                message.raw(),
                subscriber.raw().into(),
                price.millis() as u64,
                delay.as_micros(),
                on_time.into(),
            ]),
            Effect::Dropped { count } => fold(&[4, count]),
            Effect::Transmission => fold(&[5]),
            Effect::CompletedTransfer => fold(&[6]),
            Effect::PhaseStarted { ref label, at } => label
                .bytes()
                .fold(fold(&[7, label.len() as u64, at.as_micros()]), |d, b| {
                    mix(d, b.into())
                }),
        }
    }
}

/// The digest of a run that has applied no effect yet.
const DIGEST_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// One step of the run digest: xor the word in, multiply by an odd
/// constant (2⁶⁴ over the golden ratio), rotate. Written out because the
/// goldens commit digests, and std's `DefaultHasher` is not specified to
/// stay the same across Rust releases.
#[inline]
fn mix(digest: u64, word: u64) -> u64 {
    (digest ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(27)
}

/// Where a handler's [`Effect`]s go. Handlers are generic over the
/// sink, so the sequential engine's choice ([`Totals`] itself) inlines to
/// direct field updates.
pub(crate) trait EffectSink {
    fn emit(&mut self, effect: Effect);
}

/// The order-sensitive accumulators: floating-point earning sums, the
/// on-time delay record, the per-phase breakdown and the run digest depend
/// on the order effects are applied in, so every executor must feed them in
/// canonical `(time, key)` order.
#[derive(Clone)]
pub(crate) struct Totals {
    pub(crate) tracker: ObjectiveTracker,
    /// The phase effects currently land in.
    pub(crate) phase: PhaseOutcome,
    /// The phases before it, in order.
    pub(crate) closed_phases: Vec<PhaseOutcome>,
    /// Every on-time delivery's delay (ms): the run's one record of them.
    pub(crate) valid_delays_ms: Summary,
    /// Every effect applied so far, folded in order (see
    /// `SimulationOutcome::digest`).
    pub(crate) digest: u64,
}

impl Totals {
    /// The totals of a run that has applied nothing, in its implicit "run"
    /// phase.
    pub(crate) fn new() -> Self {
        Totals {
            tracker: ObjectiveTracker::new(),
            phase: PhaseOutcome::new("run".into(), SimTime::ZERO, 0),
            closed_phases: Vec::new(),
            valid_delays_ms: Summary::new(),
            digest: DIGEST_SEED,
        }
    }
}

impl EffectSink for Totals {
    #[inline]
    fn emit(&mut self, effect: Effect) {
        self.digest = effect.fold_into(self.digest);
        let phase = &mut self.phase;
        match effect {
            Effect::Published {
                message,
                interested,
            } => {
                phase.published += 1;
                self.tracker.register_message(message, interested);
            }
            Effect::Interested { message, count } => self.tracker.add_interested(message, count),
            Effect::Delivery {
                message,
                subscriber,
                price,
                delay,
                on_time,
            } => {
                self.tracker
                    .record_delivery(message, subscriber, price, on_time);
                if on_time {
                    phase.on_time += 1;
                    self.valid_delays_ms.observe(delay.as_millis_f64());
                } else {
                    phase.late += 1;
                }
            }
            Effect::Dropped { count } => phase.dropped += count,
            Effect::Transmission => phase.transmissions += 1,
            // Counted per link, in `LinkLoad::completed_transfers`.
            Effect::CompletedTransfer => {}
            Effect::PhaseStarted { label, at } => {
                let next = PhaseOutcome::new(label.into(), at, self.valid_delays_ms.count());
                let closed = std::mem::replace(phase, next);
                self.closed_phases.push(PhaseOutcome { end: at, ..closed });
            }
        }
    }
}

/// The context every traffic handler reads and only scenario actions write.
/// During a sharded era the workers share one `&Shared`.
#[derive(Clone)]
pub(crate) struct Shared {
    pub(crate) topology: Topology,
    pub(crate) workload: WorkloadConfig,
    pub(crate) scheduler: SchedulerConfig,
    /// How each link shares itself among transfers (all flow bookkeeping
    /// lives in the core).
    pub(crate) link_model: LinkModelKind,
    /// End of the publication period.
    pub(crate) end: SimTime,
    pub(crate) link_of: Vec<Vec<Option<LinkId>>>,
    /// Nested failure depth per link; a link is alive iff its depth is 0.
    pub(crate) link_down_depth: Vec<u32>,
    /// Failure generation per link, bumped on every `LinkDown`; a transfer
    /// whose start generation differs at completion was interrupted by a
    /// failure (even one that already recovered) and is void.
    pub(crate) link_fail_gen: Vec<u64>,
    /// Per-publisher rate multiplier (scenario-controlled; 1.0 = base rate).
    pub(crate) rate_multiplier: Vec<f64>,
    /// Per-publisher rate generation; pending publish events from older
    /// generations are ignored when popped.
    pub(crate) publish_gen: Vec<u64>,
    /// How publish-time matching scopes copies, with the state only that
    /// mode reads.
    pub(crate) forwarding: Forwarding,
    /// The population registry every broker table references.
    pub(crate) population: PopulationHandle,
}

/// A [`ForwardingMode`] with the publish-time state only it reads.
#[derive(Clone)]
pub(crate) enum Forwarding {
    /// Exact forwarding and its global filter index, which counts `ts_i`
    /// and freezes each publication's scope. Joins and leaves keep it
    /// current.
    Exact(MatchIndex),
    /// Aggregate forwarding reads the registry's group summaries instead
    /// and holds no index.
    Aggregate,
}

impl Forwarding {
    pub(crate) fn mode(&self) -> ForwardingMode {
        match self {
            Forwarding::Exact(_) => ForwardingMode::Exact,
            Forwarding::Aggregate => ForwardingMode::Aggregate,
        }
    }
}

impl Shared {
    pub(crate) fn link_alive(&self, link: LinkId) -> bool {
        self.link_down_depth[link.index()] == 0
    }

    pub(crate) fn endpoints(&self, link: LinkId) -> (BrokerId, BrokerId) {
        let l = self.topology.graph.link(link);
        (l.from, l.to)
    }
}

/// The state whose every write belongs to the owner of the event being
/// applied — the publisher for `Publish`, the broker for `Process`, the link
/// and its *sender* broker for `SendComplete` / `FlowComplete` — so a shard
/// that homes those entities together owns its core outright.
///
/// `brokers` holds the contiguous block starting at broker `broker_lo` (all
/// of them in the sequential engine). The per-publisher and per-link vectors
/// are full-length for direct indexing; in a shard's core only the slots of
/// entities homed to it are live.
#[derive(Clone)]
pub(crate) struct TrafficCore {
    pub(crate) brokers: Vec<BrokerState>,
    pub(crate) broker_lo: usize,
    pub(crate) events: EventHeap<EventKind>,
    /// `Process` events for brokers outside `brokers`, awaiting the window
    /// barrier (always empty in the sequential engine).
    pub(crate) outbox: Vec<Scheduled<EventKind>>,
    /// Per-publisher RNG streams (publication gaps and message content) and
    /// per-link streams (transfer-time sampling). Each stream has exactly
    /// one owner entity, so its draw sequence depends only on the seed and
    /// that entity's own event history — never on how events of *other*
    /// entities interleave, which is what lets a shard replay the
    /// sequential run bit-for-bit.
    pub(crate) publisher_rng: Vec<SimRng>,
    pub(crate) link_rng: Vec<SimRng>,
    /// Per-publisher message counters ([`key::message_id`] combines the
    /// publisher index and counter into the partition-independent id).
    pub(crate) next_message: Vec<u64>,
    pub(crate) link_busy: Vec<bool>,
    /// In-flight flows per link under fair sharing (always empty under the
    /// exclusive constant-delay model, where `link_busy` and the
    /// copy-carrying `SendComplete` event do the bookkeeping).
    pub(crate) link_flows: Vec<Vec<LinkFlow>>,
    /// When each link's in-flight set last changed — the left edge of the
    /// open busy/flow-time integral interval in `link_load`.
    pub(crate) link_last_change: Vec<SimTime>,
    pub(crate) link_load: Vec<LinkLoad>,
    /// Population epoch frozen per message at publication time (aggregate
    /// forwarding only): edge expansion delivers only to members whose join
    /// epoch is at or below the publish epoch, reproducing exact mode's
    /// "a subscription joining a microsecond later must not receive this
    /// message" freeze without materialising the member set.
    pub(crate) publish_epoch: HashMap<MessageId, u64>,
    /// Hash-consing pool for publication scopes: publications matching the
    /// same population subset share one allocation. A forwarded copy carries
    /// its targets instead, so a scope is interned once per publication.
    pub(crate) scope_interner: ScopeInterner,
    /// Scratch id buffer reused across publications so scope construction
    /// does not allocate on the hot path.
    scope_scratch: Vec<SubscriptionId>,
    /// Scratch `(completes, message)` buffer reused across
    /// `reschedule_flows` calls.
    flow_scratch: Vec<(SimTime, MessageId)>,
    /// The outcome of the arrival being applied, lent to its broker: one
    /// per core, so its buffers serve every broker's arrivals.
    arrival: ArrivalOutcome,
    pub(crate) events_processed: u64,
    pub(crate) peak_pending: usize,
    /// The time of the last applied event.
    pub(crate) now: SimTime,
}

impl TrafficCore {
    /// An idle core for `publishers` publisher slots and `links` links, with
    /// no brokers yet (see `ScenarioCore::build_brokers` / `shard`'s scatter).
    pub(crate) fn new(publisher_rng: Vec<SimRng>, link_rng: Vec<SimRng>, broker_lo: usize) -> Self {
        let (publishers, links) = (publisher_rng.len(), link_rng.len());
        TrafficCore {
            brokers: Vec::new(),
            broker_lo,
            events: EventHeap::new(),
            outbox: Vec::new(),
            publisher_rng,
            link_rng,
            next_message: vec![0; publishers],
            link_busy: vec![false; links],
            link_flows: vec![Vec::new(); links],
            link_last_change: vec![SimTime::ZERO; links],
            link_load: vec![LinkLoad::default(); links],
            publish_epoch: HashMap::new(),
            scope_interner: ScopeInterner::new(),
            scope_scratch: Vec::new(),
            flow_scratch: Vec::new(),
            arrival: ArrivalOutcome::default(),
            events_processed: 0,
            peak_pending: 0,
            now: SimTime::ZERO,
        }
    }

    fn broker_mut(&mut self, broker: BrokerId) -> &mut BrokerState {
        &mut self.brokers[broker.index() - self.broker_lo]
    }

    /// Flows (or the one exclusive transfer) currently in flight on link `i`:
    /// under the exclusive model the busy flag is the flow count; under fair
    /// sharing the flow table is (and the flag stays false).
    pub(crate) fn active_flows(&self, i: usize) -> u64 {
        self.link_flows[i].len().max(self.link_busy[i] as usize) as u64
    }

    /// Schedules an event. The single place the cross-shard edge is decided:
    /// a `Process` for a broker this core does not hold goes to the outbox
    /// (a completed transfer's arrival at a receiver homed elsewhere — at
    /// `t + PD`, past the window limit, so the barrier delivers it before
    /// it is due); everything else is this core's own.
    pub(crate) fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        let event = Scheduled {
            time,
            seq: key,
            item: kind,
        };
        if let EventKind::Process { broker, .. } = &event.item {
            if broker.index().wrapping_sub(self.broker_lo) >= self.brokers.len() {
                self.outbox.push(event);
                return;
            }
        }
        self.accept(event);
    }

    /// Takes an already-stamped event into this core's own queue.
    pub(crate) fn accept(&mut self, event: Scheduled<EventKind>) {
        self.events.push(event);
        self.peak_pending = self.peak_pending.max(self.events.len());
    }

    /// Advances the clock to `time` and counts the event.
    pub(crate) fn begin_event(&mut self, time: SimTime) {
        debug_assert!(time >= self.now, "events must not run backwards");
        self.now = time;
        self.events_processed += 1;
    }

    /// Applies one traffic event: advances the clock and runs its handler,
    /// scheduling any follow-up events. Scenario events are not traffic —
    /// `ScenarioCore::apply` is their entry point.
    pub(crate) fn apply(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        entry: Scheduled<EventKind>,
    ) {
        self.begin_event(entry.time);
        match entry.item {
            EventKind::Publish { publisher, gen } => self.on_publish(sh, sink, publisher, gen),
            EventKind::Process { broker, arrival } => self.on_process(sh, sink, broker, arrival),
            EventKind::SendComplete { link, queued, gen } => {
                self.on_send_complete(sh, sink, link, queued, gen)
            }
            EventKind::FlowComplete { link, message } => {
                self.on_flow_complete(sh, sink, link, message)
            }
            EventKind::Scenario { .. } => unreachable!("scenario events are not traffic"),
        }
    }

    /// Draws the publisher's next gap and schedules its next publication
    /// after the current instant.
    pub(crate) fn schedule_next_publication(&mut self, sh: &Shared, publisher: PublisherId) {
        let multiplier = sh.rate_multiplier[publisher.index()];
        let Some(gap) = sh
            .workload
            .next_publication_gap_scaled(multiplier, &mut self.publisher_rng[publisher.index()])
        else {
            return; // zero effective publishing rate: the chain goes dormant
        };
        let t = self.now + gap;
        if t < sh.end {
            let gen = sh.publish_gen[publisher.index()];
            self.push(
                t,
                key::publish(publisher, gen),
                EventKind::Publish { publisher, gen },
            );
        }
    }

    /// Advances `link`'s busy/flow-time integrals to the current instant
    /// and, under fair sharing, drains the equal share of elapsed service
    /// from every active flow's remaining work. Must be called before the
    /// link's in-flight set changes (flow admitted, completed or voided;
    /// exclusive transfer started or finished).
    pub(crate) fn touch_link(&mut self, link: LinkId) {
        let i = link.index();
        let elapsed = self
            .now
            .duration_since(self.link_last_change[i])
            .as_micros();
        self.link_last_change[i] = self.now;
        let active = self.active_flows(i);
        if elapsed == 0 || active == 0 {
            return;
        }
        let load = &mut self.link_load[i];
        load.busy_us += elapsed;
        load.flow_time_us += active * elapsed;
        let share = elapsed as f64 / active as f64;
        for f in &mut self.link_flows[i] {
            f.remaining_us -= share;
        }
    }

    /// Recomputes and (re-)schedules the completion of every active flow on
    /// `link`. Assumes [`touch_link`](Self::touch_link) already advanced
    /// remaining work to now: with `n` flows each receiving an equal share,
    /// a flow owing `w` µs of dedicated service completes `w·n` µs from now.
    /// A fresh [`EventKind::FlowComplete`] is pushed only for flows whose
    /// completion time actually moved; the superseded event is recognised
    /// (and ignored) at pop because the flow no longer completes then.
    fn reschedule_flows(&mut self, link: LinkId) {
        let i = link.index();
        let n = self.link_flows[i].len();
        let mut moved = std::mem::take(&mut self.flow_scratch);
        for f in &mut self.link_flows[i] {
            let wait_us = f.remaining_us.max(0.0) * n as f64;
            let completes = self.now + Duration::from_millis_f64(wait_us / 1_000.0);
            if completes != f.completes_at {
                f.completes_at = completes;
                moved.push((completes, f.queued.message.id));
            }
        }
        for (at, message) in moved.drain(..) {
            self.push(
                at,
                key::send(link, message),
                EventKind::FlowComplete { link, message },
            );
        }
        self.flow_scratch = moved;
    }

    /// Records the depth of the sender's output queue behind `link` into
    /// the link's peak-queue counter — called wherever copies enter that
    /// queue (enqueue after processing, requeue after a voided transfer).
    /// The sender is homed with the link, so the queue is this core's.
    pub(crate) fn note_queue_peak(&mut self, link: LinkId, from: BrokerId, to: BrokerId) {
        let depth = self
            .broker_mut(from)
            .queue(to)
            .map_or(0, |q| q.len() as u64);
        let load = &mut self.link_load[link.index()];
        load.peak_queue = load.peak_queue.max(depth);
    }

    fn on_publish(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        publisher: PublisherId,
        gen: u64,
    ) {
        if sh.publish_gen[publisher.index()] != gen {
            return; // stale event from before a rate change
        }
        let Some(broker) = sh.topology.publisher_broker(publisher) else {
            return;
        };
        let counter = self.next_message[publisher.index()];
        self.next_message[publisher.index()] += 1;
        let id = key::message_id(publisher, counter);
        let message = Arc::new(sh.workload.generate_message(
            id,
            publisher,
            self.now,
            &mut self.publisher_rng[publisher.index()],
        ));

        let mut ids = std::mem::take(&mut self.scope_scratch);
        let interested = match &sh.forwarding {
            Forwarding::Exact(index) => {
                // ts_i: how many subscribers are interested in this message.
                // The matching set doubles as the copy's scope, freezing the
                // interested population at publication time — under churn a
                // subscription joining a microsecond later must not receive
                // (nor re-route) this message.
                index.matching_into(&message.head, &mut ids);
                ids.len() as u32
            }
            Forwarding::Aggregate => {
                // No global index walk: consult only each edge group's
                // covering summary — O(brokers), not O(population) — and
                // scope the copy with one sentinel per candidate edge.
                // Membership is frozen by epoch instead of by value; the
                // interested count starts at 0 and accumulates as edges
                // expand (see `on_process`).
                ids.clear();
                let pop = read_population(&sh.population);
                // BTreeMap iteration is ascending in the edge broker id
                // and the sentinel encoding is monotone in it, so the
                // scope ids come out ascending as ScopeSet requires.
                for (dest, group) in pop.groups() {
                    if group.summary_matches(&message.head) {
                        ids.push(aggregate_scope_id(dest));
                    }
                }
                self.publish_epoch.insert(id, pop.epoch());
                0
            }
        };
        sink.emit(Effect::Published {
            message: id,
            interested,
        });
        let scope = self.scope_interner.intern(&ids);
        self.scope_scratch = ids;

        // Hand the message to the attached broker (homed with the
        // publisher); processing takes PD.
        self.push(
            self.now + PROCESSING_DELAY,
            key::process(None, id),
            EventKind::Process {
                broker,
                arrival: Arrival::Published { message, scope },
            },
        );
        self.schedule_next_publication(sh, publisher);
    }

    fn on_process(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        broker: BrokerId,
        arrival: Arrival,
    ) {
        let now = self.now;
        let id = arrival.message().id;
        let b = &mut self.brokers[broker.index() - self.broker_lo];
        let out = &mut self.arrival;
        match sh.forwarding {
            Forwarding::Exact(_) => match arrival {
                Arrival::Published { message, scope } => {
                    b.arrive_scoped(out, &message, now, &scope)
                }
                Arrival::Forwarded(copy) => b.arrive_forwarded(out, copy, now),
            },
            Forwarding::Aggregate => {
                let epoch = self.publish_epoch.get(&id).copied().unwrap_or(0);
                match arrival {
                    Arrival::Published { message, scope } => {
                        b.arrive_aggregate(out, &message, now, scope.iter(), epoch, false)
                    }
                    Arrival::Forwarded(copy) => {
                        let ids = copy.targets.iter().map(|t| t.subscription);
                        b.arrive_aggregate(out, &copy.message, now, ids, epoch, true)
                    }
                }
                // The interested count accumulates edge by edge: each
                // expansion contributes exactly the members it resolved, so
                // once every copy lands total_interested equals the delivered
                // count (aggregate mode has no "interested but undelivered"
                // notion — the oracle compares delivery sets, not rates).
                sink.emit(Effect::Interested {
                    message: id,
                    count: out.local.len() as u32,
                });
            }
        }
        for d in &self.arrival.local {
            sink.emit(Effect::Delivery {
                message: id,
                subscriber: d.subscriber,
                price: d.price,
                delay: d.delay,
                on_time: d.on_time,
            });
        }
        // Lent out while the sends run: none of them is an arrival.
        let enqueued_to = std::mem::take(&mut self.arrival.enqueued_to);
        for &neighbor in &enqueued_to {
            if let Some(link) = sh.link_of[broker.index()][neighbor.index()] {
                self.note_queue_peak(link, broker, neighbor);
            }
            self.try_send(sh, sink, broker, neighbor);
        }
        self.arrival.enqueued_to = enqueued_to;
    }

    fn on_send_complete(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        link: LinkId,
        queued: QueuedMessage,
        gen: u64,
    ) {
        self.touch_link(link);
        self.link_busy[link.index()] = false;
        if sh.link_alive(link) && gen == sh.link_fail_gen[link.index()] {
            return self.finish_transfer(sh, sink, link, queued);
        }
        // The link died while the copy was in flight (possibly flapping back
        // up before completion — the generation check catches that case):
        // the transfer is void and the copy goes back into the sender's
        // queue, where it waits for recovery (or a rerouted purge) like any
        // other copy.
        let (from, to) = sh.endpoints(link);
        let accepted = self.broker_mut(from).requeue(to, queued);
        debug_assert!(accepted, "sender must have a queue for its own link");
        self.note_queue_peak(link, from, to);
        // If the flap is already over, restart the queue immediately
        // (`try_send` does nothing on a dead link).
        self.try_send(sh, sink, from, to);
    }

    /// Completion of one flow under fair sharing: live iff the link holds a
    /// flow of `message` completing now. Any other pop is stale — the flow
    /// completed, was voided by a link failure (a re-admitted copy is a new
    /// flow with its own completion), or was rescheduled — and is ignored.
    fn on_flow_complete(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        link: LinkId,
        message: MessageId,
    ) {
        let i = link.index();
        let now = self.now;
        let Some(pos) = self.link_flows[i]
            .iter()
            .position(|f| f.queued.message.id == message && f.completes_at == now)
        else {
            return; // stale completion event
        };
        self.touch_link(link);
        let flow = self.link_flows[i].remove(pos);
        debug_assert!(
            flow.remaining_us < 1.0,
            "a completing flow owes {} µs of service",
            flow.remaining_us
        );
        self.link_load[i].work_done_us += flow.nominal_us - flow.remaining_us.max(0.0);
        self.finish_transfer(sh, sink, link, flow.queued);
    }

    /// A copy finished crossing `link`: the copy itself arrives at the
    /// downstream broker, where processing takes PD, and the link pulls its
    /// next copy. Nothing is rebuilt or interned: the receiver routes the
    /// carried targets ([`BrokerState::arrive_forwarded`]).
    fn finish_transfer(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        link: LinkId,
        queued: QueuedMessage,
    ) {
        sink.emit(Effect::CompletedTransfer);
        self.link_load[link.index()].completed_transfers += 1;
        let (from, to) = sh.endpoints(link);
        self.push(
            self.now + PROCESSING_DELAY,
            key::process(Some(link), queued.message.id),
            EventKind::Process {
                broker: to,
                arrival: Arrival::Forwarded(queued),
            },
        );
        // Keep the link busy with the next scheduled copy, if any. The
        // departure speeds up any flows still sharing the link: when no
        // admission rescheduled them, that is done here.
        if !self.try_send(sh, sink, from, to) {
            self.reschedule_flows(link);
        }
    }

    /// Starts as many transfers `from → to` as the link model admits
    /// ([`LinkModelKind::max_flows`]): one when the link is idle under the
    /// exclusive model, queued copies up to the flow cap under fair
    /// sharing. Each admission slows every in-flight flow, so once the
    /// admissions are done every completion time on the link is recomputed
    /// — once, not once per admitted flow. Returns whether any transfer
    /// started.
    pub(crate) fn try_send(
        &mut self,
        sh: &Shared,
        sink: &mut impl EffectSink,
        from: BrokerId,
        to: BrokerId,
    ) -> bool {
        let Some(link) = sh.link_of[from.index()][to.index()] else {
            return false;
        };
        if !sh.link_alive(link) {
            return false;
        }
        let li = link.index();
        let max_flows = sh.link_model.max_flows() as u64;
        let mut admitted = false;
        while self.active_flows(li) < max_flows {
            let now = self.now;
            let decision = self.broker_mut(from).next_to_send(to, now);
            if !decision.dropped.is_empty() {
                sink.emit(Effect::Dropped {
                    count: decision.dropped.len() as u64,
                });
            }
            let Some(queued) = decision.message else {
                break;
            };
            let quality = &sh.topology.graph.link(link).quality;
            let transfer = quality.sample_transfer(queued.message.size_kb, &mut self.link_rng[li]);
            self.touch_link(link);
            match sh.link_model {
                LinkModelKind::Constant => {
                    self.link_busy[li] = true;
                    let gen = sh.link_fail_gen[li];
                    self.push(
                        now + transfer,
                        key::send(link, queued.message.id),
                        EventKind::SendComplete { link, queued, gen },
                    );
                }
                LinkModelKind::FairShare => {
                    let nominal_us = transfer.as_micros() as f64;
                    self.link_flows[li].push(LinkFlow {
                        queued,
                        nominal_us,
                        remaining_us: nominal_us,
                        completes_at: SimTime::MAX,
                    });
                }
            }
            let flows = self.active_flows(li);
            let load = &mut self.link_load[li];
            load.transmissions += 1;
            load.peak_flows = load.peak_flows.max(flows);
            sink.emit(Effect::Transmission);
            admitted = true;
        }
        if admitted {
            self.reschedule_flows(link);
        }
        admitted
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    /// The mix and the fold order of every effect kind, pinned on a fixed
    /// sequence: the goldens commit digests, so a change to either fails
    /// here first.
    #[test]
    fn the_digest_of_a_fixed_effect_sequence_is_pinned() {
        let (m1, m2) = (MessageId::new(1), MessageId::new(2));
        let delivery = |subscriber, delay_us, on_time| Effect::Delivery {
            message: m1,
            subscriber: SubscriberId::new(subscriber),
            price: Price::from_units(3),
            delay: Duration::from_micros(delay_us),
            on_time,
        };
        let run = |last_delay_us| {
            let mut totals = Totals::new();
            for effect in [
                Effect::Published {
                    message: m1,
                    interested: 2,
                },
                Effect::Interested {
                    message: m1,
                    count: 1,
                },
                Effect::Transmission,
                Effect::CompletedTransfer,
                delivery(4, 1_500_000, true),
                Effect::Dropped { count: 2 },
                Effect::PhaseStarted {
                    label: "burst".into(),
                    at: SimTime::from_secs(60),
                },
                Effect::Published {
                    message: m2,
                    interested: 0,
                },
                delivery(5, last_delay_us, false),
            ] {
                totals.emit(effect);
            }
            totals.digest
        };
        assert_eq!(Totals::new().digest, DIGEST_SEED);
        assert_eq!(run(90_000_000), 0x538D_BB72_8003_18A8);
        assert_ne!(run(90_000_001), run(90_000_000), "one µs moves it");
    }

    /// A shard worker logs one stamped `Effect` per delivery and the barrier
    /// sorts the log, so the enum stays at the size of its `Delivery` arm.
    #[test]
    fn an_effect_is_no_wider_than_a_delivery() {
        assert_eq!(std::mem::size_of::<super::Effect>(), 32);
    }

    /// A link arrival carries the transferred copy, as `SendComplete` did
    /// already: the event queue's entries are no wider for it. The widest
    /// arm is `SendComplete`, and its copy's 8-byte edge mask (what lets a
    /// leave skip the copies that cannot hold the leaver) took it from 80
    /// to 88 bytes.
    #[test]
    fn an_event_is_no_wider_than_a_transfer() {
        assert_eq!(std::mem::size_of::<crate::event::EventKind>(), 88);
    }
}
