//! Output queues and the records they hold.
//!
//! Each broker keeps one output queue per downstream neighbour (Fig. 2). A
//! queued message carries the set of *targets* — the matching subscriptions
//! reachable through that neighbour — because every scheduling metric of the
//! paper is a sum over exactly that set.
//!
//! # Success classes
//!
//! `success(s_i, m)` (eq. 5) depends on a target only through its path
//! statistics and its effective allowed delay, and a copy holds far fewer
//! distinct such pairs than targets: every subscriber behind one edge broker
//! shares that edge's path statistics, and a workload has a handful of QoS
//! bounds. A copy therefore keeps one [`SuccessClass`] per distinct pair,
//! each target names its class, and [`metrics`] evaluates the
//! probability once per live class instead of once per target. An
//! envelope-stamped aggregate pseudo-target is always its own class: its
//! bound is a per-destination fold, so there is nothing to group.
//!
//! # Edge masks
//!
//! A leave has to find the copies that still serve the leaver, and only a
//! handful of the copies queued system-wide do. Each copy therefore keeps
//! [`QueuedMessage::edges`], one bit ([`edge_bit`]) per edge broker whose
//! targets it carries, and each queue the OR of its copies' masks: a leave
//! binary-searches only the copies, in only the queues, whose mask has the
//! leaver's edge bit.
//!
//! **Invariant:** every target a queued copy holds, whose subscription is
//! still registered, is attached at an edge whose bit the copy's mask has.
//! [`CopyDraft::push_target`] sets the bit of the edge it is given, so a
//! copy cannot hold a target without it; a leave strips the id from every
//! copy with its bit, so no copy keeps the id past its leave; and a copy
//! that comes back from a failed link was never re-routed — its id may have
//! left and re-joined at another edge while it was in flight — so
//! `BrokerState::requeue` widens its mask to every edge.

use crate::config::{InvalidDetection, SchedulerConfig};
use crate::metrics::{self, ClassScratch};
use crate::strategy::ScheduleContext;
use bdps_overlay::pathstats::PathStats;
use bdps_types::id::{BrokerId, MessageId, SubscriberId, SubscriptionId};
use bdps_types::message::Message;
use bdps_types::money::Price;
use bdps_types::time::{Duration, SimTime};
use std::sync::Arc;

/// One subscription a queued message still has to reach via this queue's neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedTarget {
    /// The subscription's identifier.
    pub subscription: SubscriptionId,
    /// The subscriber that owns it.
    pub subscriber: SubscriberId,
    /// The price paid per valid delivery (`pr`).
    pub price: Price,
    /// Index of the target's [`SuccessClass`] in [`QueuedMessage::classes`].
    pub class: u32,
    /// The registry incarnation the subscriber, price and class bound were
    /// resolved under ([`SlotTag`](bdps_overlay::sparse::SlotTag)): while
    /// the slot keeps it, the next broker routes the target without
    /// re-reading the record. 0 for a target nobody resolved from the
    /// registry, which every broker re-resolves.
    pub incarnation: u32,
}

/// What `success(s_i, m)` reads of a target, shared by every target of a
/// copy with the same values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessClass {
    /// Path statistics from the current broker to the subscriber (`NN_p`, `μ_p`, `σ_p²`).
    pub stats: PathStats,
    /// The *effective* allowed end-to-end delay: the tighter of the
    /// publisher bound and the subscription bound.
    pub allowed_delay: Duration,
    /// Targets of the copy still in this class. A class whose last member
    /// unsubscribed stays in the table (target indices are positions) but
    /// takes part in no metric and no ε-test.
    pub live: u32,
}

impl SuccessClass {
    /// Remaining lifetime of the message with respect to this class at `now`:
    /// `allowed_delay − hdl`, floored at zero. An unbounded class stays at
    /// `Duration::MAX` for any elapsed time — subtracting from the sentinel
    /// would silently yield a huge-but-finite bound, so callers mapping
    /// `Duration::MAX` to infinity (e.g.
    /// [`QueuedMessage::avg_remaining_lifetime_ms`]) would misread it as a
    /// real deadline the moment any time has passed.
    pub(crate) fn remaining_lifetime(&self, message: &Message, now: SimTime) -> Duration {
        if self.allowed_delay == Duration::MAX {
            return Duration::MAX;
        }
        self.allowed_delay.saturating_sub(message.elapsed(now))
    }

    /// Returns true when the class's deadline has already passed at `now`.
    pub(crate) fn is_expired(&self, message: &Message, now: SimTime) -> bool {
        self.allowed_delay != Duration::MAX && message.elapsed(now) > self.allowed_delay
    }
}

/// How many of a copy's most recently opened classes
/// [`CopyDraft::class_for`] compares a new target with. Id-ordered
/// scopes arrive in runs of one edge broker, so a run's few classes (one per
/// QoS bound) sit at the tail; the cap keeps a population with one bound per
/// subscriber linear.
const CLASS_PROBE: usize = 8;

/// The bit of a copy's [`edges`](QueuedMessage::edges) mask that stands for
/// edge broker `edge`: bit `edge % 64`. Brokers 64 apart share a bit, which
/// costs a leave a binary search, never a missed target.
pub fn edge_bit(edge: BrokerId) -> u64 {
    1 << (edge.raw() % 64)
}

/// A message waiting in an output queue.
#[derive(Debug, Clone)]
pub struct QueuedMessage {
    /// The message itself (shared between queues).
    pub message: Arc<Message>,
    /// The subscriptions this copy still serves (all reachable via the queue's neighbour).
    ///
    /// **Invariant:** strictly ascending by subscription id. Every producer
    /// builds the list from an id-ordered source (a frozen scope, the
    /// matching index, or destination-monotone aggregate sentinels), and
    /// [`OutputQueue::remove_subscription`] binary-searches it.
    pub targets: Vec<MatchedTarget>,
    /// The distinct `(path statistics, effective allowed delay)` pairs of
    /// `targets`, with live-member counts (see the module docs).
    pub classes: Vec<SuccessClass>,
    /// When the message entered this queue.
    pub enqueue_time: SimTime,
    /// The [`edge_bit`]s of the edge brokers whose targets the copy carries
    /// (see the module docs on edge masks). A superset is sound: a target
    /// that leaves does not clear its bit.
    pub edges: u64,
}

impl QueuedMessage {
    /// The classes that still have a member.
    pub(crate) fn live_classes(&self) -> impl Iterator<Item = &SuccessClass> + '_ {
        self.classes.iter().filter(|c| c.live > 0)
    }

    /// Average remaining lifetime over all targets (the paper's RL tie-break
    /// for messages with several subscribers, §6.1), in milliseconds.
    pub fn avg_remaining_lifetime_ms(&self, now: SimTime) -> f64 {
        if self.targets.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .targets
            .iter()
            .map(|t| {
                let rl = self.classes[t.class as usize].remaining_lifetime(&self.message, now);
                if rl == Duration::MAX {
                    f64::INFINITY
                } else {
                    rl.as_millis_f64()
                }
            })
            .sum();
        total / self.targets.len() as f64
    }

    /// Returns true when every target deadline has passed.
    pub(crate) fn fully_expired(&self, now: SimTime) -> bool {
        !self.targets.is_empty()
            && self
                .live_classes()
                .all(|c| c.is_expired(&self.message, now))
    }
}

/// A copy's targets, classes and edge mask while an arrival builds them,
/// held apart from any message: an arrival keeps its drafts' buffers for
/// the next one, and a draft it keeps becomes a [`QueuedMessage`] whose
/// vectors are allocated once, at their exact length
/// ([`to_copy`](Self::to_copy)). Fill it with
/// [`push_target`](Self::push_target) in ascending subscription order.
#[derive(Debug, Clone, Default)]
pub struct CopyDraft {
    targets: Vec<MatchedTarget>,
    classes: Vec<SuccessClass>,
    edges: u64,
}

impl CopyDraft {
    /// Empties the draft for the next copy, keeping its buffers.
    pub(crate) fn clear(&mut self) {
        self.targets.clear();
        self.classes.clear();
        self.edges = 0;
    }

    /// The class a target with these values joins: the one among the copy's
    /// last eight (`CLASS_PROBE`) that shares its `stats` run and `allowed_delay`,
    /// or a new one.
    pub fn class_for(&mut self, stats: PathStats, allowed_delay: Duration) -> u32 {
        let probe = self.classes.iter().rev().take(CLASS_PROBE);
        let mut run = probe.take_while(|c| c.stats == stats);
        match run.position(|c| c.allowed_delay == allowed_delay) {
            Some(back) => (self.classes.len() - 1 - back) as u32,
            None => self.open_class(stats, allowed_delay),
        }
    }

    /// Opens a class without looking for an equal one — what an
    /// envelope-stamped aggregate pseudo-target always gets.
    pub(crate) fn open_class(&mut self, stats: PathStats, allowed_delay: Duration) -> u32 {
        self.classes.push(SuccessClass {
            stats,
            allowed_delay,
            live: 0,
        });
        self.classes.len() as u32 - 1
    }

    /// Appends a target attached at edge broker `edge`, resolved under
    /// registry `incarnation`, as a member of `class`.
    pub fn push_target(
        &mut self,
        subscription: SubscriptionId,
        subscriber: SubscriberId,
        price: Price,
        incarnation: u32,
        class: u32,
        edge: BrokerId,
    ) {
        self.edges |= edge_bit(edge);
        self.classes[class as usize].live += 1;
        self.targets.push(MatchedTarget {
            subscription,
            subscriber,
            price,
            class,
            incarnation,
        });
    }

    /// The copy of `message` this draft describes, entering its queue at
    /// `enqueue_time`. A copy waits in queues and in flight for seconds, so
    /// its vectors hold no slack.
    pub fn to_copy(&self, message: &Arc<Message>, enqueue_time: SimTime) -> QueuedMessage {
        QueuedMessage {
            message: Arc::clone(message),
            targets: self.targets.clone(),
            classes: self.classes.clone(),
            enqueue_time,
            edges: self.edges,
        }
    }
}

/// Why a queued message was dropped before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DropReason {
    /// Every target deadline had already passed.
    Expired,
    /// Every target's success probability was below ε (eq. 11).
    Unlikely,
}

/// What stripping one subscription from a queue's copies did
/// ([`OutputQueue::remove_subscription`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stripped {
    /// Copies left with no target, and dropped.
    pub orphaned: u64,
    /// Copies binary-searched for the id: those whose edge mask had the
    /// leaver's bit.
    pub scanned: u64,
}

impl Stripped {
    /// Adds another strip's counts to these.
    pub fn absorb(&mut self, other: Stripped) {
        self.orphaned += other.orphaned;
        self.scanned += other.scanned;
    }
}

/// A record of one dropped message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropRecord {
    /// The dropped message.
    pub(crate) message: MessageId,
    /// Why it was dropped.
    pub(crate) reason: DropReason,
    /// How many targets the copy was still carrying.
    pub(crate) targets: u32,
}

/// An output queue towards one downstream neighbour.
#[derive(Debug, Clone)]
pub struct OutputQueue {
    /// Mean per-KB rate of the link the queue feeds (ms/KB), used for the `FT` estimate of EB'.
    pub(crate) link_mean_rate_ms_per_kb: f64,
    items: Vec<QueuedMessage>,
    /// The OR of the queued copies' [`edges`](QueuedMessage::edges) masks:
    /// grown by every push, cleared when the queue empties and recomputed
    /// from the survivors whenever a leave scans the queue.
    edges: u64,
    /// The per-class probabilities every score of every selection is
    /// computed in — and the ε-test reads — so selecting allocates nothing
    /// once it has grown.
    scratch: ClassScratch,
}

impl OutputQueue {
    /// Creates an empty queue in front of a link of the given mean per-KB
    /// rate (ms/KB).
    pub fn new(link_mean_rate_ms_per_kb: f64) -> Self {
        OutputQueue {
            link_mean_rate_ms_per_kb,
            items: Vec::new(),
            edges: 0,
            scratch: ClassScratch::default(),
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns true when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The queued messages (FIFO order of arrival).
    pub fn items(&self) -> &[QueuedMessage] {
        &self.items
    }

    /// The queue's edge summary: it has every bit any queued copy's
    /// [`edges`](QueuedMessage::edges) mask has.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Enqueues a message copy (also the path a requeued copy comes back
    /// through).
    pub fn push(&mut self, item: QueuedMessage) {
        debug_assert!(
            item.targets
                .windows(2)
                .all(|w| w[0].subscription < w[1].subscription),
            "targets must be strictly ascending by subscription id"
        );
        self.edges |= item.edges;
        self.items.push(item);
    }

    /// Clears the edge summary once nothing is queued.
    fn forget_edges_if_empty(&mut self) {
        if self.items.is_empty() {
            self.edges = 0;
        }
    }

    /// Selects and removes the next message to transmit according to the
    /// configured strategy. Metrics are recomputed at call time because they
    /// are time-dependent. This is the broker's selection pass with the
    /// invalid-message policy off: every queued copy competes.
    pub fn pop_next(&mut self, now: SimTime, config: &SchedulerConfig) -> Option<QueuedMessage> {
        self.take_next(now, config, InvalidDetection::Off, &mut Vec::new())
    }

    /// The one pass a free link runs over its queue: drops every copy the
    /// `detection` policy finds invalid (§5.4), recording each in `dropped`
    /// in queue order, and removes and returns the copy the strategy scores
    /// highest among the rest, the first of equal scores.
    ///
    /// An expired copy is dropped unscored. Any other copy is scored into the
    /// queue's one [`ClassScratch`], and the ε-test (eq. 11) then reads the
    /// class probabilities that scoring left there for this copy at `now` —
    /// EB, PC, EBPC and COMPOSITE leave them — so no `success` is evaluated
    /// twice. A strategy that left none (FIFO, RL, a custom one) has
    /// [`metrics::is_likely`] evaluate them.
    pub(crate) fn take_next(
        &mut self,
        now: SimTime,
        config: &SchedulerConfig,
        detection: InvalidDetection,
        dropped: &mut Vec<DropRecord>,
    ) -> Option<QueuedMessage> {
        let ctx = ScheduleContext::new(now, config, self.link_mean_rate_ms_per_kb);
        let scratch = &mut self.scratch;
        // Copy addresses repeat from pass to pass, never within one.
        scratch.forget();
        let (mut best, mut kept) = ((0, f64::NEG_INFINITY), 0);
        self.items.retain(|item| {
            let reason = if detection != InvalidDetection::Off && item.fully_expired(now) {
                Some(DropReason::Expired)
            } else {
                let score = config.strategy.priority(&ctx, item, scratch);
                let fill = scratch.zero_delay_fill(item, now);
                match detection {
                    InvalidDetection::Epsilon(eps) if !metrics::is_likely(item, now, eps, fill) => {
                        Some(DropReason::Unlikely)
                    }
                    _ => {
                        // Strictly greater keeps FIFO order among ties.
                        if score > best.1 {
                            best = (kept, score);
                        }
                        kept += 1;
                        None
                    }
                }
            };
            if let Some(reason) = reason {
                dropped.push(DropRecord {
                    message: item.message.id,
                    reason,
                    targets: item.targets.len() as u32,
                });
            }
            reason.is_none()
        });
        let picked = (kept > 0).then(|| self.items.remove(best.0));
        self.forget_edges_if_empty();
        picked
    }

    /// Removes one subscription, attached at edge broker `edge`, from every
    /// queued copy's target set (used when a subscriber leaves mid-run).
    /// Copies left with no target are dropped entirely and counted as
    /// orphaned.
    ///
    /// Nothing when the queue's summary lacks `edge`'s bit; otherwise one
    /// pass that binary-searches — `O(log targets)`, by the ascending-id
    /// invariant of [`QueuedMessage::targets`] — only the copies whose mask
    /// has the bit (see the module docs on edge masks), and recomputes the
    /// summary from the survivors.
    pub fn remove_subscription(&mut self, id: SubscriptionId, edge: BrokerId) -> Stripped {
        let bit = edge_bit(edge);
        let mut stripped = Stripped::default();
        if self.edges & bit == 0 {
            return stripped;
        }
        let mut edges = 0;
        self.items.retain_mut(|item| {
            if item.edges & bit != 0 {
                stripped.scanned += 1;
                if let Ok(pos) = item.targets.binary_search_by_key(&id, |t| t.subscription) {
                    let gone = item.targets.remove(pos);
                    item.classes[gone.class as usize].live -= 1;
                    if item.targets.is_empty() {
                        stripped.orphaned += 1;
                        return false;
                    }
                }
            }
            edges |= item.edges;
            true
        });
        self.edges = edges;
        stripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::metrics::reference::{self, FlatTarget};
    use crate::strategy::{SchedulingStrategy, StrategyHandle};
    use bdps_stats::normal::Normal;
    use bdps_stats::rng::SimRng;
    use bdps_types::qos::DelayBound;

    fn msg(id: u64, publish_secs: u64, bound_secs: Option<u64>) -> Arc<Message> {
        let mut b = Message::builder(MessageId::new(id))
            .publish_time(SimTime::from_secs(publish_secs))
            .size_kb(50.0);
        if let Some(s) = bound_secs {
            b = b.publisher_bound(DelayBound::from_secs(s));
        }
        Arc::new(b.build())
    }

    fn target(allowed_secs: u64, price: i64, mean_rate: f64, hops: u32) -> FlatTarget {
        let mut stats = PathStats::local();
        for _ in 0..hops {
            stats = stats.extend(Normal::new(mean_rate, 20.0));
        }
        FlatTarget {
            subscription: SubscriptionId::new(0),
            subscriber: SubscriberId::new(0),
            price: Price::from_units(price),
            allowed_delay: Duration::from_secs(allowed_secs),
            stats,
        }
    }

    fn queued(m: Arc<Message>, targets: Vec<FlatTarget>, enqueue_secs: u64) -> QueuedMessage {
        reference::queued(&m, &targets, SimTime::from_secs(enqueue_secs))
    }

    fn config(strategy: StrategyKind) -> SchedulerConfig {
        SchedulerConfig::paper(strategy)
    }

    /// The drops of the selection pass under `config`'s policy; the copy it
    /// picks goes back into the queue.
    fn purge(q: &mut OutputQueue, now: SimTime, config: &SchedulerConfig) -> Vec<DropRecord> {
        let mut dropped = Vec::new();
        if let Some(copy) = q.take_next(now, config, config.invalid_detection, &mut dropped) {
            q.push(copy);
        }
        dropped
    }

    /// A copy holds one target per subscription it serves, so the
    /// incarnation rides in what was padding.
    #[test]
    fn a_target_is_no_wider_than_before_it_carried_its_incarnation() {
        assert_eq!(std::mem::size_of::<MatchedTarget>(), 24);
    }

    #[test]
    fn matched_target_lifetime_and_expiry() {
        let m = msg(1, 100, None);
        let t = queued(Arc::clone(&m), vec![target(10, 1, 60.0, 1)], 100).classes[0];
        let now = SimTime::from_secs(104);
        assert_eq!(t.remaining_lifetime(&m, now), Duration::from_secs(6));
        assert!(!t.is_expired(&m, now));
        assert!(t.is_expired(&m, SimTime::from_secs(111)));
        // Unbounded targets never expire.
        let unbounded = SuccessClass {
            allowed_delay: Duration::MAX,
            ..t
        };
        assert!(!unbounded.is_expired(&m, SimTime::from_secs(10_000)));
    }

    #[test]
    fn avg_remaining_lifetime_averages_over_targets() {
        let m = msg(1, 0, None);
        let q = queued(m, vec![target(10, 1, 60.0, 1), target(30, 1, 60.0, 1)], 0);
        let avg = q.avg_remaining_lifetime_ms(SimTime::from_secs(5));
        assert!((avg - 15_000.0).abs() < 1e-9); // (5s + 25s) / 2
        let empty = queued(msg(2, 0, None), vec![], 0);
        assert_eq!(empty.avg_remaining_lifetime_ms(SimTime::ZERO), 0.0);
    }

    #[test]
    fn purge_removes_expired_messages() {
        let mut q = OutputQueue::new(75.0);
        q.push(queued(msg(1, 0, None), vec![target(10, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 0, None), vec![target(120, 1, 60.0, 1)], 0));
        let dropped = purge(&mut q, SimTime::from_secs(20), &config(StrategyKind::Fifo));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].message, MessageId::new(1));
        assert_eq!(dropped[0].reason, DropReason::Expired);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn purge_off_keeps_everything() {
        let cfg = SchedulerConfig {
            invalid_detection: InvalidDetection::Off,
            ..config(StrategyKind::Fifo)
        };
        let mut q = OutputQueue::new(75.0);
        q.push(queued(msg(1, 0, None), vec![target(10, 1, 60.0, 1)], 0));
        assert!(purge(&mut q, SimTime::from_secs(500), &cfg).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn purge_epsilon_drops_unlikely_but_not_expired_messages() {
        // A 50 KB message over a 4-hop path at 90 ms/KB needs ~18 s; with a
        // 10 s budget and 8 s already elapsed it is hopeless but not expired.
        let cfg = config(StrategyKind::MaxEb);
        let mut q = OutputQueue::new(90.0);
        q.push(queued(msg(1, 0, None), vec![target(10, 1, 90.0, 4)], 0));
        let now = SimTime::from_secs(8);
        let dropped = purge(&mut q, now, &cfg);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].reason, DropReason::Unlikely);
        // The same situation with detection limited to expiry keeps the message.
        let mut q2 = OutputQueue::new(90.0);
        q2.push(queued(msg(1, 0, None), vec![target(10, 1, 90.0, 4)], 0));
        let cfg2 = SchedulerConfig {
            invalid_detection: InvalidDetection::EXPIRED_ONLY,
            ..cfg
        };
        assert!(purge(&mut q2, now, &cfg2).is_empty());
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let cfg = config(StrategyKind::Fifo);
        let mut q = OutputQueue::new(75.0);
        q.push(queued(msg(1, 0, None), vec![target(60, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 1, None), vec![target(10, 3, 60.0, 1)], 1));
        let first = q.pop_next(SimTime::from_secs(2), &cfg).unwrap();
        assert_eq!(first.message.id, MessageId::new(1));
        let second = q.pop_next(SimTime::from_secs(2), &cfg).unwrap();
        assert_eq!(second.message.id, MessageId::new(2));
        assert!(q.pop_next(SimTime::from_secs(2), &cfg).is_none());
    }

    #[test]
    fn remaining_lifetime_pops_most_urgent_first() {
        let cfg = config(StrategyKind::RemainingLifetime);
        let mut q = OutputQueue::new(75.0);
        q.push(queued(msg(1, 0, None), vec![target(60, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 0, None), vec![target(10, 1, 60.0, 1)], 0));
        let first = q.pop_next(SimTime::from_secs(1), &cfg).unwrap();
        assert_eq!(first.message.id, MessageId::new(2));
    }

    #[test]
    fn max_eb_prefers_more_valuable_and_more_likely_messages() {
        let cfg = config(StrategyKind::MaxEb);
        let mut q = OutputQueue::new(75.0);
        // Message 1: one cheap target; message 2: three expensive targets.
        q.push(queued(msg(1, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        let targets = [3, 3, 2]
            .into_iter()
            .zip(0..)
            .map(|(price, id)| FlatTarget {
                subscription: SubscriptionId::new(id),
                ..target(30, price, 60.0, 1)
            });
        q.push(queued(msg(2, 0, None), targets.collect(), 0));
        assert_eq!(q.items()[1].classes.len(), 1, "three targets, one class");
        let first = q.pop_next(SimTime::from_secs(1), &cfg).unwrap();
        assert_eq!(first.message.id, MessageId::new(2));
    }

    #[test]
    fn remove_subscription_strips_targets_and_drops_orphans() {
        let mut q = OutputQueue::new(75.0);
        let t_keep = FlatTarget {
            subscription: SubscriptionId::new(7),
            ..target(30, 1, 60.0, 1)
        };
        // Copy 1 only serves subscription 0; copy 2 serves 0 and 7.
        q.push(queued(msg(1, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        q.push(queued(
            msg(2, 0, None),
            vec![target(30, 1, 60.0, 1), t_keep],
            0,
        ));
        let stripped = q.remove_subscription(SubscriptionId::new(0), reference::EDGE);
        assert_eq!(
            stripped,
            Stripped {
                orphaned: 1,
                scanned: 2
            }
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.items()[0].message.id, MessageId::new(2));
        assert_eq!(q.items()[0].targets.len(), 1);
        assert_eq!(q.items()[0].targets[0].subscription, SubscriptionId::new(7));
        // Removing an id nobody serves changes nothing.
        let stripped = q.remove_subscription(SubscriptionId::new(99), reference::EDGE);
        assert_eq!(stripped.orphaned, 0);
        assert_eq!(q.len(), 1);
    }

    /// A leave searches only the copies that carry a target behind the
    /// leaver's edge, and only in queues whose summary has its bit; the
    /// summary forgets an edge once no copy carries it.
    #[test]
    fn a_leave_searches_only_copies_with_its_edge_bit() {
        let (e1, e2, e65) = (BrokerId::new(1), BrokerId::new(2), BrokerId::new(65));
        let copy = |id: u64, edge: BrokerId, subs: &[u32]| {
            let mut draft = CopyDraft::default();
            let class = draft.open_class(PathStats::local(), Duration::MAX);
            for &s in subs {
                let (sub, subscriber) = (SubscriptionId::new(s), SubscriberId::new(s));
                draft.push_target(sub, subscriber, Price::unit(), 0, class, edge);
            }
            draft.to_copy(&msg(id, 0, None), SimTime::ZERO)
        };
        let mut q = OutputQueue::new(75.0);
        q.push(copy(1, e1, &[3, 4]));
        q.push(copy(2, e2, &[5]));
        assert_eq!(q.edges(), edge_bit(e1) | edge_bit(e2));
        // Broker 65 shares broker 1's bit: a search, never a miss.
        assert_eq!(edge_bit(e65), edge_bit(e1));
        let strip = |q: &mut OutputQueue, id: u32, edge| {
            q.remove_subscription(SubscriptionId::new(id), edge)
        };
        assert_eq!(strip(&mut q, 3, BrokerId::new(7)), Stripped::default());
        assert_eq!(
            strip(&mut q, 3, e65),
            Stripped {
                orphaned: 0,
                scanned: 1
            }
        );
        assert_eq!(
            strip(&mut q, 5, e2),
            Stripped {
                orphaned: 1,
                scanned: 1
            }
        );
        assert_eq!(q.edges(), edge_bit(e1), "the summary forgets broker 2");
        assert_eq!(strip(&mut q, 5, e2), Stripped::default());
        let cfg = config(StrategyKind::Fifo);
        assert!(q.pop_next(SimTime::ZERO, &cfg).is_some());
        assert_eq!(q.edges(), 0, "an empty queue summarises nothing");
    }

    #[test]
    fn queue_bookkeeping() {
        let mut q = OutputQueue::new(80.0);
        assert!(q.is_empty());
        q.push(queued(msg(1, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.items().len(), 2);
        let cfg = config(StrategyKind::Fifo);
        while q.pop_next(SimTime::ZERO, &cfg).is_some() {}
        assert!(q.is_empty());
    }

    /// The trap a class table introduces: a class keeps its slot after its
    /// last member left, and must stop vouching for the copy — the ε-test
    /// and the expiry test go by live counts, not by table length.
    #[test]
    fn a_class_emptied_by_a_leave_no_longer_vouches_for_the_copy() {
        let now = SimTime::from_secs(8);
        let leaver = SubscriptionId::new(1);
        // (policy, the member that stays, the most promising member, verdict once it left)
        let cases = [
            (
                InvalidDetection::PAPER,
                target(10, 1, 90.0, 4),
                target(120, 1, 60.0, 1),
                DropReason::Unlikely,
            ),
            (
                InvalidDetection::EXPIRED_ONLY,
                target(5, 1, 60.0, 1),
                target(120, 1, 60.0, 1),
                DropReason::Expired,
            ),
        ];
        for (policy, stays, leaves, verdict) in cases {
            let cfg = SchedulerConfig {
                invalid_detection: policy,
                ..config(StrategyKind::MaxEb)
            };
            let leaves = FlatTarget {
                subscription: leaver,
                ..leaves
            };
            let mut q = OutputQueue::new(90.0);
            q.push(queued(msg(1, 0, None), vec![stays.clone(), leaves], 0));
            assert!(
                purge(&mut q.clone(), now, &cfg).is_empty(),
                "the copy is worth sending"
            );
            assert_eq!(q.remove_subscription(leaver, reference::EDGE).orphaned, 0);
            let copy = &q.items()[0];
            assert_eq!((copy.classes.len(), copy.live_classes().count()), (2, 1));
            let flat = (msg(1, 0, None), vec![stays], SimTime::ZERO);
            assert_eq!(reference_drop(policy, &flat, now), Some(verdict));
            let dropped = purge(&mut q, now, &cfg);
            assert_eq!(dropped.len(), 1);
            assert_eq!((dropped[0].reason, dropped[0].targets), (verdict, 1));
        }
    }

    /// One copy before it has classes: message, flat targets, enqueue time.
    type FlatItem = (Arc<Message>, Vec<FlatTarget>, SimTime);

    /// A queue of 1–8 copies of 1–300 targets over 1–12 `(stats, bound)`
    /// pairs each: zero-σ local paths, unbounded members, members expired
    /// before any `now` the test uses, and — on a third of the messages — a
    /// publisher bound tighter than most subscriber bounds. Targets mostly
    /// come in runs of one path, as id-ordered scopes do, but not always.
    fn random_flat_queue(rng: &mut SimRng) -> Vec<FlatItem> {
        (0..rng.uniform_usize(1, 9) as u64)
            .map(|id| {
                let publisher_bound = rng.chance(0.33).then(|| rng.uniform_usize(5, 40) as u64);
                let message = msg(id, rng.uniform_usize(0, 5) as u64, publisher_bound);
                let pairs: Vec<(PathStats, Duration)> = (0..rng.uniform_usize(1, 13))
                    .map(|_| {
                        let mut stats = PathStats::local();
                        for _ in 0..rng.uniform_usize(0, 4) {
                            stats = stats.extend(Normal::new(rng.uniform_range(50.0, 100.0), 20.0));
                        }
                        let bound = match rng.uniform_usize(0, 6) {
                            0 => Duration::MAX,
                            1 => Duration::from_secs(rng.uniform_usize(1, 4) as u64),
                            _ => Duration::from_millis(rng.uniform_usize(8_000, 90_000) as u64),
                        };
                        let tightest = publisher_bound.map_or(Duration::MAX, Duration::from_secs);
                        (stats, bound.min(tightest))
                    })
                    .collect();
                let mut pair = *rng.choose(&pairs);
                let targets = (0..rng.uniform_usize(1, 301) as u32)
                    .map(|id| {
                        if rng.chance(0.2) {
                            pair = *rng.choose(&pairs);
                        } else if rng.chance(0.5) {
                            // Same path, another QoS bound: what a run of one
                            // edge broker's subscribers looks like.
                            pair.1 = rng.choose(&pairs).1;
                        }
                        FlatTarget {
                            subscription: SubscriptionId::new(id),
                            subscriber: SubscriberId::new(id),
                            price: Price::from_units(rng.uniform_usize(1, 4) as i64),
                            allowed_delay: pair.1,
                            stats: pair.0,
                        }
                    })
                    .collect();
                (
                    message,
                    targets,
                    SimTime::from_secs(rng.uniform_usize(5, 10) as u64),
                )
            })
            .collect()
    }

    /// The six built-in priorities written out per target.
    fn reference_score(
        label: &str,
        ctx: &ScheduleContext,
        (m, targets, enqueued): &FlatItem,
    ) -> f64 {
        let eb = reference::expected_benefit(m, targets, ctx.now);
        let ft = m.size_kb * ctx.link_mean_rate_ms_per_kb;
        let pc = eb - reference::expected_benefit_delayed(m, targets, ctx.now, ft);
        let rl_ms = reference::avg_remaining_lifetime_ms(m, targets, ctx.now);
        match label {
            "FIFO" => -(enqueued.as_micros() as f64),
            "RL" => -rl_ms,
            "EB" => eb,
            "PC" => pc,
            "EBPC" => ctx.ebpc_weight * eb + (1.0 - ctx.ebpc_weight) * pc,
            "COMPOSITE" => 0.5 * eb + (1.0 - 0.5) * (1.0 / (1.0 + rl_ms / 1_000.0)),
            other => panic!("no reference for {other}"),
        }
    }

    /// §5.4 written out per target: why a copy is dropped, if it is.
    fn reference_drop(
        policy: InvalidDetection,
        (m, targets, _): &FlatItem,
        now: SimTime,
    ) -> Option<DropReason> {
        let expired = !targets.is_empty() && targets.iter().all(|t| t.is_expired(m, now));
        match policy {
            InvalidDetection::Off => None,
            _ if expired => Some(DropReason::Expired),
            InvalidDetection::Epsilon(eps)
                if reference::max_success_probability(m, targets, now) < eps =>
            {
                Some(DropReason::Unlikely)
            }
            _ => None,
        }
    }

    /// Class scoring *is* the per-target formula: over seeded random queues,
    /// for every built-in strategy and every invalid-message policy, each
    /// score agrees with the flat reference to the bit, and the selection
    /// pass drops the same copies for the same reasons and picks the same
    /// copy.
    #[test]
    fn class_scoring_is_the_per_target_formula_bit_for_bit() {
        // ε = 0 and ε = 1 are the ends `SchedulerConfig::validate` admits;
        // at ε = 1 a copy survives only on a class whose p is exactly 1.0
        // (zero-σ local paths, unbounded members, saturated tails).
        let policies = [
            InvalidDetection::Off,
            InvalidDetection::PAPER,
            InvalidDetection::Epsilon(0.4),
            InvalidDetection::Epsilon(0.0),
            InvalidDetection::Epsilon(1.0),
        ];
        let (mut unlikely, mut expired, mut grouped, mut certain) = (0, 0, 0, 0);
        for case in 0..240u64 {
            let mut rng = SimRng::seed_from(0xC1A55).split(case);
            let full = random_flat_queue(&mut rng);
            let now = SimTime::from_secs(rng.uniform_usize(10, 40) as u64);
            let policy = policies[case as usize % policies.len()];
            // A few leaves before selection: classes that lose their last
            // member must stop counting, exactly as if never opened.
            let gone: Vec<SubscriptionId> = (0..rng.uniform_usize(0, 4))
                .map(|_| SubscriptionId::new(rng.uniform_usize(0, 300) as u32))
                .collect();
            let mut flat = full.clone();
            for (_, targets, _) in &mut flat {
                targets.retain(|t| !gone.contains(&t.subscription));
            }
            flat.retain(|(_, targets, _)| !targets.is_empty());
            for name in StrategyHandle::NAMES {
                let strategy = StrategyHandle::from_name(name).unwrap();
                let cfg = SchedulerConfig {
                    invalid_detection: policy,
                    ..SchedulerConfig::paper(strategy.clone())
                };
                let mut q = OutputQueue::new(75.0);
                for (m, targets, at) in &full {
                    q.push(reference::queued(m, targets, *at));
                }
                for id in &gone {
                    q.remove_subscription(*id, reference::EDGE);
                }
                assert_eq!(q.len(), flat.len());
                for (item, (_, targets, _)) in q.items().iter().zip(&flat) {
                    grouped += usize::from(item.live_classes().count() * 4 <= targets.len());
                }
                let ctx = ScheduleContext::new(now, &cfg, q.link_mean_rate_ms_per_kb);
                // One scratch for every copy, as `pop_next` scores them.
                let mut scratch = ClassScratch::default();
                for (item, copy) in flat.iter().zip(q.items()) {
                    let score = strategy.priority(&ctx, copy, &mut scratch);
                    let want = reference_score(strategy.label(), &ctx, item);
                    let what = format!("case {case} {name} copy {}", item.0.id);
                    assert_eq!(score.to_bits(), want.to_bits(), "{what}");
                }

                let mut want_dropped = Vec::new();
                let mut survivors: Vec<&FlatItem> = Vec::new();
                for item in &flat {
                    match reference_drop(policy, item, now) {
                        Some(reason) => want_dropped.push(DropRecord {
                            message: item.0.id,
                            reason,
                            targets: item.1.len() as u32,
                        }),
                        None => survivors.push(item),
                    }
                }
                let mut dropped = Vec::new();
                let popped = q.take_next(now, &cfg, policy, &mut dropped);
                assert_eq!(dropped, want_dropped, "case {case} {name}");
                if policy == InvalidDetection::Epsilon(1.0) {
                    certain += survivors.len();
                }
                let dropped_as = |r| want_dropped.iter().filter(|d| d.reason == r).count();
                unlikely += dropped_as(DropReason::Unlikely);
                expired += dropped_as(DropReason::Expired);
                // Strictly greater keeps the first of equal scores.
                let mut best = (survivors.first(), f64::NEG_INFINITY);
                for item in &survivors {
                    let score = reference_score(strategy.label(), &ctx, item);
                    if score > best.1 {
                        best = (Some(item), score);
                    }
                }
                let popped = popped.map(|copy| copy.message.id);
                assert_eq!(popped, best.0.map(|item| item.0.id), "case {case} {name}");
            }
        }
        // The generator reaches every branch the comparison is about.
        assert!(
            unlikely > 50 && expired > 50,
            "{unlikely} unlikely, {expired} expired"
        );
        assert!(
            grouped > 1_000,
            "classes must actually group targets: {grouped}"
        );
        assert!(certain > 50, "{certain} copies kept at p = ε = 1");
    }

    /// Scores a copy of an even-numbered message by EB and any other by
    /// arrival order: a strategy that leaves the scratch filled for some
    /// copies only, as a custom one may.
    #[derive(Debug)]
    struct EvenEb;

    impl SchedulingStrategy for EvenEb {
        fn name(&self) -> &str {
            "EVEN-EB"
        }

        fn priority(
            &self,
            ctx: &ScheduleContext,
            item: &QueuedMessage,
            scratch: &mut ClassScratch,
        ) -> f64 {
            if item.message.id.raw().is_multiple_of(2) {
                scratch.expected_benefit(item, ctx.now)
            } else {
                -(item.enqueue_time.as_micros() as f64)
            }
        }
    }

    /// The selection as two passes, the way it was written before it took
    /// one: purge every invalid copy, evaluating the ε-test's probabilities
    /// afresh, then score the survivors, each into a fresh scratch.
    fn two_pass_next(
        q: &mut OutputQueue,
        now: SimTime,
        config: &SchedulerConfig,
    ) -> (Vec<DropRecord>, Option<QueuedMessage>) {
        let mut dropped = Vec::new();
        q.items.retain(|item| {
            let reason = match config.invalid_detection {
                InvalidDetection::Off => None,
                _ if item.fully_expired(now) => Some(DropReason::Expired),
                InvalidDetection::Epsilon(eps) if !metrics::is_likely(item, now, eps, None) => {
                    Some(DropReason::Unlikely)
                }
                _ => None,
            };
            if let Some(reason) = reason {
                dropped.push(DropRecord {
                    message: item.message.id,
                    reason,
                    targets: item.targets.len() as u32,
                });
            }
            reason.is_none()
        });
        let ctx = ScheduleContext::new(now, config, q.link_mean_rate_ms_per_kb);
        let mut best = (0, f64::NEG_INFINITY);
        for (i, item) in q.items.iter().enumerate() {
            let score = config
                .strategy
                .priority(&ctx, item, &mut ClassScratch::default());
            if score > best.1 {
                best = (i, score);
            }
        }
        let picked = (!q.items.is_empty()).then(|| q.items.remove(best.0));
        (dropped, picked)
    }

    /// The one selection pass is the two it replaced. Over seeded random
    /// queues, for every built-in strategy and one that fills the scratch
    /// for some copies only, under every policy, each step — a selection,
    /// then perhaps a fresh copy into the slot the pick vacated and perhaps
    /// a later instant — drops the same copies in the same order, picks the
    /// same copy and leaves the same queue.
    #[test]
    fn one_pass_selection_is_purge_then_pop() {
        let policies = [
            InvalidDetection::Off,
            InvalidDetection::EXPIRED_ONLY,
            InvalidDetection::PAPER,
            InvalidDetection::Epsilon(1.0),
        ];
        let strategies = StrategyHandle::NAMES
            .iter()
            .filter_map(|name| StrategyHandle::from_name(name))
            .chain([StrategyHandle::new(EvenEb)]);
        let strategies: Vec<StrategyHandle> = strategies.collect();
        assert_eq!(strategies.len(), StrategyHandle::NAMES.len() + 1);
        let ids = |q: &OutputQueue| q.items().iter().map(|c| c.message.id).collect::<Vec<_>>();
        let (mut picked, mut unlikely, mut expired) = (0, 0, 0);
        for case in 0..160u64 {
            let policy = policies[case as usize % policies.len()];
            for strategy in &strategies {
                let mut rng = SimRng::seed_from(0x1_9A55).split(case);
                let (queued, arriving) = (random_flat_queue(&mut rng), random_flat_queue(&mut rng));
                let cfg = SchedulerConfig {
                    invalid_detection: policy,
                    ..SchedulerConfig::paper(strategy.clone())
                };
                let mut one = OutputQueue::new(75.0);
                for (m, targets, at) in &queued {
                    one.push(reference::queued(m, targets, *at));
                }
                let mut two = one.clone();
                let mut arriving = arriving.iter();
                let mut now = SimTime::from_secs(rng.uniform_usize(10, 40) as u64);
                for step in 0..6 {
                    let what = format!("case {case} {strategy} step {step} at {now:?}");
                    let mut dropped = Vec::new();
                    let pick = one.take_next(now, &cfg, policy, &mut dropped);
                    let (want_dropped, want) = two_pass_next(&mut two, now, &cfg);
                    assert_eq!(dropped, want_dropped, "{what}");
                    let pick = pick.map(|copy| copy.message.id);
                    assert_eq!(pick, want.map(|copy| copy.message.id), "{what}");
                    assert_eq!(ids(&one), ids(&two), "{what}");
                    picked += usize::from(pick.is_some());
                    let dropped_as = |r| dropped.iter().filter(|d| d.reason == r).count();
                    unlikely += dropped_as(DropReason::Unlikely);
                    expired += dropped_as(DropReason::Expired);
                    if rng.chance(0.5) {
                        if let Some((m, targets, at)) = arriving.next() {
                            one.push(reference::queued(m, targets, *at));
                            two.push(reference::queued(m, targets, *at));
                        }
                    }
                    if rng.chance(0.3) {
                        now += Duration::from_millis(rng.uniform_usize(1, 3_000) as u64);
                    }
                }
            }
        }
        // The generator reaches every branch the comparison is about.
        assert!(
            picked > 2_000 && unlikely > 50 && expired > 500,
            "{picked} picked, {unlikely} unlikely, {expired} expired"
        );
    }

    /// Price scaling (ROADMAP item 20b): EB, PC and EBPC are sums of
    /// `price × probability` terms (eq. 3, 8–10), and doubling an `f64` is
    /// exact, so doubling every target's price doubles every score bit for
    /// bit. The queue must then drop the same copies for the same reasons
    /// and send the rest in the same order.
    #[test]
    fn doubling_every_price_changes_no_drop_and_no_send_order() {
        let policies = [InvalidDetection::PAPER, InvalidDetection::Epsilon(0.4)];
        let (mut sent, mut dropped) = (0, 0);
        for case in 0..120u64 {
            let mut rng = SimRng::seed_from(0x9_41CE).split(case);
            let flat = random_flat_queue(&mut rng);
            let now = SimTime::from_secs(rng.uniform_usize(10, 40) as u64);
            let doubled: Vec<FlatItem> = flat
                .iter()
                .map(|(m, targets, at)| {
                    let targets = targets
                        .iter()
                        .map(|t| FlatTarget {
                            price: t.price.saturating_add(t.price),
                            ..t.clone()
                        })
                        .collect();
                    (Arc::clone(m), targets, *at)
                })
                .collect();
            let policy = policies[case as usize % policies.len()];
            for kind in [
                StrategyKind::MaxEb,
                StrategyKind::MaxPc,
                StrategyKind::MaxEbpc,
            ] {
                let cfg = SchedulerConfig {
                    invalid_detection: policy,
                    ..config(kind)
                };
                let run = |items: &[FlatItem]| {
                    let mut q = OutputQueue::new(75.0);
                    for (m, targets, at) in items {
                        q.push(reference::queued(m, targets, *at));
                    }
                    let mut drops = Vec::new();
                    let order: Vec<MessageId> =
                        std::iter::from_fn(|| q.take_next(now, &cfg, policy, &mut drops))
                            .map(|copy| copy.message.id)
                            .collect();
                    (drops, order)
                };
                let (drops, order) = run(&flat);
                assert_eq!(
                    run(&doubled),
                    (drops.clone(), order.clone()),
                    "case {case} {kind}"
                );
                (sent, dropped) = (sent + order.len(), dropped + drops.len());
            }
        }
        assert!(
            sent > 1_000 && dropped > 200,
            "{sent} sent, {dropped} dropped"
        );
    }

    /// The ε-test's boundary: a class that succeeds with probability
    /// exactly ε keeps its copy, as "drop when the best class is below ε"
    /// does. A zero-σ local path succeeds with probability exactly 1.0.
    #[test]
    fn a_class_at_exactly_epsilon_keeps_its_copy() {
        let now = SimTime::from_secs(1);
        let local = target(30, 1, 60.0, 0);
        let item = (msg(1, 0, None), vec![local], SimTime::ZERO);
        let certain = queued(Arc::clone(&item.0), item.1.clone(), 0);
        assert_eq!(
            metrics::success_probability(&certain.message, &certain.classes[0], now),
            1.0
        );
        for eps in [0.0, 5e-4, 1.0] {
            let policy = InvalidDetection::Epsilon(eps);
            let cfg = SchedulerConfig {
                invalid_detection: policy,
                ..config(StrategyKind::MaxEb)
            };
            let mut q = OutputQueue::new(75.0);
            q.push(certain.clone());
            assert_eq!(reference_drop(policy, &item, now), None, "ε = {eps}");
            assert!(purge(&mut q, now, &cfg).is_empty(), "ε = {eps}");
        }
    }
}
