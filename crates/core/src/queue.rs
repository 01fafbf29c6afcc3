//! Output queues and the records they hold.
//!
//! Each broker keeps one output queue per downstream neighbour (Fig. 2). A
//! queued message carries the set of *targets* — the matching subscriptions
//! reachable through that neighbour — because every scheduling metric of the
//! paper is a sum over exactly that set.

use crate::config::{InvalidDetection, SchedulerConfig};
use crate::metrics;
use crate::strategy::ScheduleContext;
use bdps_overlay::pathstats::PathStats;
use bdps_types::id::{BrokerId, LinkId, MessageId, SubscriberId, SubscriptionId};
use bdps_types::message::Message;
use bdps_types::money::Price;
use bdps_types::time::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One subscription a queued message still has to reach via this queue's neighbour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchedTarget {
    /// The subscription's identifier.
    pub subscription: SubscriptionId,
    /// The subscriber that owns it.
    pub subscriber: SubscriberId,
    /// The price paid per valid delivery (`pr`).
    pub price: Price,
    /// The *effective* allowed end-to-end delay for this (message, subscription)
    /// pair: the tighter of the publisher bound and the subscription bound.
    pub allowed_delay: Duration,
    /// Path statistics from the current broker to the subscriber (`NN_p`, `μ_p`, `σ_p²`).
    pub stats: PathStats,
}

impl MatchedTarget {
    /// Remaining lifetime of the message with respect to this target at `now`:
    /// `allowed_delay − hdl`, floored at zero. An unbounded target stays at
    /// `Duration::MAX` for any elapsed time — subtracting from the sentinel
    /// would silently yield a huge-but-finite bound, so callers mapping
    /// `Duration::MAX` to infinity (e.g.
    /// [`QueuedMessage::avg_remaining_lifetime_ms`]) would misread it as a
    /// real deadline the moment any time has passed.
    pub fn remaining_lifetime(&self, message: &Message, now: SimTime) -> Duration {
        if self.allowed_delay == Duration::MAX {
            return Duration::MAX;
        }
        self.allowed_delay.saturating_sub(message.elapsed(now))
    }

    /// Returns true when the target's deadline has already passed at `now`.
    pub fn is_expired(&self, message: &Message, now: SimTime) -> bool {
        self.allowed_delay != Duration::MAX && message.elapsed(now) > self.allowed_delay
    }
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
    /// When the message entered this queue.
    pub enqueue_time: SimTime,
}

impl QueuedMessage {
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
                let rl = t.remaining_lifetime(&self.message, now);
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
    pub fn fully_expired(&self, now: SimTime) -> bool {
        !self.targets.is_empty()
            && self
                .targets
                .iter()
                .all(|t| t.is_expired(&self.message, now))
    }
}

/// Why a queued message was dropped before transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Every target deadline had already passed.
    Expired,
    /// Every target's success probability was below ε (eq. 11).
    Unlikely,
}

/// A record of one dropped message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DropRecord {
    /// The dropped message.
    pub message: MessageId,
    /// Why it was dropped.
    pub reason: DropReason,
    /// How many targets the copy was still carrying.
    pub targets: u32,
}

/// An output queue towards one downstream neighbour.
#[derive(Debug, Clone)]
pub struct OutputQueue {
    /// The neighbour this queue feeds.
    pub neighbor: BrokerId,
    /// The outgoing link towards that neighbour.
    pub link: LinkId,
    /// Mean per-KB rate of that link (ms/KB), used for the `FT` estimate of EB'.
    pub link_mean_rate_ms_per_kb: f64,
    items: Vec<QueuedMessage>,
    /// Scratch buffer reused across selections so the batch-scoring hot path
    /// does not allocate per decision.
    scores: Vec<f64>,
}

impl OutputQueue {
    /// Creates an empty queue.
    pub fn new(neighbor: BrokerId, link: LinkId, link_mean_rate_ms_per_kb: f64) -> Self {
        OutputQueue {
            neighbor,
            link,
            link_mean_rate_ms_per_kb,
            items: Vec::new(),
            scores: Vec::new(),
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

    /// Total queued bytes (KB), a congestion indicator.
    pub fn queued_kb(&self) -> f64 {
        self.items.iter().map(|m| m.message.size_kb).sum()
    }

    /// The queued messages (FIFO order of arrival).
    pub fn items(&self) -> &[QueuedMessage] {
        &self.items
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
        self.items.push(item);
    }

    /// The `FT` estimate of §5.2 for this queue: average message size times
    /// the mean per-KB rate of the link.
    pub fn first_send_estimate_ms(&self, config: &SchedulerConfig) -> f64 {
        config.avg_message_size_kb * self.link_mean_rate_ms_per_kb
    }

    /// Removes expired and (depending on the policy) unlikely messages,
    /// returning a record per removal (§5.4).
    pub fn purge(&mut self, now: SimTime, config: &SchedulerConfig) -> Vec<DropRecord> {
        let mut dropped = Vec::new();
        let pd = config.processing_delay;
        self.items.retain(|item| {
            let keep = match config.invalid_detection {
                InvalidDetection::Off => true,
                InvalidDetection::ExpiredOnly => !item.fully_expired(now),
                InvalidDetection::Epsilon(eps) => {
                    if item.fully_expired(now) {
                        false
                    } else {
                        metrics::max_success_probability(&item.message, &item.targets, now, pd)
                            >= eps
                    }
                }
            };
            if !keep {
                let reason = if item.fully_expired(now) {
                    DropReason::Expired
                } else {
                    DropReason::Unlikely
                };
                dropped.push(DropRecord {
                    message: item.message.id,
                    reason,
                    targets: item.targets.len() as u32,
                });
            }
            keep
        });
        dropped
    }

    /// Selects and removes the next message to transmit according to the
    /// configured strategy. Metrics are recomputed at call time because they
    /// are time-dependent. Call [`purge`](Self::purge) first to apply the
    /// invalid-message policy.
    ///
    /// Selection goes through the strategy's batch
    /// [`score_all`](crate::strategy::SchedulingStrategy::score_all) hook so
    /// implementations can amortise per-queue work; the scratch score buffer
    /// is reused across calls.
    pub fn pop_next(&mut self, now: SimTime, config: &SchedulerConfig) -> Option<QueuedMessage> {
        if self.items.is_empty() {
            return None;
        }
        let ctx = ScheduleContext::new(now, config, self.first_send_estimate_ms(config));
        let mut scores = std::mem::take(&mut self.scores);
        scores.clear();
        config.strategy.score_all(&ctx, &self.items, &mut scores);
        debug_assert_eq!(
            scores.len(),
            self.items.len(),
            "score_all must yield one score per item"
        );
        let mut best_idx = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, &score) in scores.iter().enumerate().take(self.items.len()) {
            // Strictly greater keeps FIFO order among ties (stable choice).
            if score > best_score {
                best_score = score;
                best_idx = i;
            }
        }
        self.scores = scores;
        Some(self.items.remove(best_idx))
    }

    /// Removes one subscription from every queued copy's target set (used
    /// when a subscriber leaves mid-run). Copies left with no target are
    /// dropped entirely; the number of such orphaned copies is returned.
    ///
    /// `O(log targets)` per copy that does not serve `id` — the common case —
    /// by the ascending-id invariant of [`QueuedMessage::targets`].
    pub fn remove_subscription(&mut self, id: SubscriptionId) -> u64 {
        let mut orphaned = 0;
        self.items.retain_mut(|item| {
            if let Ok(pos) = item.targets.binary_search_by_key(&id, |t| t.subscription) {
                item.targets.remove(pos);
            }
            if item.targets.is_empty() {
                orphaned += 1;
                false
            } else {
                true
            }
        });
        orphaned
    }

    /// Drains every queued message (used when tearing a simulation down).
    pub fn drain(&mut self) -> Vec<QueuedMessage> {
        std::mem::take(&mut self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use bdps_stats::normal::Normal;
    use bdps_types::id::PublisherId;
    use bdps_types::qos::DelayBound;

    fn msg(id: u64, publish_secs: u64, bound_secs: Option<u64>) -> Arc<Message> {
        let mut b = Message::builder(MessageId::new(id), PublisherId::new(0))
            .publish_time(SimTime::from_secs(publish_secs))
            .size_kb(50.0);
        if let Some(s) = bound_secs {
            b = b.publisher_bound(DelayBound::from_secs(s));
        }
        Arc::new(b.build())
    }

    fn target(allowed_secs: u64, price: i64, mean_rate: f64, hops: u32) -> MatchedTarget {
        let mut stats = PathStats::local();
        for _ in 0..hops {
            stats = stats.extend(Normal::new(mean_rate, 20.0));
        }
        MatchedTarget {
            subscription: SubscriptionId::new(0),
            subscriber: SubscriberId::new(0),
            price: Price::from_units(price),
            allowed_delay: Duration::from_secs(allowed_secs),
            stats,
        }
    }

    fn queued(m: Arc<Message>, targets: Vec<MatchedTarget>, enqueue_secs: u64) -> QueuedMessage {
        QueuedMessage {
            message: m,
            targets,
            enqueue_time: SimTime::from_secs(enqueue_secs),
        }
    }

    fn config(strategy: StrategyKind) -> SchedulerConfig {
        SchedulerConfig::paper(strategy)
    }

    #[test]
    fn matched_target_lifetime_and_expiry() {
        let m = msg(1, 100, None);
        let t = target(10, 1, 60.0, 1);
        let now = SimTime::from_secs(104);
        assert_eq!(t.remaining_lifetime(&m, now), Duration::from_secs(6));
        assert!(!t.is_expired(&m, now));
        assert!(t.is_expired(&m, SimTime::from_secs(111)));
        // Unbounded targets never expire.
        let unbounded = MatchedTarget {
            allowed_delay: Duration::MAX,
            ..target(10, 1, 60.0, 1)
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
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        q.push(queued(msg(1, 0, None), vec![target(10, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 0, None), vec![target(120, 1, 60.0, 1)], 0));
        let dropped = q.purge(SimTime::from_secs(20), &config(StrategyKind::Fifo));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].message, MessageId::new(1));
        assert_eq!(dropped[0].reason, DropReason::Expired);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn purge_off_keeps_everything() {
        let cfg = config(StrategyKind::Fifo).with_invalid_detection(InvalidDetection::Off);
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        q.push(queued(msg(1, 0, None), vec![target(10, 1, 60.0, 1)], 0));
        assert!(q.purge(SimTime::from_secs(500), &cfg).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn purge_epsilon_drops_unlikely_but_not_expired_messages() {
        // A 50 KB message over a 4-hop path at 90 ms/KB needs ~18 s; with a
        // 10 s budget and 8 s already elapsed it is hopeless but not expired.
        let cfg = config(StrategyKind::MaxEb);
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 90.0);
        q.push(queued(msg(1, 0, None), vec![target(10, 1, 90.0, 4)], 0));
        let now = SimTime::from_secs(8);
        let dropped = q.purge(now, &cfg);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].reason, DropReason::Unlikely);
        // The same situation with detection limited to expiry keeps the message.
        let mut q2 = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 90.0);
        q2.push(queued(msg(1, 0, None), vec![target(10, 1, 90.0, 4)], 0));
        let cfg2 = cfg.with_invalid_detection(InvalidDetection::ExpiredOnly);
        assert!(q2.purge(now, &cfg2).is_empty());
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let cfg = config(StrategyKind::Fifo);
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
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
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        q.push(queued(msg(1, 0, None), vec![target(60, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 0, None), vec![target(10, 1, 60.0, 1)], 0));
        let first = q.pop_next(SimTime::from_secs(1), &cfg).unwrap();
        assert_eq!(first.message.id, MessageId::new(2));
    }

    #[test]
    fn max_eb_prefers_more_valuable_and_more_likely_messages() {
        let cfg = config(StrategyKind::MaxEb);
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        // Message 1: one cheap target; message 2: three expensive targets.
        q.push(queued(msg(1, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        let targets = [3, 3, 2]
            .into_iter()
            .zip(0..)
            .map(|(price, id)| MatchedTarget {
                subscription: SubscriptionId::new(id),
                ..target(30, price, 60.0, 1)
            });
        q.push(queued(msg(2, 0, None), targets.collect(), 0));
        let first = q.pop_next(SimTime::from_secs(1), &cfg).unwrap();
        assert_eq!(first.message.id, MessageId::new(2));
    }

    #[test]
    fn remove_subscription_strips_targets_and_drops_orphans() {
        let mut q = OutputQueue::new(BrokerId::new(1), LinkId::new(0), 75.0);
        let t_keep = MatchedTarget {
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
        let orphaned = q.remove_subscription(SubscriptionId::new(0));
        assert_eq!(orphaned, 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.items()[0].message.id, MessageId::new(2));
        assert_eq!(q.items()[0].targets.len(), 1);
        assert_eq!(q.items()[0].targets[0].subscription, SubscriptionId::new(7));
        // Removing an id nobody serves changes nothing.
        assert_eq!(q.remove_subscription(SubscriptionId::new(99)), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn queue_bookkeeping() {
        let mut q = OutputQueue::new(BrokerId::new(3), LinkId::new(9), 80.0);
        assert!(q.is_empty());
        q.push(queued(msg(1, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        q.push(queued(msg(2, 0, None), vec![target(30, 1, 60.0, 1)], 0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.queued_kb(), 100.0);
        assert_eq!(q.items().len(), 2);
        let cfg = config(StrategyKind::MaxEb);
        assert_eq!(q.first_send_estimate_ms(&cfg), 50.0 * 80.0);
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
    }
}
