//! System objectives: delivery rate and total earning (§4.1).
//!
//! * **Delivery rate** (PSD): `Σ ds_i / Σ ts_i` over published messages,
//!   where `ts_i` is the number of subscribers interested in message `i` and
//!   `ds_i` the number that received it before the deadline (eq. 1).
//! * **Total earning** (SSD): `Σ price(s_i) · msg(s_i)` over subscribers,
//!   where `msg(s_i)` counts valid (on-time) deliveries (eq. 2).
//!
//! The tracker computes both at once so that any scenario can report either.

use bdps_types::id::{MessageId, SubscriberId};
use bdps_types::money::{Earning, Price};
use bdps_types::time::Duration;
use std::collections::HashMap;

/// Per-message delivery bookkeeping.
#[derive(Debug, Clone)]
struct MessageStat {
    id: MessageId,
    interested: u32,
    delivered_on_time: u32,
    delivered_late: u32,
    /// Bit `s` is set once subscriber `s` received the message — the audit
    /// trail behind the no-duplicate-delivery invariant, which dynamic
    /// scenarios (churn, link failures with requeues) could otherwise
    /// silently break. Grown on demand to the highest delivered index:
    /// subscriber ids are minted densely from zero (topology, then churn),
    /// and every workload generator draws `A_i < U` conjunctions whose mean
    /// selectivity is ≈ 25 %, so a message reaches far more than the 1/128
    /// of the id range below which 16-byte `(message, subscriber)` pairs in
    /// a hash set would be the smaller record.
    delivered: Vec<u64>,
}

impl MessageStat {
    /// The subscribers the message reached, ascending.
    fn reached(&self) -> impl Iterator<Item = SubscriberId> + '_ {
        self.delivered.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |bit| word >> bit & 1 != 0)
                .map(move |bit| SubscriberId::new((w * 64 + bit) as u32))
        })
    }
}

/// Tracks the paper's objective functions over a run.
#[derive(Debug, Clone, Default)]
pub struct ObjectiveTracker {
    messages: Vec<MessageStat>,
    /// Message id → position in `messages`.
    slots: HashMap<MessageId, usize>,
    /// Position of the message touched last: one arrival's deliveries all
    /// name the same message, so the map is probed once per batch.
    last: usize,
    total_earning: Earning,
    delay_sum_ms: f64,
    delay_count: u64,
    duplicate_deliveries: u64,
    /// The first few offending pairs (capped at
    /// [`DUPLICATE_SAMPLE_CAP`]), so violation reports can name the exact
    /// message/subscriber instead of only a count.
    duplicate_pairs: Vec<(MessageId, SubscriberId)>,
}

/// How many duplicate (message, subscriber) pairs are retained verbatim for
/// violation reports; beyond this only the count grows.
const DUPLICATE_SAMPLE_CAP: usize = 8;

impl ObjectiveTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bookkeeping of one message, created on first mention.
    fn stat(&mut self, id: MessageId) -> &mut MessageStat {
        if self.messages.get(self.last).is_none_or(|m| m.id != id) {
            self.last = *self.slots.entry(id).or_insert_with(|| {
                self.messages.push(MessageStat {
                    id,
                    interested: 0,
                    delivered_on_time: 0,
                    delivered_late: 0,
                    delivered: Vec::new(),
                });
                self.messages.len() - 1
            });
        }
        &mut self.messages[self.last]
    }

    /// Registers a published message together with the number of subscribers
    /// interested in it (`ts_i`), evaluated against the global subscription
    /// population at publication time.
    pub fn register_message(&mut self, id: MessageId, interested: u32) {
        self.stat(id).interested = interested;
    }

    /// Adds to a message's interested count after registration. Aggregate
    /// forwarding uses this: the publish path cannot know `ts_i` without the
    /// global walk it exists to avoid, so each edge broker contributes its
    /// expansion's match count as the copies arrive. The resulting total
    /// counts only members whose copies reached their edge — a lower bound
    /// on the exact mode's `ts_i`.
    pub fn add_interested(&mut self, id: MessageId, n: u32) {
        self.stat(id).interested += n;
    }

    /// The per-message records in ascending message id order.
    fn in_id_order(&self) -> Vec<&MessageStat> {
        let mut order: Vec<&MessageStat> = self.messages.iter().collect();
        order.sort_unstable_by_key(|m| m.id);
        order
    }

    /// Every (message, subscriber) pair delivered so far — on time or late —
    /// in sorted order. The delivery-*set* oracle: forwarding modes may
    /// differ in traffic, hops and timing, but must deliver exactly the same
    /// pair set.
    pub fn delivered_pairs(&self) -> Vec<(MessageId, SubscriberId)> {
        let order = self.in_id_order();
        let pairs = order.iter().flat_map(|m| m.reached().map(|s| (m.id, s)));
        pairs.collect()
    }

    /// Records a delivery attempt that reached the subscriber.
    pub fn record_delivery(
        &mut self,
        message: MessageId,
        subscriber: SubscriberId,
        price: Price,
        delay: Duration,
        on_time: bool,
    ) {
        let stat = self.stat(message);
        let (word, bit) = (subscriber.index() / 64, 1u64 << (subscriber.index() % 64));
        if stat.delivered.len() <= word {
            stat.delivered.resize(word + 1, 0);
        }
        let duplicate = stat.delivered[word] & bit != 0;
        stat.delivered[word] |= bit;
        if on_time {
            stat.delivered_on_time += 1;
            self.total_earning.credit(price);
            self.delay_sum_ms += delay.as_millis_f64();
            self.delay_count += 1;
        } else {
            stat.delivered_late += 1;
        }
        if duplicate {
            self.duplicate_deliveries += 1;
            if self.duplicate_pairs.len() < DUPLICATE_SAMPLE_CAP {
                self.duplicate_pairs.push((message, subscriber));
            }
        }
    }

    /// Total interested (message, subscriber) pairs — `Σ ts_i`.
    pub fn total_interested(&self) -> u64 {
        self.messages.iter().map(|m| m.interested as u64).sum()
    }

    /// Total on-time deliveries — `Σ ds_i`.
    pub fn total_on_time(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| m.delivered_on_time as u64)
            .sum()
    }

    /// Total deliveries that arrived after their deadline.
    pub fn total_late(&self) -> u64 {
        self.messages.iter().map(|m| m.delivered_late as u64).sum()
    }

    /// The delivery rate of eq. (1), in `[0, 1]`; zero when nothing was published.
    pub fn delivery_rate(&self) -> f64 {
        let interested = self.total_interested();
        if interested == 0 {
            return 0.0;
        }
        self.total_on_time() as f64 / interested as f64
    }

    /// The total earning of eq. (2).
    pub fn total_earning(&self) -> Earning {
        self.total_earning
    }

    /// Number of deliveries that reached a (message, subscriber) pair more
    /// than once. Single-path scoped forwarding guarantees this stays zero,
    /// including under churn and link failures; the invariant tests assert it.
    pub fn duplicate_deliveries(&self) -> u64 {
        self.duplicate_deliveries
    }

    /// The first few duplicated (message, subscriber) pairs, for
    /// self-explaining violation reports; empty when the audit is clean.
    pub fn duplicate_samples(&self) -> &[(MessageId, SubscriberId)] {
        &self.duplicate_pairs
    }

    /// Hashes the tracker's complete delivery bookkeeping (message stats,
    /// earning, delay accumulators and the duplicate audit) in deterministic
    /// sorted order, for the model-checking explorer's state deduplication.
    pub fn state_digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let msgs = self.in_id_order();
        h.write_usize(msgs.len());
        for stat in &msgs {
            h.write_u64(stat.id.raw());
            h.write_u32(stat.interested);
            h.write_u32(stat.delivered_on_time);
            h.write_u32(stat.delivered_late);
        }
        h.write_u64(self.total_earning.as_f64().to_bits());
        h.write_u64(self.delay_sum_ms.to_bits());
        h.write_u64(self.delay_count);
        h.write_u64(self.duplicate_deliveries);
        for stat in &msgs {
            for subscriber in stat.reached() {
                h.write_u64(stat.id.raw());
                h.write_u32(subscriber.raw());
            }
        }
        h.finish()
    }

    /// Mean end-to-end delay of on-time deliveries, in milliseconds.
    pub fn mean_valid_delay_ms(&self) -> f64 {
        if self.delay_count == 0 {
            0.0
        } else {
            self.delay_sum_ms / self.delay_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_rate_follows_equation_1() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 4);
        t.register_message(MessageId::new(2), 2);
        // Message 1 reaches 3 of 4 in time, message 2 reaches 0 of 2.
        for i in 0..3 {
            t.record_delivery(
                MessageId::new(1),
                SubscriberId::new(i),
                Price::unit(),
                Duration::from_secs(5),
                true,
            );
        }
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(9),
            Price::unit(),
            Duration::from_secs(40),
            false,
        );
        assert_eq!(t.total_interested(), 6);
        assert_eq!(t.total_on_time(), 3);
        assert_eq!(t.total_late(), 1);
        assert!((t.delivery_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn earning_follows_equation_2() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 3);
        // Subscriber 0 pays 3 per valid message and receives two valid messages.
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(0),
            Price::from_units(3),
            Duration::from_secs(2),
            true,
        );
        t.register_message(MessageId::new(2), 3);
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(0),
            Price::from_units(3),
            Duration::from_secs(2),
            true,
        );
        // Subscriber 1 pays 1 and receives one valid and one late message.
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(1),
            Price::from_units(1),
            Duration::from_secs(2),
            true,
        );
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(1),
            Price::from_units(1),
            Duration::from_secs(90),
            false,
        );
        assert_eq!(t.total_earning().as_f64(), 7.0);
        assert_eq!(t.total_on_time(), 3);
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = ObjectiveTracker::new();
        assert_eq!(t.delivery_rate(), 0.0);
        assert_eq!(t.total_earning(), Earning::ZERO);
        assert_eq!(t.mean_valid_delay_ms(), 0.0);
        assert_eq!(t.duplicate_deliveries(), 0);
    }

    #[test]
    fn duplicate_deliveries_are_audited() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 2);
        let deliver = |t: &mut ObjectiveTracker, sub: u32| {
            t.record_delivery(
                MessageId::new(1),
                SubscriberId::new(sub),
                Price::unit(),
                Duration::from_secs(1),
                true,
            );
        };
        deliver(&mut t, 0);
        deliver(&mut t, 1);
        assert_eq!(t.duplicate_deliveries(), 0);
        deliver(&mut t, 0); // the same pair again
        assert_eq!(t.duplicate_deliveries(), 1);
        assert_eq!(
            t.duplicate_samples(),
            [(MessageId::new(1), SubscriberId::new(0))]
        );
        // The audit is per message: the same subscriber under another
        // message is a first delivery, wherever it falls in the bitset.
        t.record_delivery(
            MessageId::new(2),
            SubscriberId::new(0),
            Price::unit(),
            Duration::from_secs(1),
            false,
        );
        deliver(&mut t, 700);
        assert_eq!(t.duplicate_deliveries(), 1);
        // Beyond the cap only the count grows.
        for _ in 0..2 * DUPLICATE_SAMPLE_CAP {
            deliver(&mut t, 700);
        }
        assert_eq!(
            t.duplicate_deliveries(),
            1 + 2 * DUPLICATE_SAMPLE_CAP as u64
        );
        assert_eq!(t.duplicate_samples().len(), DUPLICATE_SAMPLE_CAP);
    }

    /// The bitsets enumerate in the sorted `(message, subscriber)` order the
    /// pair set used to be sorted into, whatever order deliveries came in,
    /// and the digest sees exactly that set.
    #[test]
    fn delivered_pairs_are_sorted_and_digested() {
        let deliveries = [
            (9u64, 130u32),
            (2, 64),
            (9, 3),
            (2, 63),
            (2, 1_000),
            (9, 129),
        ];
        let mut t = ObjectiveTracker::new();
        for (m, s) in deliveries {
            let (m, s) = (MessageId::new(m), SubscriberId::new(s));
            t.record_delivery(
                m,
                s,
                Price::unit(),
                Duration::from_secs(1),
                s.raw() % 2 == 0,
            );
        }
        let mut expected: Vec<_> = deliveries
            .iter()
            .map(|&(m, s)| (MessageId::new(m), SubscriberId::new(s)))
            .collect();
        expected.sort_unstable();
        assert_eq!(t.delivered_pairs(), expected);
        assert_eq!(t.total_on_time() + t.total_late(), 6);
        // Same deliveries in another order: same digest; one more: another.
        let mut u = ObjectiveTracker::new();
        for &(m, s) in deliveries.iter().rev() {
            let (m, s) = (MessageId::new(m), SubscriberId::new(s));
            u.record_delivery(
                m,
                s,
                Price::unit(),
                Duration::from_secs(1),
                s.raw() % 2 == 0,
            );
        }
        assert_eq!(u.delivered_pairs(), expected);
        assert_eq!(t.state_digest(), u.state_digest());
        let late = |t: &mut ObjectiveTracker, s| {
            let (m, s) = (MessageId::new(2), SubscriberId::new(s));
            t.record_delivery(m, s, Price::unit(), Duration::from_secs(1), false)
        };
        late(&mut t, 5);
        late(&mut u, 6);
        assert_ne!(t.state_digest(), u.state_digest());
    }

    #[test]
    fn mean_delay_counts_only_valid_deliveries() {
        let mut t = ObjectiveTracker::new();
        t.register_message(MessageId::new(1), 2);
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(0),
            Price::unit(),
            Duration::from_millis(1_000),
            true,
        );
        t.record_delivery(
            MessageId::new(1),
            SubscriberId::new(1),
            Price::unit(),
            Duration::from_millis(9_000),
            false,
        );
        assert!((t.mean_valid_delay_ms() - 1_000.0).abs() < 1e-9);
    }
}
