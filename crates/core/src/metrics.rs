//! The paper's scheduling metrics (§5).
//!
//! All metrics are computed for a message `m` waiting in an output queue of a
//! broker `N`, against the set of matching subscriptions reachable through
//! that queue:
//!
//! * `success(s_i, m) = P(hdl(m) + fdl(s_i, m) ≤ adl(s_i))` — eq. (5), where
//!   `hdl` is the delay already accumulated, `fdl = NN_p·PD + size·TR_p` the
//!   (scheduling-delay-free) future delay (eq. 4) and `adl` the allowed delay;
//! * `EB_m = Σ success(s_i, m) · price(s_i)` — eq. (3);
//! * `EB'_m` — the same with `fdl' = fdl + FT` (eq. 6–8), i.e. assuming the
//!   current broker sends the message *second*;
//! * `PC_m = EB_m − EB'_m` — eq. (9);
//! * `EBPC_m = r·EB_m + (1−r)·PC_m` — eq. (10).
//!
//! `PD` is the model constant [`PROCESSING_DELAY`]; `FT` is the caller's,
//! the copy's own size at the queue's mean link rate
//! ([`ScheduleContext::first_send_estimate_ms`](crate::strategy::ScheduleContext::first_send_estimate_ms)).
//!
//! `success` reads only a target's [`SuccessClass`], so every [`ClassScratch`]
//! method evaluates it **once per live class** of the copy and then folds
//! the targets reading `p[class]`. The fold still runs over the targets in
//! their ascending-id order: floating-point addition is not associative, and
//! summing per class first would move every score by an ulp or two — enough
//! to flip a tie and with it a whole run. Same inputs to the same function in
//! the same order keeps every score bit-identical to the per-target formula
//! (the test module's `reference`).

use crate::config::PROCESSING_DELAY;
use crate::queue::{QueuedMessage, SuccessClass};
use bdps_stats::normal::CdfBatch;
use bdps_types::message::Message;
use bdps_types::time::{Duration, SimTime};

/// The probability that `message` reaches a subscriber of `class` within its
/// allowed delay, assuming every remaining broker sends it first (eq. 5).
pub fn success_probability(message: &Message, class: &SuccessClass, now: SimTime) -> f64 {
    match remaining_budget_ms(message, class, now) {
        Ok(budget_ms) if budget_ms > 0.0 => class
            .stats
            .future_delay_ms(message.size_kb, PROCESSING_DELAY)
            .cdf(budget_ms),
        Ok(_) => 0.0,
        Err(p) => p,
    }
}

/// Eq. 5 up to its delay budget: `Err(p)` when the class alone decides
/// the probability (unbounded: 1, expired: 0), else what is left of its
/// allowed delay at `now`, in ms.
fn remaining_budget_ms(message: &Message, class: &SuccessClass, now: SimTime) -> Result<f64, f64> {
    if class.allowed_delay == Duration::MAX {
        return Err(1.0);
    }
    let elapsed = message.elapsed(now);
    if elapsed > class.allowed_delay {
        return Err(0.0);
    }
    Ok((class.allowed_delay - elapsed).as_millis_f64())
}

/// The per-class probabilities of the copy being scored. Each output queue
/// keeps one and hands it to every
/// [`priority`](crate::strategy::SchedulingStrategy::priority) call, so its
/// buffers grow to the widest copy once and selection allocates nothing
/// after that. Every method below overwrites what the last copy left.
#[derive(Debug, Clone, Default)]
pub struct ClassScratch {
    /// `p[k·classes + i]`: class `i`'s success probability under the `k`-th
    /// extra delay of the last [`fill`](Self::fill).
    p: Vec<f64>,
    batch: CdfBatch,
}

impl ClassScratch {
    /// Evaluates every live class of `item` under each of `extra_delays_ms`
    /// in one pass: the CDFs a class does not decide alone go through one
    /// [`CdfBatch`], so the ones that still need erfc share its lanes.
    fn fill(&mut self, item: &QueuedMessage, now: SimTime, extra_delays_ms: &[f64]) {
        let n = item.classes.len();
        self.p.clear();
        // No target names a dead class, so its slots are never read.
        self.p.resize(n * extra_delays_ms.len(), 0.0);
        for (i, class) in item.classes.iter().enumerate() {
            if class.live == 0 {
                continue;
            }
            let remaining_ms = match remaining_budget_ms(&item.message, class, now) {
                Ok(ms) => ms,
                Err(p) => {
                    self.p[i..].iter_mut().step_by(n).for_each(|slot| *slot = p);
                    continue;
                }
            };
            let fdl = class
                .stats
                .future_delay_ms(item.message.size_kb, PROCESSING_DELAY);
            for (k, extra) in extra_delays_ms.iter().enumerate() {
                let budget_ms = remaining_ms - extra;
                if budget_ms <= 0.0 {
                    continue; // the slot's 0.0 stands
                }
                self.batch.push(&mut self.p, k * n + i, &fdl, budget_ms);
            }
        }
        self.batch.flush(&mut self.p);
    }

    /// Eq. 3 over the probabilities of the `k`-th extra delay of the last
    /// fill, folded over the targets in their ascending-id order.
    fn benefit(&self, item: &QueuedMessage, k: usize) -> f64 {
        let p = &self.p[k * item.classes.len()..];
        item.targets
            .iter()
            .map(|t| p[t.class as usize] * t.price.as_f64())
            .sum()
    }

    /// The Expected Benefit of sending the message first (eq. 3).
    pub fn expected_benefit(&mut self, item: &QueuedMessage, now: SimTime) -> f64 {
        self.expected_benefit_delayed(item, now, 0.0)
    }

    /// The Expected Benefit of sending the message *second* on the current
    /// broker (eq. 8), where `first_send_estimate_ms` is the paper's `FT`.
    pub fn expected_benefit_delayed(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        first_send_estimate_ms: f64,
    ) -> f64 {
        self.fill(item, now, &[first_send_estimate_ms]);
        self.benefit(item, 0)
    }

    /// The Postponing Cost `PC = EB − EB'` (eq. 9).
    pub fn postponing_cost(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        first_send_estimate_ms: f64,
    ) -> f64 {
        self.fill(item, now, &[0.0, first_send_estimate_ms]);
        self.benefit(item, 0) - self.benefit(item, 1)
    }

    /// The combined metric `EBPC = r·EB + (1−r)·PC` (eq. 10).
    pub fn ebpc(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        first_send_estimate_ms: f64,
        r: f64,
    ) -> f64 {
        self.fill(item, now, &[0.0, first_send_estimate_ms]);
        let eb = self.benefit(item, 0);
        let pc = eb - self.benefit(item, 1);
        r * eb + (1.0 - r) * pc
    }
}

/// The invalid-message test (eq. 11), from the side that keeps the copy:
/// whether some live class still succeeds with probability at least
/// `epsilon`. It stops at the first class that does. For every ε in
/// `[0, 1]` this is the paper's "delete when even the *most promising*
/// target is below ε", without scoring the classes after that target.
pub(crate) fn is_likely(item: &QueuedMessage, now: SimTime, epsilon: f64) -> bool {
    epsilon <= 0.0
        || item
            .live_classes()
            .any(|c| success_probability(&item.message, c, now) >= epsilon)
}

/// The flat per-target formulas the class-scored functions above replaced,
/// verbatim — the reference the crate's tests hold them to, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::config::PROCESSING_DELAY;
    use crate::queue::QueuedMessage;
    use bdps_overlay::pathstats::PathStats;
    use bdps_types::id::{BrokerId, SubscriberId, SubscriptionId};
    use bdps_types::message::Message;
    use bdps_types::money::Price;
    use bdps_types::time::{Duration, SimTime};
    use std::sync::Arc;

    /// A target that carries its own bound and path statistics.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct FlatTarget {
        pub(crate) subscription: SubscriptionId,
        pub(crate) subscriber: SubscriberId,
        pub(crate) price: Price,
        pub(crate) allowed_delay: Duration,
        pub(crate) stats: PathStats,
    }

    impl FlatTarget {
        pub(crate) fn is_expired(&self, message: &Message, now: SimTime) -> bool {
            self.allowed_delay != Duration::MAX && message.elapsed(now) > self.allowed_delay
        }
    }

    /// The edge broker every reference target is attached at.
    pub(crate) const EDGE: BrokerId = BrokerId::new(0);

    /// The class-carrying copy of `targets` (ascending ids), all attached
    /// at [`EDGE`].
    pub(crate) fn queued(
        message: &Arc<Message>,
        targets: &[FlatTarget],
        enqueue_time: SimTime,
    ) -> QueuedMessage {
        let mut item = QueuedMessage::new(Arc::clone(message), enqueue_time);
        for t in targets {
            let class = item.class_for(t.stats, t.allowed_delay);
            item.push_target(t.subscription, t.subscriber, t.price, 0, class, EDGE);
        }
        item
    }

    /// Eq. 5 for one target, with `extra_delay_ms` added to its future delay
    /// (`FT` for `EB'`, eq. 6–7).
    pub(crate) fn success_after(
        message: &Message,
        target: &FlatTarget,
        now: SimTime,
        extra_delay_ms: f64,
    ) -> f64 {
        if target.allowed_delay == Duration::MAX {
            return 1.0;
        }
        let elapsed = message.elapsed(now);
        if elapsed > target.allowed_delay {
            return 0.0;
        }
        let budget_ms = (target.allowed_delay - elapsed).as_millis_f64() - extra_delay_ms;
        if budget_ms <= 0.0 {
            return 0.0;
        }
        target
            .stats
            .future_delay_ms(message.size_kb, PROCESSING_DELAY)
            .cdf(budget_ms)
    }

    pub(crate) fn expected_benefit_delayed(
        message: &Message,
        targets: &[FlatTarget],
        now: SimTime,
        first_send_estimate_ms: f64,
    ) -> f64 {
        targets
            .iter()
            .map(|t| success_after(message, t, now, first_send_estimate_ms) * t.price.as_f64())
            .sum()
    }

    pub(crate) fn expected_benefit(message: &Message, targets: &[FlatTarget], now: SimTime) -> f64 {
        expected_benefit_delayed(message, targets, now, 0.0)
    }

    pub(crate) fn max_success_probability(
        message: &Message,
        targets: &[FlatTarget],
        now: SimTime,
    ) -> f64 {
        targets
            .iter()
            .map(|t| success_after(message, t, now, 0.0))
            .fold(0.0, f64::max)
    }

    pub(crate) fn avg_remaining_lifetime_ms(
        message: &Message,
        targets: &[FlatTarget],
        now: SimTime,
    ) -> f64 {
        if targets.is_empty() {
            return 0.0;
        }
        let total: f64 = targets
            .iter()
            .map(|t| {
                if t.allowed_delay == Duration::MAX {
                    f64::INFINITY
                } else {
                    t.allowed_delay
                        .saturating_sub(message.elapsed(now))
                        .as_millis_f64()
                }
            })
            .sum();
        total / targets.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{queued, FlatTarget};
    use super::*;
    use bdps_overlay::pathstats::PathStats;
    use bdps_stats::normal::Normal;
    use bdps_types::id::{MessageId, SubscriberId, SubscriptionId};
    use bdps_types::money::Price;
    use std::sync::Arc;

    fn msg(publish_secs: u64) -> Arc<Message> {
        Arc::new(
            Message::builder(MessageId::new(1))
                .publish_time(SimTime::from_secs(publish_secs))
                .size_kb(50.0)
                .build(),
        )
    }

    /// The copy of `m` serving `targets`, as the arrival path would build it.
    fn copy(m: &Arc<Message>, targets: &[FlatTarget]) -> QueuedMessage {
        queued(m, targets, SimTime::ZERO)
    }

    /// Success of a single-target copy (one class).
    fn success(m: &Arc<Message>, t: &FlatTarget, now: SimTime) -> f64 {
        success_probability(m, &copy(m, std::slice::from_ref(t)).classes[0], now)
    }

    fn target(allowed_secs: u64, price: i64, hops: u32, rate: f64) -> FlatTarget {
        let mut stats = PathStats::local();
        for _ in 0..hops {
            stats = stats.extend(Normal::new(rate, 20.0));
        }
        FlatTarget {
            subscription: SubscriptionId::new(0),
            subscriber: SubscriberId::new(0),
            price: Price::from_units(price),
            allowed_delay: Duration::from_secs(allowed_secs),
            stats,
        }
    }

    #[test]
    fn success_probability_reference_point() {
        // 1 hop at mean 60 ms/KB, sigma 20: a 50 KB message has mean 3000 ms,
        // sigma 1000 ms (+2 ms PD). A 3002 ms budget sits exactly at the mean.
        let m = msg(0);
        let t = FlatTarget {
            allowed_delay: Duration::from_millis(3_002),
            ..target(10, 1, 1, 60.0)
        };
        let p = success(&m, &t, SimTime::ZERO);
        assert!((p - 0.5).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn success_decreases_as_time_passes() {
        let m = msg(0);
        let t = target(10, 1, 2, 60.0);
        let early = success(&m, &t, SimTime::from_secs(1));
        let late = success(&m, &t, SimTime::from_secs(6));
        assert!(early > late);
        // After the deadline the probability is exactly zero.
        assert_eq!(success(&m, &t, SimTime::from_secs(11)), 0.0);
    }

    #[test]
    fn unbounded_target_always_succeeds() {
        let m = msg(0);
        let t = FlatTarget {
            allowed_delay: Duration::MAX,
            ..target(10, 1, 2, 60.0)
        };
        assert_eq!(success(&m, &t, SimTime::from_secs(500)), 1.0);
    }

    #[test]
    fn expected_benefit_sums_price_weighted_probabilities() {
        let m = msg(0);
        let mut scratch = ClassScratch::default();
        // A target that (almost) surely succeeds and one that surely fails.
        let sure = target(600, 3, 1, 60.0);
        let hopeless = FlatTarget {
            allowed_delay: Duration::from_millis(10),
            ..target(1, 2, 4, 90.0)
        };
        let eb = scratch.expected_benefit(&copy(&m, &[sure.clone(), hopeless]), SimTime::ZERO);
        assert!((eb - 3.0).abs() < 1e-3, "eb = {eb}");
        // EB scales with price.
        let pricier = FlatTarget {
            price: Price::from_units(6),
            ..sure
        };
        let eb2 = scratch.expected_benefit(&copy(&m, &[pricier]), SimTime::ZERO);
        assert!((eb2 - 6.0).abs() < 2e-3);
        assert_eq!(scratch.expected_benefit(&copy(&m, &[]), SimTime::ZERO), 0.0);
    }

    #[test]
    fn postponing_cost_is_nonnegative_and_higher_for_urgent_messages() {
        let m = msg(0);
        let mut scratch = ClassScratch::default();
        let ft = 50.0 * 75.0; // FT: 50 KB at 75 ms/KB
                              // Urgent: the deadline barely fits the path.
        let urgent = target(4, 1, 1, 60.0);
        // Relaxed: plenty of slack.
        let relaxed = target(60, 1, 1, 60.0);
        let pc_urgent = scratch.postponing_cost(&copy(&m, &[urgent]), SimTime::ZERO, ft);
        let pc_relaxed = scratch.postponing_cost(&copy(&m, &[relaxed]), SimTime::ZERO, ft);
        assert!(pc_urgent >= 0.0);
        assert!(pc_relaxed >= 0.0);
        assert!(
            pc_urgent > pc_relaxed,
            "urgent {pc_urgent} vs relaxed {pc_relaxed}"
        );
        // Postponing an already-hopeless message costs nothing.
        let hopeless = FlatTarget {
            allowed_delay: Duration::from_millis(1),
            ..target(1, 1, 3, 90.0)
        };
        let pc_hopeless = scratch.postponing_cost(&copy(&m, &[hopeless]), SimTime::ZERO, ft);
        assert!(pc_hopeless.abs() < 1e-9);
    }

    #[test]
    fn ebpc_interpolates_between_pc_and_eb() {
        let m = msg(0);
        let mut scratch = ClassScratch::default();
        let ft = 3_750.0;
        let targets = copy(&m, &[target(15, 2, 2, 60.0), target(30, 1, 1, 60.0)]);
        let eb = scratch.expected_benefit(&targets, SimTime::ZERO);
        let pc = scratch.postponing_cost(&targets, SimTime::ZERO, ft);
        let at_zero = scratch.ebpc(&targets, SimTime::ZERO, ft, 0.0);
        let at_one = scratch.ebpc(&targets, SimTime::ZERO, ft, 1.0);
        let mid = scratch.ebpc(&targets, SimTime::ZERO, ft, 0.5);
        assert!((at_zero - pc).abs() < 1e-12);
        assert!((at_one - eb).abs() < 1e-12);
        assert!((mid - 0.5 * (eb + pc)).abs() < 1e-12);
    }

    #[test]
    fn is_likely_is_the_epsilon_test() {
        let m = msg(0);
        let good = target(60, 1, 1, 60.0);
        let bad = FlatTarget {
            allowed_delay: Duration::from_millis(5),
            ..target(1, 1, 3, 90.0)
        };
        let both = copy(&m, &[bad.clone(), good]);
        assert!(is_likely(&both, SimTime::ZERO, 0.99));
        let only_bad = copy(&m, &[bad]);
        assert!(!is_likely(&only_bad, SimTime::ZERO, 5e-4));
        // ε = 0 keeps every copy, even one with no live class left.
        assert!(is_likely(&only_bad, SimTime::ZERO, 0.0));
        assert!(is_likely(&copy(&m, &[]), SimTime::ZERO, 0.0));
        assert!(!is_likely(&copy(&m, &[]), SimTime::ZERO, 5e-4));
    }

    #[test]
    fn delayed_benefit_never_exceeds_immediate_benefit() {
        let m = msg(0);
        let mut scratch = ClassScratch::default();
        for allowed in [3u64, 5, 10, 30, 60] {
            let t = copy(&m, &[target(allowed, 2, 2, 75.0)]);
            let eb = scratch.expected_benefit(&t, SimTime::ZERO);
            let ebd = scratch.expected_benefit_delayed(&t, SimTime::ZERO, 3_750.0);
            assert!(ebd <= eb + 1e-12, "allowed {allowed}: {ebd} > {eb}");
        }
    }
}
