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
//! `success` reads only a target's [`SuccessClass`], so every function here
//! evaluates it **once per live class** of the copy and then folds the
//! targets reading `p[class]`. The fold still runs over the targets in their
//! ascending-id order: floating-point addition is not associative, and
//! summing per class first would move every score by an ulp or two — enough
//! to flip a tie and with it a whole run. Same inputs to the same function in
//! the same order keeps every score bit-identical to the per-target formula
//! (the test module's `reference`).

use crate::queue::{QueuedMessage, SuccessClass};
use bdps_types::message::Message;
use bdps_types::time::{Duration, SimTime};

/// The probability that `message` reaches a subscriber of `class` within its
/// allowed delay, assuming every remaining broker sends it first (eq. 5).
pub fn success_probability(
    message: &Message,
    class: &SuccessClass,
    now: SimTime,
    processing_delay: Duration,
) -> f64 {
    success_probability_with_extra_delay(message, class, now, processing_delay, 0.0)
}

/// Like [`success_probability`] but with `extra_delay_ms` added to the future
/// delay — used for the `EB'` computation where the extra delay is the
/// first-send estimate `FT` (eq. 6–7).
pub fn success_probability_with_extra_delay(
    message: &Message,
    class: &SuccessClass,
    now: SimTime,
    processing_delay: Duration,
    extra_delay_ms: f64,
) -> f64 {
    if class.allowed_delay == Duration::MAX {
        return 1.0;
    }
    let elapsed = message.elapsed(now);
    if elapsed > class.allowed_delay {
        return 0.0;
    }
    let budget_ms = (class.allowed_delay - elapsed).as_millis_f64() - extra_delay_ms;
    if budget_ms <= 0.0 {
        return 0.0;
    }
    class
        .stats
        .future_delay_ms(message.size_kb, processing_delay)
        .cdf(budget_ms)
}

/// The per-class probabilities of the copy being scored. A strategy's
/// [`score_all`](crate::strategy::SchedulingStrategy::score_all) keeps one
/// for the whole selection, so scoring a queue allocates once, not once per
/// copy; the item-level functions below use a fresh one per call.
#[derive(Debug, Clone, Default)]
pub struct ClassScratch(Vec<f64>);

impl ClassScratch {
    /// The Expected Benefit of sending the message first (eq. 3).
    pub fn expected_benefit(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        processing_delay: Duration,
    ) -> f64 {
        self.expected_benefit_delayed(item, now, processing_delay, 0.0)
    }

    /// The Expected Benefit of sending the message *second* on the current
    /// broker (eq. 8), where `first_send_estimate_ms` is the paper's `FT`.
    pub fn expected_benefit_delayed(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        processing_delay: Duration,
        first_send_estimate_ms: f64,
    ) -> f64 {
        self.0.clear();
        // No target names a dead class, so its slot is never read.
        self.0.extend(item.classes.iter().map(|c| match c.live {
            0 => 0.0,
            _ => success_probability_with_extra_delay(
                &item.message,
                c,
                now,
                processing_delay,
                first_send_estimate_ms,
            ),
        }));
        item.targets
            .iter()
            .map(|t| self.0[t.class as usize] * t.price.as_f64())
            .sum()
    }

    /// The Postponing Cost `PC = EB − EB'` (eq. 9).
    pub fn postponing_cost(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        processing_delay: Duration,
        first_send_estimate_ms: f64,
    ) -> f64 {
        self.expected_benefit(item, now, processing_delay)
            - self.expected_benefit_delayed(item, now, processing_delay, first_send_estimate_ms)
    }

    /// The combined metric `EBPC = r·EB + (1−r)·PC` (eq. 10).
    pub fn ebpc(
        &mut self,
        item: &QueuedMessage,
        now: SimTime,
        processing_delay: Duration,
        first_send_estimate_ms: f64,
        r: f64,
    ) -> f64 {
        let eb = self.expected_benefit(item, now, processing_delay);
        let eb_delayed =
            self.expected_benefit_delayed(item, now, processing_delay, first_send_estimate_ms);
        let pc = eb - eb_delayed;
        r * eb + (1.0 - r) * pc
    }
}

/// [`ClassScratch::expected_benefit`] of one copy.
pub fn expected_benefit(item: &QueuedMessage, now: SimTime, processing_delay: Duration) -> f64 {
    ClassScratch::default().expected_benefit(item, now, processing_delay)
}

/// [`ClassScratch::expected_benefit_delayed`] of one copy.
pub fn expected_benefit_delayed(
    item: &QueuedMessage,
    now: SimTime,
    processing_delay: Duration,
    first_send_estimate_ms: f64,
) -> f64 {
    ClassScratch::default().expected_benefit_delayed(
        item,
        now,
        processing_delay,
        first_send_estimate_ms,
    )
}

/// [`ClassScratch::postponing_cost`] of one copy.
pub fn postponing_cost(
    item: &QueuedMessage,
    now: SimTime,
    processing_delay: Duration,
    first_send_estimate_ms: f64,
) -> f64 {
    ClassScratch::default().postponing_cost(item, now, processing_delay, first_send_estimate_ms)
}

/// [`ClassScratch::ebpc`] of one copy.
pub fn ebpc(
    item: &QueuedMessage,
    now: SimTime,
    processing_delay: Duration,
    first_send_estimate_ms: f64,
    r: f64,
) -> f64 {
    ClassScratch::default().ebpc(item, now, processing_delay, first_send_estimate_ms, r)
}

/// The best success probability across the copy's live classes — the
/// quantity compared to ε in the invalid-message test (eq. 11): the message
/// is deleted when even its *most promising* target is below ε.
pub fn max_success_probability(
    item: &QueuedMessage,
    now: SimTime,
    processing_delay: Duration,
) -> f64 {
    item.live_classes()
        .map(|c| success_probability(&item.message, c, now, processing_delay))
        .fold(0.0, f64::max)
}

/// The flat per-target formulas the class-scored functions above replaced,
/// verbatim — the reference the crate's tests hold them to, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use crate::queue::QueuedMessage;
    use bdps_overlay::pathstats::PathStats;
    use bdps_types::id::{SubscriberId, SubscriptionId};
    use bdps_types::message::Message;
    use bdps_types::money::Price;
    use bdps_types::time::{Duration, SimTime};
    use std::sync::Arc;

    /// A target that carries its own bound and path statistics.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct FlatTarget {
        pub subscription: SubscriptionId,
        pub subscriber: SubscriberId,
        pub price: Price,
        pub allowed_delay: Duration,
        pub stats: PathStats,
    }

    impl FlatTarget {
        pub fn is_expired(&self, message: &Message, now: SimTime) -> bool {
            self.allowed_delay != Duration::MAX && message.elapsed(now) > self.allowed_delay
        }
    }

    /// The class-carrying copy of `targets` (ascending ids).
    pub(crate) fn queued(
        message: &Arc<Message>,
        targets: &[FlatTarget],
        enqueue_time: SimTime,
    ) -> QueuedMessage {
        let mut item = QueuedMessage::new(Arc::clone(message), enqueue_time);
        for t in targets {
            let class = item.class_for(t.stats, t.allowed_delay);
            item.push_target(t.subscription, t.subscriber, t.price, class);
        }
        item
    }

    pub(crate) fn success_probability_with_extra_delay(
        message: &Message,
        target: &FlatTarget,
        now: SimTime,
        processing_delay: Duration,
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
            .future_delay_ms(message.size_kb, processing_delay)
            .cdf(budget_ms)
    }

    pub(crate) fn expected_benefit_delayed(
        message: &Message,
        targets: &[FlatTarget],
        now: SimTime,
        processing_delay: Duration,
        first_send_estimate_ms: f64,
    ) -> f64 {
        targets
            .iter()
            .map(|t| {
                success_probability_with_extra_delay(
                    message,
                    t,
                    now,
                    processing_delay,
                    first_send_estimate_ms,
                ) * t.price.as_f64()
            })
            .sum()
    }

    pub(crate) fn expected_benefit(
        message: &Message,
        targets: &[FlatTarget],
        now: SimTime,
        processing_delay: Duration,
    ) -> f64 {
        expected_benefit_delayed(message, targets, now, processing_delay, 0.0)
    }

    pub(crate) fn max_success_probability(
        message: &Message,
        targets: &[FlatTarget],
        now: SimTime,
        processing_delay: Duration,
    ) -> f64 {
        targets
            .iter()
            .map(|t| success_probability_with_extra_delay(message, t, now, processing_delay, 0.0))
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
    use bdps_types::id::{MessageId, PublisherId, SubscriberId, SubscriptionId};
    use bdps_types::money::Price;
    use std::sync::Arc;

    const PD: Duration = Duration::from_millis(2);

    fn msg(publish_secs: u64) -> Arc<Message> {
        Arc::new(
            Message::builder(MessageId::new(1), PublisherId::new(0))
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
        success_probability(m, &copy(m, std::slice::from_ref(t)).classes[0], now, PD)
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
        // A target that (almost) surely succeeds and one that surely fails.
        let sure = target(600, 3, 1, 60.0);
        let hopeless = FlatTarget {
            allowed_delay: Duration::from_millis(10),
            ..target(1, 2, 4, 90.0)
        };
        let eb = expected_benefit(&copy(&m, &[sure.clone(), hopeless]), SimTime::ZERO, PD);
        assert!((eb - 3.0).abs() < 1e-3, "eb = {eb}");
        // EB scales with price.
        let pricier = FlatTarget {
            price: Price::from_units(6),
            ..sure
        };
        let eb2 = expected_benefit(&copy(&m, &[pricier]), SimTime::ZERO, PD);
        assert!((eb2 - 6.0).abs() < 2e-3);
        assert_eq!(expected_benefit(&copy(&m, &[]), SimTime::ZERO, PD), 0.0);
    }

    #[test]
    fn postponing_cost_is_nonnegative_and_higher_for_urgent_messages() {
        let m = msg(0);
        let ft = 50.0 * 75.0; // FT: 50 KB at 75 ms/KB
                              // Urgent: the deadline barely fits the path.
        let urgent = target(4, 1, 1, 60.0);
        // Relaxed: plenty of slack.
        let relaxed = target(60, 1, 1, 60.0);
        let pc_urgent = postponing_cost(&copy(&m, &[urgent]), SimTime::ZERO, PD, ft);
        let pc_relaxed = postponing_cost(&copy(&m, &[relaxed]), SimTime::ZERO, PD, ft);
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
        let pc_hopeless = postponing_cost(&copy(&m, &[hopeless]), SimTime::ZERO, PD, ft);
        assert!(pc_hopeless.abs() < 1e-9);
    }

    #[test]
    fn ebpc_interpolates_between_pc_and_eb() {
        let m = msg(0);
        let ft = 3_750.0;
        let targets = copy(&m, &[target(15, 2, 2, 60.0), target(30, 1, 1, 60.0)]);
        let eb = expected_benefit(&targets, SimTime::ZERO, PD);
        let pc = postponing_cost(&targets, SimTime::ZERO, PD, ft);
        let at_zero = ebpc(&targets, SimTime::ZERO, PD, ft, 0.0);
        let at_one = ebpc(&targets, SimTime::ZERO, PD, ft, 1.0);
        let mid = ebpc(&targets, SimTime::ZERO, PD, ft, 0.5);
        assert!((at_zero - pc).abs() < 1e-12);
        assert!((at_one - eb).abs() < 1e-12);
        assert!((mid - 0.5 * (eb + pc)).abs() < 1e-12);
    }

    #[test]
    fn max_success_probability_is_the_epsilon_test_quantity() {
        let m = msg(0);
        let good = target(60, 1, 1, 60.0);
        let bad = FlatTarget {
            allowed_delay: Duration::from_millis(5),
            ..target(1, 1, 3, 90.0)
        };
        let p = max_success_probability(&copy(&m, &[bad.clone(), good]), SimTime::ZERO, PD);
        assert!(p > 0.99);
        let only_bad = max_success_probability(&copy(&m, &[bad]), SimTime::ZERO, PD);
        assert!(only_bad < 5e-4, "only_bad = {only_bad}");
        assert_eq!(
            max_success_probability(&copy(&m, &[]), SimTime::ZERO, PD),
            0.0
        );
    }

    #[test]
    fn delayed_benefit_never_exceeds_immediate_benefit() {
        let m = msg(0);
        for allowed in [3u64, 5, 10, 30, 60] {
            let t = copy(&m, &[target(allowed, 2, 2, 75.0)]);
            let eb = expected_benefit(&t, SimTime::ZERO, PD);
            let ebd = expected_benefit_delayed(&t, SimTime::ZERO, PD, 3_750.0);
            assert!(ebd <= eb + 1e-12, "allowed {allowed}: {ebd} > {eb}");
        }
    }
}
