//! Workload configuration and generators (§6.1).

use bdps_filter::filter::Filter;
use bdps_filter::predicate::Predicate;
use bdps_filter::subscription::Subscription;
use bdps_stats::process::{ArrivalProcess, PoissonArrivals};
use bdps_stats::rng::SimRng;
use bdps_types::error::{BdpsError, Result};
use bdps_types::id::{MessageId, PublisherId, SubscriberId, SubscriptionId};
use bdps_types::message::{Message, MessageHead};
use bdps_types::qos::{DelayBound, QosClass};
use bdps_types::time::{Duration, SimTime};

/// Which side specifies the delay requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Publisher-specified delay (PSD): each message carries a bound drawn
    /// uniformly from the configured range; subscriptions are best effort.
    PublisherSpecified,
    /// Subscriber-specified delay (SSD): each subscription carries a QoS
    /// class (delay bound + price); messages carry no bound.
    SubscriberSpecified,
    /// Both sides specify bounds (the paper's "easily extended" case).
    Combined,
    /// No bounds at all.
    BestEffort,
}

impl Scenario {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::PublisherSpecified => "PSD",
            Scenario::SubscriberSpecified => "SSD",
            Scenario::Combined => "PSD+SSD",
            Scenario::BestEffort => "best-effort",
        }
    }
}

/// How publication instants are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Poisson process at the configured rate (default reading of
    /// "continuously publishes messages at a certain rate").
    Poisson,
    /// Evenly spaced publications.
    Deterministic,
}

/// The workload of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// The delay-requirement scenario.
    pub scenario: Scenario,
    /// Messages published per publisher per minute (the paper's x-axis).
    pub publishing_rate_per_min: f64,
    /// Length of the publication period (2 hours in the paper).
    pub duration: Duration,
    /// Message size in KB (50 in the paper).
    pub message_size_kb: f64,
    /// Number of head attributes (`A1..An`; 2 in the paper).
    pub num_attributes: usize,
    /// Range attribute values (and filter thresholds) are drawn from ((0, 10)).
    pub attribute_range: (f64, f64),
    /// PSD: the range the per-message allowed delay is drawn from, in seconds
    /// ([10, 30] in the paper).
    pub psd_delay_range_secs: (f64, f64),
    /// SSD: the QoS classes subscriptions are drawn from uniformly
    /// ({10 s/3, 30 s/2, 60 s/1} in the paper).
    pub ssd_classes: Vec<QosClass>,
    /// The arrival process.
    pub arrivals: ArrivalKind,
}

impl WorkloadConfig {
    /// The paper's PSD workload at the given publishing rate.
    pub fn paper_psd(publishing_rate_per_min: f64) -> Self {
        WorkloadConfig {
            scenario: Scenario::PublisherSpecified,
            publishing_rate_per_min,
            duration: Duration::from_secs(2 * 3600),
            message_size_kb: 50.0,
            num_attributes: 2,
            attribute_range: (0.0, 10.0),
            psd_delay_range_secs: (10.0, 30.0),
            ssd_classes: QosClass::paper_tiers().to_vec(),
            arrivals: ArrivalKind::Poisson,
        }
    }

    /// The paper's SSD workload at the given publishing rate.
    pub fn paper_ssd(publishing_rate_per_min: f64) -> Self {
        WorkloadConfig {
            scenario: Scenario::SubscriberSpecified,
            ..Self::paper_psd(publishing_rate_per_min)
        }
    }

    /// Shrinks the run to the given duration (useful for tests and smoke runs).
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Validates the workload.
    pub fn validate(&self) -> Result<()> {
        if self.publishing_rate_per_min < 0.0 || !self.publishing_rate_per_min.is_finite() {
            return Err(BdpsError::InvalidConfig(
                "publishing rate must be non-negative".into(),
            ));
        }
        if !(self.message_size_kb > 0.0 && self.message_size_kb.is_finite()) {
            return Err(BdpsError::InvalidConfig(
                "message size must be positive and finite".into(),
            ));
        }
        if self.num_attributes == 0 {
            return Err(BdpsError::InvalidConfig(
                "at least one attribute is required".into(),
            ));
        }
        let (lo, hi) = self.attribute_range;
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(BdpsError::InvalidConfig(
                "attribute range must be finite and non-empty".into(),
            ));
        }
        let (lo, hi) = self.psd_delay_range_secs;
        if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
            return Err(BdpsError::InvalidConfig(
                "PSD delay range must be finite and ordered".into(),
            ));
        }
        if self.scenario == Scenario::SubscriberSpecified && self.ssd_classes.is_empty() {
            return Err(BdpsError::InvalidConfig(
                "SSD scenario requires at least one QoS class".into(),
            ));
        }
        Ok(())
    }

    /// The attribute name of index `i` (`A1`, `A2`, ...).
    pub fn attribute_name(i: usize) -> String {
        format!("A{}", i + 1)
    }

    /// Generates a message head with uniformly drawn attribute values.
    pub fn generate_head(&self, rng: &mut SimRng) -> MessageHead {
        let mut head = MessageHead::with_capacity(self.num_attributes);
        for i in 0..self.num_attributes {
            let v = rng.uniform_range(self.attribute_range.0, self.attribute_range.1);
            head.set(Self::attribute_name(i).as_str(), v);
        }
        head
    }

    /// Generates one message published at `publish_time` by `publisher`.
    pub fn generate_message(
        &self,
        id: MessageId,
        publisher: PublisherId,
        publish_time: SimTime,
        rng: &mut SimRng,
    ) -> Message {
        let mut builder = Message::builder(id, publisher)
            .publish_time(publish_time)
            .size_kb(self.message_size_kb)
            .head(self.generate_head(rng));
        if matches!(
            self.scenario,
            Scenario::PublisherSpecified | Scenario::Combined
        ) {
            let secs = rng.uniform_range(self.psd_delay_range_secs.0, self.psd_delay_range_secs.1);
            builder = builder.publisher_bound(DelayBound::new(Duration::from_secs_f64(secs)));
        }
        builder.build()
    }

    /// Generates the subscription of one subscriber: the paper's conjunction
    /// `A1 < x1 ∧ ... ∧ An < xn` with uniform thresholds, plus the QoS class
    /// demanded by the scenario.
    pub fn generate_subscription(
        &self,
        id: SubscriptionId,
        subscriber: SubscriberId,
        rng: &mut SimRng,
    ) -> Subscription {
        let mut predicates = Vec::with_capacity(self.num_attributes);
        for i in 0..self.num_attributes {
            let threshold = rng.uniform_range(self.attribute_range.0, self.attribute_range.1);
            predicates.push(Predicate::lt(Self::attribute_name(i).as_str(), threshold));
        }
        let filter = Filter::new(predicates);
        match self.scenario {
            Scenario::SubscriberSpecified | Scenario::Combined => {
                let class = *rng.choose(&self.ssd_classes);
                Subscription::with_qos(id, subscriber, filter, class)
            }
            Scenario::PublisherSpecified | Scenario::BestEffort => {
                Subscription::best_effort(id, subscriber, filter)
            }
        }
    }

    /// The mean gap between publications of one publisher at `multiplier`
    /// times the base rate, in seconds; `None` when the effective rate is
    /// zero (or not finite). The single source of truth for gap sampling.
    fn mean_gap_secs(&self, multiplier: f64) -> Option<f64> {
        let rate = self.publishing_rate_per_min * multiplier.max(0.0);
        if rate <= 0.0 || !rate.is_finite() {
            None
        } else {
            Some(60.0 / rate)
        }
    }

    /// Draws the gap until a publisher's next publication with the base rate
    /// scaled by `multiplier` — the hook dynamic scenarios use to model
    /// bursts (multiplier > 1) and lulls or pauses (multiplier in [0, 1)).
    /// A zero effective rate yields `None` (the publisher is silent).
    pub fn next_publication_gap_scaled(
        &self,
        multiplier: f64,
        rng: &mut SimRng,
    ) -> Option<Duration> {
        let mean_secs = self.mean_gap_secs(multiplier)?;
        match self.arrivals {
            ArrivalKind::Deterministic => Some(Duration::from_secs_f64(mean_secs)),
            ArrivalKind::Poisson => Some(Duration::from_secs_f64(rng.exponential(1.0 / mean_secs))),
        }
    }
}

/// A subscription churn process: joins and leaves arrive as independent
/// Poisson streams over the publication period (the paper's population is
/// the static special case with both rates zero).
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// New subscriptions per minute (system-wide).
    pub joins_per_min: f64,
    /// Departures per minute (system-wide); departures pick a uniformly
    /// random currently-active subscription.
    pub leaves_per_min: f64,
}

impl ChurnConfig {
    /// A moderate churn level: one join and one leave per minute.
    pub fn moderate() -> Self {
        ChurnConfig {
            joins_per_min: 1.0,
            leaves_per_min: 1.0,
        }
    }

    /// Draws the arrival instants of a Poisson stream at `per_min` events
    /// per minute over `[0, horizon)`, delegating to the workspace's one
    /// Poisson implementation
    /// ([`PoissonArrivals`]).
    pub fn poisson_instants(per_min: f64, horizon: Duration, rng: &mut SimRng) -> Vec<Duration> {
        if per_min <= 0.0 || !per_min.is_finite() {
            return Vec::new();
        }
        PoissonArrivals::per_minute(per_min)
            .arrivals_in(SimTime::ZERO, SimTime::ZERO + horizon, rng)
            .into_iter()
            .map(|t| t.duration_since(SimTime::ZERO))
            .collect()
    }
}

/// A two-state MMPP-style burst process for publishers: calm periods at the
/// base rate alternate with bursts at `multiplier` times the base rate, both
/// with exponentially distributed lengths (a Markov-modulated Poisson
/// process, the standard flash-crowd model).
#[derive(Debug, Clone, PartialEq)]
pub struct BurstConfig {
    /// Mean length of a calm period, in seconds.
    pub mean_calm_secs: f64,
    /// Mean length of a burst, in seconds.
    pub mean_burst_secs: f64,
    /// Rate multiplier applied to every publisher while a burst is active.
    pub multiplier: f64,
}

impl BurstConfig {
    /// A flash-crowd profile: five-minute calm stretches interrupted by
    /// one-minute bursts at four times the base rate.
    pub fn flash_crowd() -> Self {
        BurstConfig {
            mean_calm_secs: 300.0,
            mean_burst_secs: 60.0,
            multiplier: 4.0,
        }
    }

    /// Samples the alternating `(burst_start, burst_end)` windows over
    /// `[0, horizon)`, starting in the calm state.
    pub fn sample_windows(&self, horizon: Duration, rng: &mut SimRng) -> Vec<(Duration, Duration)> {
        let mut windows = Vec::new();
        if self.mean_calm_secs <= 0.0 || self.mean_burst_secs <= 0.0 {
            return windows;
        }
        let horizon_secs = horizon.as_secs_f64();
        let mut t = 0.0;
        loop {
            t += rng.exponential(1.0 / self.mean_calm_secs);
            if t >= horizon_secs {
                return windows;
            }
            let start = t;
            t += rng.exponential(1.0 / self.mean_burst_secs);
            let end = t.min(horizon_secs);
            windows.push((Duration::from_secs_f64(start), Duration::from_secs_f64(end)));
            if t >= horizon_secs {
                return windows;
            }
        }
    }
}

/// A link failure process: each failure takes one randomly chosen broker
/// pair down (both directions) for an exponentially distributed repair time.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFailureConfig {
    /// Mean time between failures, in seconds (system-wide).
    pub mean_time_between_failures_secs: f64,
    /// Mean downtime of a failed link, in seconds.
    pub mean_downtime_secs: f64,
}

impl LinkFailureConfig {
    /// A flaky network: a failure every two minutes, half a minute down.
    pub fn flaky() -> Self {
        LinkFailureConfig {
            mean_time_between_failures_secs: 120.0,
            mean_downtime_secs: 30.0,
        }
    }

    /// A link-flap storm: a failure every two seconds, ~five seconds down,
    /// so outages overlap and routing is in near-constant flux. The
    /// scenario that makes the rebuild path the bottleneck.
    pub fn storm() -> Self {
        LinkFailureConfig {
            mean_time_between_failures_secs: 2.0,
            mean_downtime_secs: 5.0,
        }
    }

    /// Samples `(failure_start, recovery)` windows over `[0, horizon)`.
    /// Windows may overlap — concurrent failures of different links.
    pub fn sample_windows(&self, horizon: Duration, rng: &mut SimRng) -> Vec<(Duration, Duration)> {
        let mut windows = Vec::new();
        if self.mean_time_between_failures_secs <= 0.0 || self.mean_downtime_secs <= 0.0 {
            return windows;
        }
        let horizon_secs = horizon.as_secs_f64();
        let mut t = 0.0;
        loop {
            t += rng.exponential(1.0 / self.mean_time_between_failures_secs);
            if t >= horizon_secs {
                return windows;
            }
            let down = rng.exponential(1.0 / self.mean_downtime_secs);
            windows.push((
                Duration::from_secs_f64(t),
                Duration::from_secs_f64((t + down).min(horizon_secs)),
            ));
        }
    }
}

/// An explicit outage window during which *every* link is down — the
/// worst-case scenario behind the empty-phase report edge cases. Expressed
/// as fractions of the publication period so registry-built scenarios work
/// at any duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlackoutWindow {
    /// Start of the outage as a fraction of the publication period, in [0, 1].
    pub start_frac: f64,
    /// Length of the outage as a fraction of the publication period.
    pub duration_frac: f64,
}

impl BlackoutWindow {
    /// Resolves the window to absolute simulation times.
    pub fn resolve(&self, horizon: Duration) -> (Duration, Duration) {
        let start = horizon.mul_f64(self.start_frac.clamp(0.0, 1.0));
        let end = horizon.mul_f64((self.start_frac + self.duration_frac).clamp(0.0, 1.0));
        (start, end.max(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_types::money::Price;

    #[test]
    fn paper_workloads_validate() {
        assert!(WorkloadConfig::paper_psd(10.0).validate().is_ok());
        assert!(WorkloadConfig::paper_ssd(15.0).validate().is_ok());
        assert_eq!(WorkloadConfig::paper_psd(1.0).scenario.label(), "PSD");
        assert_eq!(WorkloadConfig::paper_ssd(1.0).scenario.label(), "SSD");
    }

    #[test]
    fn invalid_workloads_are_rejected() {
        let mut w = WorkloadConfig::paper_psd(10.0);
        w.publishing_rate_per_min = -1.0;
        assert!(w.validate().is_err());
        let mut w = WorkloadConfig::paper_psd(10.0);
        w.message_size_kb = 0.0;
        assert!(w.validate().is_err());
        let mut w = WorkloadConfig::paper_ssd(10.0);
        w.ssd_classes.clear();
        assert!(w.validate().is_err());
        let mut w = WorkloadConfig::paper_psd(10.0);
        w.attribute_range = (5.0, 5.0);
        assert!(w.validate().is_err());
        let mut w = WorkloadConfig::paper_psd(10.0);
        w.num_attributes = 0;
        assert!(w.validate().is_err());
        // NaN compares false with everything, so a bare `x <= 0.0` test
        // passes it: every float field must also be asked `is_finite`.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let edits: [fn(&mut WorkloadConfig, f64); 6] = [
                |w, x| w.publishing_rate_per_min = x,
                |w, x| w.message_size_kb = x,
                |w, x| w.attribute_range.0 = x,
                |w, x| w.attribute_range.1 = x,
                |w, x| w.psd_delay_range_secs.0 = x,
                |w, x| w.psd_delay_range_secs.1 = x,
            ];
            for (field, edit) in edits.iter().enumerate() {
                let mut w = WorkloadConfig::paper_psd(10.0);
                edit(&mut w, bad);
                assert!(
                    w.validate().is_err(),
                    "field {field} = {bad} must be rejected"
                );
            }
        }
    }

    #[test]
    fn generated_heads_match_the_paper_format() {
        let w = WorkloadConfig::paper_psd(10.0);
        let mut rng = SimRng::seed_from(1);
        let head = w.generate_head(&mut rng);
        assert_eq!(head.len(), 2);
        for name in ["A1", "A2"] {
            let v = head.get(name).unwrap().as_f64().unwrap();
            assert!((0.0..10.0).contains(&v));
        }
    }

    #[test]
    fn psd_messages_carry_bounds_in_range() {
        let w = WorkloadConfig::paper_psd(10.0);
        let mut rng = SimRng::seed_from(2);
        for i in 0..100u64 {
            let m = w.generate_message(
                MessageId::new(i),
                PublisherId::new(0),
                SimTime::from_secs(i),
                &mut rng,
            );
            let bound = m.publisher_bound.unwrap().duration().as_secs_f64();
            assert!((10.0..30.0).contains(&bound), "bound = {bound}");
            assert_eq!(m.size_kb, 50.0);
        }
    }

    #[test]
    fn ssd_messages_have_no_bound_but_subscriptions_do() {
        let w = WorkloadConfig::paper_ssd(10.0);
        let mut rng = SimRng::seed_from(3);
        let m = w.generate_message(
            MessageId::new(1),
            PublisherId::new(0),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(m.publisher_bound.is_none());
        let mut seen_prices = std::collections::HashSet::new();
        for i in 0..200u32 {
            let s = w.generate_subscription(SubscriptionId::new(i), SubscriberId::new(i), &mut rng);
            assert!(s.is_delay_bounded());
            seen_prices.insert(s.price.millis());
            assert_eq!(s.filter.len(), 2);
        }
        // All three paper tiers show up.
        assert!(seen_prices.contains(&Price::from_units(1).millis()));
        assert!(seen_prices.contains(&Price::from_units(2).millis()));
        assert!(seen_prices.contains(&Price::from_units(3).millis()));
    }

    #[test]
    fn psd_subscriptions_are_best_effort_unit_price() {
        let w = WorkloadConfig::paper_psd(10.0);
        let mut rng = SimRng::seed_from(4);
        let s = w.generate_subscription(SubscriptionId::new(0), SubscriberId::new(0), &mut rng);
        assert!(!s.is_delay_bounded());
        assert_eq!(s.price, Price::unit());
    }

    #[test]
    fn combined_scenario_has_both_bounds() {
        let mut w = WorkloadConfig::paper_psd(10.0);
        w.scenario = Scenario::Combined;
        let mut rng = SimRng::seed_from(5);
        let m = w.generate_message(
            MessageId::new(1),
            PublisherId::new(0),
            SimTime::ZERO,
            &mut rng,
        );
        assert!(m.publisher_bound.is_some());
        let s = w.generate_subscription(SubscriptionId::new(0), SubscriberId::new(0), &mut rng);
        assert!(s.is_delay_bounded());
    }

    #[test]
    fn publication_gaps_follow_the_rate() {
        let w = WorkloadConfig::paper_psd(6.0); // every 10 s on average
        let mut rng = SimRng::seed_from(6);
        let n = 5_000;
        let mean: f64 = (0..n)
            .map(|_| {
                w.next_publication_gap_scaled(1.0, &mut rng)
                    .unwrap()
                    .as_secs_f64()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean = {mean}");

        let mut det = w.clone();
        det.arrivals = ArrivalKind::Deterministic;
        assert_eq!(
            det.next_publication_gap_scaled(1.0, &mut rng),
            Some(Duration::from_secs(10))
        );

        let zero = WorkloadConfig::paper_psd(0.0);
        assert_eq!(zero.next_publication_gap_scaled(1.0, &mut rng), None);
    }

    #[test]
    fn scaled_gaps_follow_the_multiplier() {
        let mut w = WorkloadConfig::paper_psd(6.0); // every 10 s at rate 1x
        w.arrivals = ArrivalKind::Deterministic;
        let mut rng = SimRng::seed_from(7);
        assert_eq!(
            w.next_publication_gap_scaled(1.0, &mut rng),
            Some(Duration::from_secs(10))
        );
        assert_eq!(
            w.next_publication_gap_scaled(4.0, &mut rng),
            Some(Duration::from_millis(2_500))
        );
        assert_eq!(w.next_publication_gap_scaled(0.0, &mut rng), None);
        assert_eq!(w.next_publication_gap_scaled(-3.0, &mut rng), None);
    }

    #[test]
    fn poisson_instants_are_sorted_and_respect_the_horizon() {
        let mut rng = SimRng::seed_from(8);
        let horizon = Duration::from_secs(3_600);
        let instants = ChurnConfig::poisson_instants(2.0, horizon, &mut rng);
        // ~2/min over an hour: expect on the order of 120 events.
        assert!(
            instants.len() > 60 && instants.len() < 240,
            "{}",
            instants.len()
        );
        assert!(instants.windows(2).all(|w| w[0] <= w[1]));
        assert!(instants.iter().all(|t| *t < horizon));
        assert!(ChurnConfig::poisson_instants(0.0, horizon, &mut rng).is_empty());
    }

    #[test]
    fn burst_windows_alternate_and_stay_in_range() {
        let mut rng = SimRng::seed_from(9);
        let horizon = Duration::from_secs(3_600);
        let windows = BurstConfig::flash_crowd().sample_windows(horizon, &mut rng);
        assert!(!windows.is_empty());
        let mut last_end = Duration::ZERO;
        for (start, end) in &windows {
            assert!(*start >= last_end);
            assert!(start <= end);
            assert!(*end <= horizon);
            last_end = *end;
        }
    }

    #[test]
    fn link_failure_windows_and_blackout_resolution() {
        let mut rng = SimRng::seed_from(10);
        let horizon = Duration::from_secs(3_600);
        let windows = LinkFailureConfig::flaky().sample_windows(horizon, &mut rng);
        assert!(!windows.is_empty());
        assert!(windows.iter().all(|(s, e)| s <= e && *e <= horizon));

        let w = BlackoutWindow {
            start_frac: 0.25,
            duration_frac: 0.25,
        };
        let (start, end) = w.resolve(Duration::from_secs(1_000));
        assert_eq!(start, Duration::from_secs(250));
        assert_eq!(end, Duration::from_secs(500));
        // Degenerate fractions clamp instead of inverting.
        let w = BlackoutWindow {
            start_frac: 0.9,
            duration_frac: 0.5,
        };
        let (start, end) = w.resolve(Duration::from_secs(1_000));
        assert_eq!(start, Duration::from_secs(900));
        assert_eq!(end, Duration::from_secs(1_000));
    }
}
