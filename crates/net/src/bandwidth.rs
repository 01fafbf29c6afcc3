//! Per-link bandwidth models.
//!
//! Every model answers two questions:
//!
//! 1. *What does the scheduler believe?* — [`BandwidthModel::rate_distribution`]
//!    returns the normal distribution of the per-KB transmission rate that the
//!    EB/PC/EBPC metrics plug into equation (5). Models that are not natively
//!    normal (fixed rate) return their moment-matched normal, which is
//!    exactly what a broker estimating mean/variance from measurements would
//!    arrive at.
//! 2. *What does the simulated network actually do?* —
//!    [`BandwidthModel::sample_transfer_ms`] draws the actual time to push a
//!    message of a given size over the link.

use bdps_stats::normal::Normal;
use bdps_stats::rng::SimRng;

/// Minimum physically plausible per-KB rate (ms/KB) used to truncate samples.
const MIN_RATE_MS_PER_KB: f64 = 0.01;

/// A model of one overlay link's available bandwidth.
pub trait BandwidthModel: std::fmt::Debug + Send + Sync {
    /// The (possibly moment-matched) normal distribution of the per-KB
    /// transmission rate in ms/KB — what the scheduling metrics consume.
    fn rate_distribution(&self) -> Normal;

    /// Samples the actual transfer time in milliseconds for `size_kb` kilobytes.
    fn sample_transfer_ms(&self, size_kb: f64, rng: &mut SimRng) -> f64;

    /// Mean per-KB rate in ms/KB (convenience).
    fn mean_rate(&self) -> f64 {
        self.rate_distribution().mean()
    }
}

/// The paper's model: `TR ~ N(μ, σ²)` ms/KB, sampled per message and
/// truncated at a small positive rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalRate {
    rate: Normal,
}

impl NormalRate {
    /// Creates a normally distributed rate with the given mean and standard
    /// deviation in ms/KB.
    pub fn new(mean_ms_per_kb: f64, std_dev_ms_per_kb: f64) -> Self {
        NormalRate {
            rate: Normal::new(mean_ms_per_kb, std_dev_ms_per_kb),
        }
    }

    /// The paper's evaluation draws each link's mean uniformly from
    /// [50, 100] ms/KB with a fixed standard deviation of 20 ms/KB (§6.1).
    pub fn paper_random(rng: &mut SimRng) -> Self {
        NormalRate::new(rng.uniform_range(50.0, 100.0), 20.0)
    }
}

impl BandwidthModel for NormalRate {
    fn rate_distribution(&self) -> Normal {
        self.rate
    }

    fn sample_transfer_ms(&self, size_kb: f64, rng: &mut SimRng) -> f64 {
        let rate = self.rate.sample_truncated_below(MIN_RATE_MS_PER_KB, rng);
        rate * size_kb
    }
}

/// A deterministic fixed rate — the "available bandwidth of each link is
/// fixed" assumption the paper attributes to QRON-style overlay QoS work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRate {
    ms_per_kb: f64,
}

impl FixedRate {
    /// Creates a fixed rate in ms/KB.
    pub fn new(ms_per_kb: f64) -> Self {
        assert!(ms_per_kb > 0.0 && ms_per_kb.is_finite());
        FixedRate { ms_per_kb }
    }
}

impl BandwidthModel for FixedRate {
    fn rate_distribution(&self) -> Normal {
        Normal::new(self.ms_per_kb, 0.0)
    }

    fn sample_transfer_ms(&self, size_kb: f64, _rng: &mut SimRng) -> f64 {
        self.ms_per_kb * size_kb
    }
}

/// A type-erased, clonable bandwidth model handle used by link structures.
#[derive(Debug, Clone)]
pub enum AnyBandwidth {
    /// Normally distributed rate (the paper's model).
    Normal(NormalRate),
    /// Deterministic fixed rate.
    Fixed(FixedRate),
}

impl BandwidthModel for AnyBandwidth {
    fn rate_distribution(&self) -> Normal {
        match self {
            AnyBandwidth::Normal(m) => m.rate_distribution(),
            AnyBandwidth::Fixed(m) => m.rate_distribution(),
        }
    }

    fn sample_transfer_ms(&self, size_kb: f64, rng: &mut SimRng) -> f64 {
        match self {
            AnyBandwidth::Normal(m) => m.sample_transfer_ms(size_kb, rng),
            AnyBandwidth::Fixed(m) => m.sample_transfer_ms(size_kb, rng),
        }
    }
}

impl From<NormalRate> for AnyBandwidth {
    fn from(m: NormalRate) -> Self {
        AnyBandwidth::Normal(m)
    }
}

impl From<FixedRate> for AnyBandwidth {
    fn from(m: FixedRate) -> Self {
        AnyBandwidth::Fixed(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_rate_samples_scale_with_size() {
        let m = NormalRate::new(60.0, 0.0); // degenerate for exactness
        let mut rng = SimRng::seed_from(1);
        assert!((m.sample_transfer_ms(1.0, &mut rng) - 60.0).abs() < 1e-9);
        assert!((m.sample_transfer_ms(50.0, &mut rng) - 3_000.0).abs() < 1e-9);
        assert_eq!(m.mean_rate(), 60.0);
    }

    #[test]
    fn normal_rate_sample_mean_matches_distribution() {
        let m = NormalRate::new(75.0, 20.0);
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.sample_transfer_ms(1.0, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 75.0).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn normal_rate_samples_are_positive_even_for_noisy_links() {
        let m = NormalRate::new(5.0, 50.0);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..2_000 {
            assert!(m.sample_transfer_ms(10.0, &mut rng) > 0.0);
        }
    }

    #[test]
    fn paper_random_links_are_in_range() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..100 {
            let m = NormalRate::paper_random(&mut rng);
            let d = m.rate_distribution();
            assert!((50.0..100.0).contains(&d.mean()));
            assert!((d.std_dev() - 20.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fixed_rate_is_deterministic() {
        let m = FixedRate::new(80.0);
        let mut rng = SimRng::seed_from(5);
        assert_eq!(m.sample_transfer_ms(50.0, &mut rng), 4_000.0);
        assert_eq!(m.rate_distribution().std_dev(), 0.0);
        assert_eq!(m.rate_distribution().mean(), 80.0);
    }

    #[test]
    #[should_panic]
    fn fixed_rate_rejects_nonpositive() {
        let _ = FixedRate::new(0.0);
    }

    #[test]
    fn any_bandwidth_dispatch() {
        let mut rng = SimRng::seed_from(7);
        let models: Vec<AnyBandwidth> = vec![
            NormalRate::new(60.0, 10.0).into(),
            FixedRate::new(60.0).into(),
        ];
        for m in &models {
            assert!((m.mean_rate() - 60.0).abs() < 1e-9);
            assert!(m.sample_transfer_ms(1.0, &mut rng) > 0.0);
        }
    }
}
