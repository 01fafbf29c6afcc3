//! Directed overlay links.
//!
//! Overlay links connect two brokers over a TCP connection of the underlying
//! Internet (paper §3.1). Each direction has its own transmission rate
//! because Internet paths are asymmetric; the topology builders of
//! `bdps-overlay` create one [`Link`] per direction.

use bdps_stats::normal::Normal;
use bdps_stats::rng::SimRng;
use bdps_types::id::{BrokerId, LinkId};
use bdps_types::time::Duration;

/// Minimum physically plausible per-KB rate (ms/KB): sampled rates are
/// truncated below it, and a fixed rate may not undercut it.
pub const MIN_RATE_MS_PER_KB: f64 = 0.01;

/// The quality of one link: its per-KB transmission rate
/// `TR ~ N(μ, σ²)` ms/KB (paper §3.2). A fixed-rate link — the "available
/// bandwidth of each link is fixed" assumption of the QRON-style related
/// work — is the `σ = 0` case. The paper folds propagation latency into the
/// per-KB rate, so there is no separate term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// The per-KB rate distribution the scheduler believes and the
    /// simulated network samples.
    pub(crate) rate: Normal,
}

impl LinkQuality {
    /// A normally distributed rate with the given mean and standard
    /// deviation in ms/KB.
    pub fn normal(mean_ms_per_kb: f64, std_dev_ms_per_kb: f64) -> Self {
        LinkQuality {
            rate: Normal::new(mean_ms_per_kb, std_dev_ms_per_kb),
        }
    }

    /// A deterministic rate in ms/KB: every transfer takes exactly
    /// `ms_per_kb · size` and draws nothing.
    ///
    /// # Panics
    ///
    /// If `ms_per_kb` is below [`MIN_RATE_MS_PER_KB`] or not finite: the
    /// sampler would truncate it to the floor.
    pub fn fixed(ms_per_kb: f64) -> Self {
        assert!(
            ms_per_kb >= MIN_RATE_MS_PER_KB && ms_per_kb.is_finite(),
            "fixed rate must be a finite value of at least {MIN_RATE_MS_PER_KB} ms/KB, got {ms_per_kb}"
        );
        LinkQuality::normal(ms_per_kb, 0.0)
    }

    /// The paper's evaluation draws each link's mean uniformly from
    /// \[50, 100\] ms/KB with a fixed standard deviation of 20 ms/KB (§6.1).
    pub fn paper_random(rng: &mut SimRng) -> Self {
        LinkQuality::normal(rng.uniform_range(50.0, 100.0), 20.0)
    }

    /// The per-KB rate distribution the scheduler should use.
    pub fn rate_distribution(&self) -> Normal {
        self.rate
    }

    /// Samples the transfer (serialisation) time of a message of `size_kb`
    /// kilobytes: one rate draw, truncated below at
    /// [`MIN_RATE_MS_PER_KB`]. A fixed rate draws nothing.
    pub fn sample_transfer(&self, size_kb: f64, rng: &mut SimRng) -> Duration {
        let rate = self.rate.sample_truncated_below(MIN_RATE_MS_PER_KB, rng);
        Duration::from_millis_f64(rate * size_kb)
    }
}

/// A directed link between two brokers.
#[derive(Debug, Clone)]
pub struct Link {
    /// Unique identifier of the link.
    pub id: LinkId,
    /// The broker the link leaves from.
    pub from: BrokerId,
    /// The broker the link arrives at.
    pub to: BrokerId,
    /// The link's quality model.
    pub quality: LinkQuality,
}

impl Link {
    /// Creates a link.
    pub fn new(id: LinkId, from: BrokerId, to: BrokerId, quality: LinkQuality) -> Self {
        Link {
            id,
            from,
            to,
            quality,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(quality: &LinkQuality, size_kb: f64, rng: &mut SimRng) -> f64 {
        quality.sample_transfer(size_kb, rng).as_millis_f64()
    }

    #[test]
    fn samples_scale_with_size() {
        let q = LinkQuality::normal(60.0, 0.0); // degenerate for exactness
        let mut rng = SimRng::seed_from(1);
        assert!((ms(&q, 1.0, &mut rng) - 60.0).abs() < 1e-9);
        assert!((ms(&q, 50.0, &mut rng) - 3_000.0).abs() < 1e-9);
        assert_eq!(q.rate_distribution().mean(), 60.0);
    }

    #[test]
    fn sample_mean_matches_distribution() {
        let q = LinkQuality::normal(75.0, 20.0);
        let mut rng = SimRng::seed_from(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| ms(&q, 1.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 75.0).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn samples_are_positive_even_for_noisy_links() {
        let q = LinkQuality::normal(5.0, 50.0);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..2_000 {
            assert!(ms(&q, 10.0, &mut rng) > 0.0);
        }
    }

    #[test]
    fn paper_random_quality_is_in_range() {
        let mut rng = SimRng::seed_from(4);
        for _ in 0..100 {
            let d = LinkQuality::paper_random(&mut rng).rate_distribution();
            assert!((50.0..100.0).contains(&d.mean()));
            assert!((d.std_dev() - 20.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fixed_rate_is_exact_and_draws_nothing() {
        let q = LinkQuality::fixed(80.0);
        let mut rng = SimRng::seed_from(5);
        let before = rng.state_words();
        assert_eq!(ms(&q, 50.0, &mut rng), 4_000.0);
        assert_eq!(rng.state_words(), before, "a fixed rate draws nothing");
        assert_eq!(q.rate_distribution().std_dev(), 0.0);
        assert_eq!(q.rate_distribution().mean(), 80.0);
    }

    #[test]
    #[should_panic]
    fn fixed_rate_rejects_rates_below_the_floor() {
        let _ = LinkQuality::fixed(MIN_RATE_MS_PER_KB / 2.0);
    }
}
