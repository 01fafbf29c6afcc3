//! The normal (Gaussian) distribution.
//!
//! The paper models the transmission rate `TR_i` of overlay link `l_i`
//! (milliseconds needed to transmit one kilobyte) as `TR_i ~ N(μ_i, σ_i²)`
//! and relies on the closure of independent normals under addition to obtain
//! the distribution of a whole path: `TR_p ~ N(Σμ_i, Σσ_i²)` (§3.2). The
//! success probability of a message (eq. 5) is a normal CDF evaluation.

use crate::erf::{erf, inverse_erf};
use crate::rng::SimRng;
use std::f64::consts::{PI, SQRT_2};

/// A normal distribution parameterised by mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution. The standard deviation must be
    /// non-negative and finite; a zero standard deviation yields a
    /// degenerate (point-mass) distribution, which the path-composition code
    /// uses for idealised fixed-rate links.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters: mean={mean}, std_dev={std_dev}"
        );
        Normal { mean, std_dev }
    }

    /// The standard normal distribution `N(0, 1)`.
    pub fn standard() -> Self {
        Normal::new(0.0, 1.0)
    }

    /// Creates a normal distribution from mean and variance.
    pub fn from_mean_variance(mean: f64, variance: f64) -> Self {
        assert!(variance >= 0.0, "variance must be non-negative");
        Normal::new(mean, variance.sqrt())
    }

    /// The mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// The variance of the distribution.
    pub fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }

    /// Probability density function at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * PI).sqrt())
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.std_dev == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        0.5 * (1.0 + erf((x - self.mean) / (self.std_dev * SQRT_2)))
    }

    /// Quantile (inverse CDF): the `p`-quantile of the distribution.
    ///
    /// `p` outside `[0, 1]` is clamped. `p = 0` and `p = 1` map to −∞/+∞ for
    /// non-degenerate distributions.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        if self.std_dev == 0.0 {
            return self.mean;
        }
        self.mean + self.std_dev * SQRT_2 * inverse_erf(2.0 * p - 1.0)
    }

    /// Draws one sample using the Box–Muller transform.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean;
        }
        self.mean + self.std_dev * rng.standard_normal()
    }

    /// Draws one sample truncated below at `lower` (rejection with an
    /// analytic fallback).
    ///
    /// Link transmission rates must be positive; the paper's parameters
    /// (μ ∈ [50, 100] ms/KB, σ = 20 ms/KB) make negative samples rare
    /// (≈ 0.3% at worst), so simple rejection is efficient. If rejection
    /// fails repeatedly (pathological parameters) the sample is clamped.
    pub fn sample_truncated_below(&self, lower: f64, rng: &mut SimRng) -> f64 {
        if self.std_dev == 0.0 {
            return self.mean.max(lower);
        }
        for _ in 0..64 {
            let x = self.sample(rng);
            if x >= lower {
                return x;
            }
        }
        lower
    }

    /// The distribution of the sum of two *independent* normal variables.
    pub fn add_independent(&self, other: &Normal) -> Normal {
        Normal::from_mean_variance(self.mean + other.mean, self.variance() + other.variance())
    }

    /// The distribution of `c · X` for a non-negative constant `c`
    /// (e.g. message size in KB times the per-KB rate).
    pub fn scale(&self, c: f64) -> Normal {
        assert!(c >= 0.0 && c.is_finite(), "scale factor must be >= 0");
        Normal::new(self.mean * c, self.std_dev * c)
    }

    /// The distribution of `X + c` for a constant shift `c`.
    pub fn shift(&self, c: f64) -> Normal {
        Normal::new(self.mean + c, self.std_dev)
    }

    /// Sums a sequence of independent normals; the empty sum is the
    /// degenerate distribution at zero.
    pub fn sum<'a>(terms: impl IntoIterator<Item = &'a Normal>) -> Normal {
        let mut mean = 0.0;
        let mut var = 0.0;
        for t in terms {
            mean += t.mean;
            var += t.variance();
        }
        Normal::from_mean_variance(mean, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_cdf_reference_points() {
        let n = Normal::standard();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.0) - 0.8413447460685429).abs() < 1e-10);
        assert!((n.cdf(-1.0) - 0.15865525393145707).abs() < 1e-10);
        assert!((n.cdf(1.959963984540054) - 0.975).abs() < 1e-9);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let n = Normal::new(3.0, 2.0);
        // Trapezoidal integration over +-8 sigma.
        let steps = 20_000;
        let lo = 3.0 - 16.0;
        let hi = 3.0 + 16.0;
        let h = (hi - lo) / steps as f64;
        let mut area = 0.0;
        for i in 0..steps {
            let x0 = lo + i as f64 * h;
            area += 0.5 * (n.pdf(x0) + n.pdf(x0 + h)) * h;
        }
        assert!((area - 1.0).abs() < 1e-6, "area = {area}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(-2.0, 0.7);
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn degenerate_distribution() {
        let n = Normal::new(5.0, 0.0);
        assert_eq!(n.cdf(4.9), 0.0);
        assert_eq!(n.cdf(5.0), 1.0);
        assert_eq!(n.quantile(0.3), 5.0);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(n.sample(&mut rng), 5.0);
    }

    #[test]
    fn addition_and_scaling() {
        let a = Normal::new(50.0, 20.0);
        let b = Normal::new(75.0, 20.0);
        let s = a.add_independent(&b);
        assert!((s.mean() - 125.0).abs() < 1e-12);
        assert!((s.variance() - 800.0).abs() < 1e-9);

        let scaled = a.scale(50.0); // 50 KB message over a per-KB rate
        assert!((scaled.mean() - 2500.0).abs() < 1e-9);
        assert!((scaled.std_dev() - 1000.0).abs() < 1e-9);

        let shifted = a.shift(8.0);
        assert!((shifted.mean() - 58.0).abs() < 1e-12);
        assert!((shifted.std_dev() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_many() {
        let links = [Normal::new(50.0, 20.0); 4];
        let path = Normal::sum(links.iter());
        assert!((path.mean() - 200.0).abs() < 1e-9);
        assert!((path.variance() - 1600.0).abs() < 1e-9);
        let empty = Normal::sum(std::iter::empty());
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);
    }

    #[test]
    fn sampling_matches_moments() {
        let n = Normal::new(10.0, 3.0);
        let mut rng = SimRng::seed_from(42);
        let samples: Vec<f64> = (0..50_000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean = {mean}");
        assert!((var - 9.0).abs() < 0.3, "var = {var}");
    }

    #[test]
    fn truncated_sampling_never_below_bound() {
        // Deliberately nasty parameters: most of the mass is below zero.
        let n = Normal::new(-5.0, 1.0);
        let mut rng = SimRng::seed_from(7);
        for _ in 0..1_000 {
            assert!(n.sample_truncated_below(0.0, &mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic]
    fn negative_std_dev_panics() {
        let _ = Normal::new(0.0, -1.0);
    }
}
