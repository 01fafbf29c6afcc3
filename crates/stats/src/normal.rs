//! The normal (Gaussian) distribution.
//!
//! The paper models the transmission rate `TR_i` of overlay link `l_i`
//! (milliseconds needed to transmit one kilobyte) as `TR_i ~ N(μ_i, σ_i²)`
//! and relies on the closure of independent normals under addition to obtain
//! the distribution of a whole path: `TR_p ~ N(Σμ_i, Σσ_i²)` (§3.2). The
//! success probability of a message (eq. 5) is a normal CDF evaluation.

use crate::erf::{erfc, erfc_lanes};
use crate::rng::SimRng;
use std::f64::consts::SQRT_2;

/// Where `0.5·(1 + erf(z))` stops moving: for an erf argument `z ≥ 6` the
/// formula rounds to exactly 1.0 and for `z ≤ −6` to exactly 0.0 (on a 1e-5
/// grid the last arguments that round elsewhere are +5.8294 and −5.8636),
/// so [`Normal::cdf`] returns those values without evaluating erf.
const SATURATED_Z: f64 = 6.0;

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

    /// Cumulative distribution function `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        match self.erf_arg(x) {
            Ok(z) => cdf_from_erfc(erfc(z)),
            Err(p) => p,
        }
    }

    /// The erf argument `z = (x − μ)/(σ√2)` of `cdf(x)`, or `Err(cdf(x))`
    /// when the value needs no erf: a point mass, or a saturated tail
    /// (`|z| ≥ 6`, see `SATURATED_Z`).
    fn erf_arg(&self, x: f64) -> Result<f64, f64> {
        if self.std_dev == 0.0 {
            return Err(if x >= self.mean { 1.0 } else { 0.0 });
        }
        let z = (x - self.mean) / (self.std_dev * SQRT_2);
        if z >= SATURATED_Z {
            Err(1.0)
        } else if z <= -SATURATED_Z {
            Err(0.0)
        } else {
            Ok(z)
        }
    }

    /// Draws one sample using the Box–Muller transform.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
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
        let variance = self.variance() + other.variance();
        Normal::new(self.mean + other.mean, variance.sqrt())
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
}

/// `0.5·(1 + erf(z))` from `erfc(z)`, with erf's own `1 − erfc`.
fn cdf_from_erfc(erfc_z: f64) -> f64 {
    0.5 * (1.0 + (1.0 - erfc_z))
}

/// How many erfc chains [`CdfBatch`] steps in lockstep.
const LANES: usize = 4;

/// Many [`Normal::cdf`] evaluations at once, each bit-identical to its own
/// call. Point masses and saturated tails are written at once; the rest wait
/// until [`flush`](Self::flush) sends them through erfc four lanes at a
/// time.
#[derive(Debug, Clone, Default)]
pub struct CdfBatch {
    /// `(slot, erf argument)` of every evaluation not yet written.
    pending: Vec<(usize, f64)>,
}

impl CdfBatch {
    /// Sets `out[slot]` to `normal.cdf(x)`, now or at the next flush.
    pub fn push(&mut self, out: &mut [f64], slot: usize, normal: &Normal, x: f64) {
        match normal.erf_arg(x) {
            Ok(z) => self.pending.push((slot, z)),
            Err(p) => out[slot] = p,
        }
    }

    /// Writes every pending evaluation into `out`.
    pub fn flush(&mut self, out: &mut [f64]) {
        for chunk in self.pending.chunks(LANES) {
            // A short last chunk runs only as wide as it is: a padding lane
            // would still pay for its `exp`.
            match chunk.len() {
                4 => write_lanes::<4>(chunk, out),
                3 => write_lanes::<3>(chunk, out),
                2 => write_lanes::<2>(chunk, out),
                _ => write_lanes::<1>(chunk, out),
            }
        }
        self.pending.clear();
    }
}

/// Evaluates `N` pending `(slot, erf argument)` pairs into `out` through one
/// `erfc_lanes::<N>` call.
fn write_lanes<const N: usize>(pending: &[(usize, f64)], out: &mut [f64]) {
    let erfc_z = erfc_lanes::<N>(std::array::from_fn(|l| pending[l].1));
    for (&(slot, _), c) in pending.iter().zip(erfc_z) {
        out[slot] = cdf_from_erfc(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_cdf_reference_points() {
        let n = Normal::new(0.0, 1.0);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.0) - 0.8413447460685429).abs() < 1e-10);
        assert!((n.cdf(-1.0) - 0.15865525393145707).abs() < 1e-10);
        assert!((n.cdf(1.959963984540054) - 0.975).abs() < 1e-9);
        // Shifted and scaled: the same points in units of σ around μ.
        let shifted = Normal::new(-2.0, 0.7);
        assert!((shifted.cdf(-2.0) - 0.5).abs() < 1e-12);
        assert!((shifted.cdf(-2.0 + 0.7 * 1.959963984540054) - 0.975).abs() < 1e-9);
        assert!((shifted.cdf(-2.0 - 0.7) - 0.15865525393145707).abs() < 1e-10);
    }

    /// The saturated tails are the unguarded formula's own values: on a
    /// dense sweep past ±5.5 (well inside the last argument that still
    /// rounds away from 0 or 1), at ±∞, and NaN stays NaN.
    #[test]
    fn cdf_equals_the_unguarded_formula_in_both_tails() {
        let n = Normal::new(3.0, 1.5);
        // erf(z) = 1 − erfc(z), as the unguarded formula always took it.
        let unguarded = |z: f64| 0.5 * (1.0 + (1.0 - erfc(z)));
        let x_of = |z: f64| 3.0 + z * (1.5 * SQRT_2);
        for i in 0..=345_000 {
            let z = 5.5 + i as f64 * 1e-4;
            for z in [z, -z] {
                let x = x_of(z);
                let exact = (x - 3.0) / (1.5 * SQRT_2);
                assert_eq!(
                    n.cdf(x).to_bits(),
                    unguarded(exact).to_bits(),
                    "z = {exact}"
                );
            }
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(n.cdf(x).to_bits(), unguarded(x).to_bits(), "x = {x}");
        }
        assert_eq!((n.cdf(f64::INFINITY), n.cdf(f64::NEG_INFINITY)), (1.0, 0.0));
        assert!(n.cdf(f64::NAN).is_nan());
    }

    /// A batch writes what one call per slot would, to the bit, whatever
    /// mix of point masses, saturated tails and erfc lanes it holds.
    #[test]
    fn a_batch_is_one_cdf_call_per_slot() {
        let mut rng = SimRng::seed_from(0xBA7C);
        let mut batch = CdfBatch::default();
        for len in [0usize, 1, 2, 3, 4, 5, 6, 9, 64] {
            let calls: Vec<(Normal, f64)> = (0..len)
                .map(|_| {
                    let sd = if rng.chance(0.2) {
                        0.0
                    } else {
                        rng.uniform_range(1.0, 1_500.0)
                    };
                    (
                        Normal::new(rng.uniform_range(0.0, 9_000.0), sd),
                        rng.uniform_range(-2_000.0, 20_000.0),
                    )
                })
                .collect();
            let mut out = vec![f64::NAN; len];
            for (slot, (normal, x)) in calls.iter().enumerate().rev() {
                batch.push(&mut out, slot, normal, *x);
            }
            batch.flush(&mut out);
            for ((normal, x), got) in calls.iter().zip(&out) {
                assert_eq!(got.to_bits(), normal.cdf(*x).to_bits(), "{normal:?} at {x}");
            }
        }
    }

    #[test]
    fn degenerate_distribution() {
        let n = Normal::new(5.0, 0.0);
        assert_eq!(n.cdf(4.9), 0.0);
        assert_eq!(n.cdf(5.0), 1.0);
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
