//! Streaming summaries for reporting.
//!
//! Experiment runs aggregate per-message delivery latencies, queue lengths
//! and per-cell results across seeds. These helpers provide the descriptive
//! statistics the outcome tables and the figure binaries print.

/// A summary of a set of observations kept in full (suitable for the modest
/// sample counts of a simulation run) with percentile support.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation (non-finite values are ignored).
    pub fn observe(&mut self, x: f64) {
        if x.is_finite() {
            self.values.push(x);
        }
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.observe(x);
        }
    }

    /// The observations, in the order they were recorded.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub(crate) fn variance(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        self.values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (self.values.len() - 1) as f64
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (NaN when empty).
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Maximum observation (NaN when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// The `q`-quantile like `quantile`, but `None` when no
    /// observation has been recorded. Reporting code that must never emit NaN
    /// (e.g. a scenario phase during which every link was down and nothing
    /// was delivered) should use this and pick its own default.
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.quantile(q))
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
    /// statistics; NaN when empty. Reads a sorted copy, so the summary (and
    /// every equality over it) is left as it was.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_statistics() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.variance() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert!((s.quantile(0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let mut s = Summary::new();
        s.extend([1.0, f64::NAN, f64::INFINITY, 3.0]);
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.quantile(0.5).is_nan());
        assert!(s.min().is_nan());
        // The NaN-free accessor reports absence instead.
        assert_eq!(s.try_quantile(0.5), None);
    }

    #[test]
    fn try_quantile_matches_quantile_when_non_empty() {
        let mut s = Summary::new();
        s.extend([4.0, 1.0, 3.0]);
        assert_eq!(s.try_quantile(0.5), Some(3.0));
    }
}
