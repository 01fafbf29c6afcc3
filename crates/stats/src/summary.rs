//! Streaming summaries for reporting.
//!
//! Experiment runs aggregate per-message delivery latencies, queue lengths
//! and per-cell results across seeds. These helpers provide the descriptive
//! statistics printed in EXPERIMENTS.md and by the figure binaries.

/// A summary of a set of observations kept in full (suitable for the modest
/// sample counts of a simulation run) with percentile support.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    values: Vec<f64>,
    sorted: bool,
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
            self.sorted = false;
        }
    }

    /// Adds many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.observe(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Returns true when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
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

    /// The `q`-quantile like [`quantile`](Self::quantile), but `None` when no
    /// observation has been recorded. Reporting code that must never emit NaN
    /// (e.g. a scenario phase during which every link was down and nothing
    /// was delivered) should use this and pick its own default.
    pub fn try_quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.quantile(q))
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
    /// statistics; NaN when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN stored"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let frac = pos - lo as f64;
            self.values[lo] * (1.0 - frac) + self.values[hi] * frac
        }
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
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
        assert_eq!(s.median(), 3.0);
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
        let mut s = Summary::new();
        assert!(s.is_empty());
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
