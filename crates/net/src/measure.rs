//! Bandwidth-estimation error.
//!
//! The paper assumes each broker estimates the `N(μ, σ²)` parameters of every
//! outgoing link "by some tools of network measurement" and then schedules
//! against the *estimated* distribution. [`EstimationError`] deliberately
//! perturbs the estimate so that the `ablation_estimation` experiment can
//! quantify how sensitive the EB/PC/EBPC strategies are to mis-estimated link
//! parameters.

use bdps_stats::normal::Normal;

/// A deliberate perturbation of estimated link parameters (for ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationError {
    /// Relative bias applied to the mean (+0.2 → the scheduler believes links
    /// are 20 % slower than they really are).
    pub mean_bias: f64,
    /// Relative bias applied to the standard deviation.
    pub std_bias: f64,
}

impl EstimationError {
    /// No error: the scheduler sees the true parameters (the paper's setting).
    pub const NONE: EstimationError = EstimationError {
        mean_bias: 0.0,
        std_bias: 0.0,
    };

    /// Creates a relative error specification.
    pub fn relative(mean_bias: f64, std_bias: f64) -> Self {
        EstimationError {
            mean_bias,
            std_bias,
        }
    }

    /// Applies the error to a true distribution, producing what the scheduler
    /// will believe. The standard deviation is floored at zero.
    pub fn apply(&self, true_rate: Normal) -> Normal {
        let mean = true_rate.mean() * (1.0 + self.mean_bias);
        let std = (true_rate.std_dev() * (1.0 + self.std_bias)).max(0.0);
        Normal::new(mean.max(0.0), std)
    }

    /// Returns true when no perturbation is applied.
    pub fn is_none(&self) -> bool {
        self.mean_bias == 0.0 && self.std_bias == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimation_error_biases_parameters() {
        let true_rate = Normal::new(100.0, 20.0);
        let err = EstimationError::relative(0.2, -0.5);
        let believed = err.apply(true_rate);
        assert!((believed.mean() - 120.0).abs() < 1e-9);
        assert!((believed.std_dev() - 10.0).abs() < 1e-9);
        assert!(!err.is_none());
        assert!(EstimationError::NONE.is_none());
        let same = EstimationError::NONE.apply(true_rate);
        assert_eq!(same.mean(), 100.0);
        assert_eq!(same.std_dev(), 20.0);
    }

    #[test]
    fn estimation_error_floors_at_zero() {
        let true_rate = Normal::new(100.0, 20.0);
        let err = EstimationError::relative(-2.0, -2.0);
        let believed = err.apply(true_rate);
        assert_eq!(believed.mean(), 0.0);
        assert_eq!(believed.std_dev(), 0.0);
    }
}
