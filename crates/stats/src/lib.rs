//! # bdps-stats
//!
//! The probability / statistics substrate of BDPS. The paper's scheduling
//! strategies are built entirely on top of a stochastic link model: the
//! transmission rate of every overlay link is a normal random variable, path
//! rates are sums of independent normals, and the Expected Benefit of a
//! message is a sum of normal tail probabilities. This crate provides:
//!
//! * [`normal`] — the normal distribution (cdf over a from-scratch
//!   complementary error function, sampling, closure under addition and
//!   positive scaling, truncation at zero);
//! * [`process`] — the Poisson arrival process used by workload generators;
//! * [`rng`] — a seedable, reproducible RNG wrapper shared by all crates;
//! * [`summary`] — streaming summaries for reporting simulation results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod erf;
pub mod normal;
pub mod process;
pub mod rng;
pub mod summary;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::rng::SimRng;
}
