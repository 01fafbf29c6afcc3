//! # bdps-stats
//!
//! The probability / statistics substrate of BDPS. The paper's scheduling
//! strategies are built entirely on top of a stochastic link model: the
//! transmission rate of every overlay link is a normal random variable, path
//! rates are sums of independent normals, and the Expected Benefit of a
//! message is a sum of normal tail probabilities. This crate provides:
//!
//! * special functions ([`mod@erf`]) — error function, complementary error
//!   function and the inverse error function, implemented from scratch;
//! * [`normal`] — the normal distribution (pdf, cdf, quantile, sampling,
//!   closure under addition and positive scaling, truncation at zero);
//! * [`process`] — the Poisson arrival process used by workload generators;
//! * [`rng`] — a seedable, reproducible RNG wrapper shared by all crates;
//! * [`summary`] — streaming summaries for reporting simulation results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod erf;
pub mod normal;
pub mod process;
pub mod rng;
pub mod summary;

pub use erf::{erf, erfc, inverse_erf};
pub use normal::Normal;
pub use process::{ArrivalProcess, PoissonArrivals};
pub use rng::SimRng;
pub use summary::Summary;

/// Convenience prelude re-exporting the most common items.
pub mod prelude {
    pub use crate::erf::{erf, erfc, inverse_erf};
    pub use crate::normal::Normal;
    pub use crate::process::{ArrivalProcess, PoissonArrivals};
    pub use crate::rng::SimRng;
    pub use crate::summary::Summary;
}
