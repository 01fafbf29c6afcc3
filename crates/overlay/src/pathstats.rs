//! Per-path statistics `(NN_p, μ_p, σ_p²)`.
//!
//! The paper's subscription table stores, for every subscription reachable
//! from a broker, the number of downstream brokers on the path (`NN_p`) and
//! the mean and variance of the path's per-KB transmission rate
//! (`μ_p`, `σ_p²`), obtained by summing the independent per-link normals
//! (§3.2, §4.2). This module provides the composable representation of those
//! statistics and the delay estimate `fdl` of equation (4).

use bdps_stats::normal::Normal;
use bdps_types::time::Duration;

/// Statistics of the path from one broker to a subscriber's edge broker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStats {
    /// The number of brokers that still have to process the message after the
    /// current one — the paper's `NN_p`. Equal to the number of links on the
    /// path (each link ends at a broker that runs the processing module).
    pub downstream_brokers: u32,
    /// The distribution of the path's per-KB transmission rate in ms/KB —
    /// `TR_p ~ N(μ_p, σ_p²)`.
    pub rate: Normal,
}

impl PathStats {
    /// The statistics of the empty path (subscriber attached to the current
    /// broker): no downstream brokers and a degenerate zero rate.
    pub fn local() -> Self {
        PathStats {
            downstream_brokers: 0,
            rate: Normal::new(0.0, 0.0),
        }
    }

    /// Extends the path by one more link whose rate distribution is `link_rate`.
    pub fn extend(&self, link_rate: Normal) -> PathStats {
        PathStats {
            downstream_brokers: self.downstream_brokers + 1,
            rate: self.rate.add_independent(&link_rate),
        }
    }

    /// Builds the statistics of a path given its links' rate distributions in order.
    pub fn from_links<'a>(links: impl IntoIterator<Item = &'a Normal>) -> PathStats {
        links
            .into_iter()
            .fold(PathStats::local(), |acc, rate| acc.extend(*rate))
    }

    /// The number of links (hops) on the path.
    pub fn hops(&self) -> u32 {
        self.downstream_brokers
    }

    /// Mean per-KB rate of the path, `μ_p` (ms/KB).
    pub fn mean_rate(&self) -> f64 {
        self.rate.mean()
    }

    /// The distribution of the *propagation delay* (ms) of a message of
    /// `size_kb` kilobytes along this path: `size · TR_p`.
    pub fn propagation_delay_ms(&self, size_kb: f64) -> Normal {
        self.rate.scale(size_kb)
    }

    /// The paper's future-delay estimate `fdl(s_i, m)` (eq. 4) as a normal
    /// distribution in milliseconds: processing on every downstream broker
    /// plus the propagation delay, assuming zero scheduling delay downstream.
    pub fn future_delay_ms(&self, size_kb: f64, processing_delay: Duration) -> Normal {
        let processing_ms = processing_delay.as_millis_f64() * self.downstream_brokers as f64;
        self.propagation_delay_ms(size_kb).shift(processing_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_path_is_immediate() {
        let p = PathStats::local();
        assert_eq!(p.downstream_brokers, 0);
        assert_eq!(p.mean_rate(), 0.0);
        let pd = Duration::from_millis(2);
        assert_eq!(p.future_delay_ms(50.0, pd).mean(), 0.0);
    }

    #[test]
    fn extension_accumulates_means_and_variances() {
        let l1 = Normal::new(50.0, 20.0);
        let l2 = Normal::new(80.0, 20.0);
        let p = PathStats::local().extend(l1).extend(l2);
        assert_eq!(p.downstream_brokers, 2);
        assert_eq!(p.hops(), 2);
        assert!((p.mean_rate() - 130.0).abs() < 1e-9);
        assert!((p.rate.variance() - 800.0).abs() < 1e-9);
        let from_links = PathStats::from_links([&l1, &l2]);
        assert_eq!(from_links, p);
    }

    #[test]
    fn future_delay_includes_processing() {
        // Two downstream brokers, PD = 2 ms, 50 KB message over a path with
        // mean rate 100 ms/KB: mean future delay = 2*2 + 50*100 = 5004 ms.
        let p = PathStats::from_links([&Normal::new(40.0, 10.0), &Normal::new(60.0, 10.0)]);
        let d = p.future_delay_ms(50.0, Duration::from_millis(2));
        assert!((d.mean() - 5_004.0).abs() < 1e-9);
        // Variance scales with size^2: (10^2 + 10^2) * 50^2 = 500_000.
        assert!((d.variance() - 500_000.0).abs() < 1e-6);
    }
}
