//! Directed overlay links.
//!
//! Overlay links connect two brokers over a TCP connection of the underlying
//! Internet (paper §3.1). Each direction has its own bandwidth model because
//! Internet paths are asymmetric; the topology builders of `bdps-overlay`
//! create one [`Link`] per direction.

use crate::bandwidth::{AnyBandwidth, BandwidthModel, NormalRate};
use bdps_stats::normal::Normal;
use bdps_stats::rng::SimRng;
use bdps_types::id::{BrokerId, LinkId};
use bdps_types::time::Duration;

/// The quality of one link: its bandwidth model. The paper folds
/// propagation latency into the per-KB rate, so there is no separate term.
#[derive(Debug, Clone)]
pub struct LinkQuality {
    /// The bandwidth model governing per-message transfer times.
    pub bandwidth: AnyBandwidth,
}

impl LinkQuality {
    /// Creates a link quality from a bandwidth model.
    pub fn new(bandwidth: impl Into<AnyBandwidth>) -> Self {
        LinkQuality {
            bandwidth: bandwidth.into(),
        }
    }

    /// The paper's randomly drawn link quality (mean rate U\[50,100\] ms/KB, σ = 20 ms/KB).
    pub fn paper_random(rng: &mut SimRng) -> Self {
        LinkQuality::new(NormalRate::paper_random(rng))
    }

    /// The per-KB rate distribution the scheduler should use.
    pub fn rate_distribution(&self) -> Normal {
        self.bandwidth.rate_distribution()
    }

    /// Samples the transfer (serialisation) time of a message of `size_kb`
    /// kilobytes.
    pub fn sample_transfer(&self, size_kb: f64, rng: &mut SimRng) -> Duration {
        Duration::from_millis_f64(self.bandwidth.sample_transfer_ms(size_kb, rng))
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

    #[test]
    fn paper_random_quality_is_in_range() {
        let mut rng = SimRng::seed_from(2);
        let q = LinkQuality::paper_random(&mut rng);
        let d = q.rate_distribution();
        assert!((50.0..100.0).contains(&d.mean()));
    }
}
