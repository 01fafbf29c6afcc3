//! Arrival processes for workload generation.
//!
//! The paper states that "each publisher continuously publishes messages at a
//! certain rate", parameterised by the *publishing rate* (messages per
//! publisher per minute). The standard stochastic reading of continuous
//! publication is a Poisson process.

use crate::rng::SimRng;
use bdps_types::time::{Duration, SimTime};

/// A source of inter-arrival gaps, driving publication times in the simulator.
pub trait ArrivalProcess {
    /// The time gap until the next arrival after `now`.
    fn next_gap(&mut self, now: SimTime, rng: &mut SimRng) -> Duration;

    /// The long-run average rate in events per second.
    fn rate_per_sec(&self) -> f64;

    /// Convenience: generate all arrival instants in `[start, end)`.
    fn arrivals_in(&mut self, start: SimTime, end: SimTime, rng: &mut SimRng) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = start;
        loop {
            let gap = self.next_gap(t, rng);
            if gap == Duration::ZERO {
                // A zero rate (or zero gap) would loop forever; bail out.
                break;
            }
            t += gap;
            if t >= end {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// Poisson arrivals: exponential inter-arrival gaps with the given rate.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with the given rate in events per second.
    /// A rate of zero produces no arrivals.
    pub(crate) fn per_second(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec >= 0.0 && rate_per_sec.is_finite());
        PoissonArrivals { rate_per_sec }
    }

    /// Creates a Poisson process with the given rate in events per minute —
    /// the unit the paper uses for the publishing rate.
    pub fn per_minute(rate_per_min: f64) -> Self {
        Self::per_second(rate_per_min / 60.0)
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, _now: SimTime, rng: &mut SimRng) -> Duration {
        if self.rate_per_sec <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(rng.exponential(self.rate_per_sec))
    }

    fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_matches_count() {
        // Publishing rate 10 per minute over 2 hours -> about 1200 events.
        let mut proc = PoissonArrivals::per_minute(10.0);
        let mut rng = SimRng::seed_from(1);
        let arrivals = proc.arrivals_in(SimTime::ZERO, SimTime::from_secs(7200), &mut rng);
        let n = arrivals.len() as f64;
        assert!((n - 1200.0).abs() < 120.0, "n = {n}");
        assert!((proc.rate_per_sec() - 10.0 / 60.0).abs() < 1e-12);
        // Arrivals are strictly inside the interval and increasing.
        assert!(arrivals.windows(2).all(|w| w[0] < w[1]));
        assert!(arrivals.iter().all(|&t| t < SimTime::from_secs(7200)));
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut proc = PoissonArrivals::per_minute(0.0);
        let mut rng = SimRng::seed_from(2);
        assert!(proc
            .arrivals_in(SimTime::ZERO, SimTime::from_secs(100), &mut rng)
            .is_empty());
    }

    #[test]
    fn poisson_gap_mean_matches_rate() {
        let mut proc = PoissonArrivals::per_second(2.0);
        let mut rng = SimRng::seed_from(5);
        let n = 20_000;
        let mean_gap: f64 = (0..n)
            .map(|_| proc.next_gap(SimTime::ZERO, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean_gap - 0.5).abs() < 0.02, "mean gap = {mean_gap}");
    }
}
