//! Result records and rendering helpers.

use bdps_core::strategy::StrategyHandle;

use crate::engine::{LinkLoad, PhaseOutcome, SimulationOutcome};
use crate::workload::{Scenario, WorkloadConfig};
use bdps_types::time::SimTime;

/// Per-phase metrics of one run, with NaN-free statistics: a phase during
/// which nothing was delivered (an all-links-down blackout, say) reports
/// zero delays rather than NaN percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// The phase label ("run", "burst", "blackout", ...).
    pub label: String,
    /// Phase start, in seconds of simulated time.
    pub start_s: f64,
    /// Phase end, in seconds of simulated time.
    pub end_s: f64,
    /// Messages published during the phase.
    pub published: u64,
    /// On-time deliveries during the phase.
    pub on_time: u64,
    /// Late deliveries during the phase.
    pub late: u64,
    /// Copies dropped during the phase.
    pub dropped: u64,
    /// Link transmissions started during the phase.
    pub transmissions: u64,
    /// Mean end-to-end delay of the phase's on-time deliveries in ms (0 when
    /// the phase delivered nothing).
    pub mean_valid_delay_ms: f64,
    /// 95th-percentile delay of the phase's on-time deliveries in ms (0 when
    /// the phase delivered nothing).
    pub p95_valid_delay_ms: f64,
}

impl PhaseReport {
    /// Converts an engine-side phase accumulator into its report row.
    pub fn from_outcome(phase: &PhaseOutcome) -> Self {
        let mut delays = phase.delays_ms.clone();
        PhaseReport {
            label: phase.label.clone(),
            start_s: phase.start.as_secs_f64(),
            end_s: phase.end.as_secs_f64(),
            published: phase.published,
            on_time: phase.on_time,
            late: phase.late,
            dropped: phase.dropped,
            transmissions: phase.transmissions,
            mean_valid_delay_ms: delays.mean(),
            p95_valid_delay_ms: delays.try_quantile(0.95).unwrap_or(0.0),
        }
    }
}

/// Per-link utilisation and queueing metrics of one run, derived from the
/// engine's [`LinkLoad`] counters. All fields are deterministic: the
/// underlying counters are integer microseconds, so the sharded executor
/// reproduces them bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// The link's index (see `Topology::graph`).
    pub link: usize,
    /// Transfers started on the link.
    pub transmissions: u64,
    /// Transfers that completed (not voided by a failure).
    pub completed_transfers: u64,
    /// Fraction of the run the link spent with at least one flow in flight
    /// (`busy_us / finished_at`). Under fair sharing a value near 1.0 means
    /// the link is saturated — the congestion signal delay-only links can
    /// never show.
    pub utilisation: f64,
    /// Mean number of concurrent flows while busy (`flow_time_us /
    /// busy_us`; exactly 1.0 under the exclusive constant-delay model).
    pub mean_concurrency: f64,
    /// Most flows ever in flight at once (≤ the fair-share admission cap;
    /// 0 or 1 under the exclusive model).
    pub peak_flows: u64,
    /// Deepest the sender's output queue for this link ever got, sampled at
    /// enqueue and requeue points.
    pub peak_queue: u64,
}

impl LinkReport {
    /// Converts an engine-side per-link accumulator into its report row.
    pub fn from_load(link: usize, load: &LinkLoad, finished_at: SimTime) -> Self {
        let total_us = finished_at.as_micros();
        let utilisation = if total_us > 0 {
            load.busy_us as f64 / total_us as f64
        } else {
            0.0
        };
        let mean_concurrency = if load.busy_us > 0 {
            load.flow_time_us as f64 / load.busy_us as f64
        } else {
            0.0
        };
        LinkReport {
            link,
            transmissions: load.transmissions,
            completed_transfers: load.completed_transfers,
            utilisation,
            mean_concurrency,
            peak_flows: load.peak_flows,
            peak_queue: load.peak_queue,
        }
    }
}

/// The flat record an experiment binary prints for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Strategy label ("EB", "PC", "EBPC", "FIFO", "RL").
    pub strategy: String,
    /// Scenario label ("PSD", "SSD", ...).
    pub scenario: String,
    /// Dynamic-scenario name ("static", "churn", "chaos", ...).
    pub dynamics: String,
    /// Publishing rate (messages per publisher per minute).
    pub publishing_rate: f64,
    /// The EBPC weight `r` (only meaningful for the EBPC strategy).
    pub ebpc_weight: f64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Number of messages published.
    pub published: u64,
    /// Σ ts_i — interested (message, subscriber) pairs.
    pub interested: u64,
    /// Σ ds_i — on-time deliveries.
    pub on_time: u64,
    /// Deliveries that arrived after their bound.
    pub late: u64,
    /// The delivery rate of eq. (1).
    pub delivery_rate: f64,
    /// The total earning of eq. (2), in price units.
    pub total_earning: f64,
    /// The paper's "message number": total messages received by all brokers.
    pub message_number: u64,
    /// Copies dropped because they expired.
    pub dropped_expired: u64,
    /// Copies dropped by the ε test (eq. 11).
    pub dropped_unlikely: u64,
    /// Copies dropped because every target unsubscribed mid-run.
    pub dropped_unsubscribed: u64,
    /// Copies requeued after their link failed mid-transfer.
    pub requeued: u64,
    /// Deliveries that reached the same (message, subscriber) pair twice —
    /// always 0 under single-path scoped forwarding; reported so regressions
    /// are loud.
    pub duplicate_deliveries: u64,
    /// Copies that crossed at least one link only to expand to zero members
    /// at their edge broker — the false-positive traffic of aggregate-scoped
    /// forwarding (always 0 under exact forwarding).
    pub false_positive_forwards: u64,
    /// Edge expansions that resolved zero members (includes the publisher's
    /// own broker; ≥ `false_positive_forwards`).
    pub false_positive_drops_at_edge: u64,
    /// Link transmissions performed.
    pub transmissions: u64,
    /// Mean end-to-end delay of on-time deliveries, in ms.
    pub mean_valid_delay_ms: f64,
    /// Per-phase breakdown (a single "run" phase for static scenarios).
    pub phases: Vec<PhaseReport>,
    /// Per-link utilisation/queueing breakdown, indexed by link id.
    pub links: Vec<LinkReport>,
}

impl SimulationReport {
    /// Builds a report from a finished simulation.
    pub fn from_outcome(
        outcome: &SimulationOutcome,
        strategy: &StrategyHandle,
        ebpc_weight: f64,
        scenario: Scenario,
        dynamics: &str,
        workload: &WorkloadConfig,
        seed: u64,
    ) -> Self {
        SimulationReport {
            strategy: strategy.label().to_owned(),
            scenario: scenario.label().to_owned(),
            dynamics: dynamics.to_owned(),
            publishing_rate: workload.publishing_rate_per_min,
            ebpc_weight,
            seed,
            published: outcome.published,
            interested: outcome.tracker.total_interested(),
            on_time: outcome.tracker.total_on_time(),
            late: outcome.tracker.total_late(),
            delivery_rate: outcome.tracker.delivery_rate(),
            total_earning: outcome.tracker.total_earning().as_f64(),
            message_number: outcome.message_number(),
            dropped_expired: outcome.dropped_expired(),
            dropped_unlikely: outcome.dropped_unlikely(),
            dropped_unsubscribed: outcome.dropped_unsubscribed(),
            requeued: outcome.requeued(),
            duplicate_deliveries: outcome.tracker.duplicate_deliveries(),
            false_positive_forwards: outcome.false_positive_forwards(),
            false_positive_drops_at_edge: outcome.false_positive_drops_at_edge(),
            transmissions: outcome.transmissions,
            mean_valid_delay_ms: outcome.valid_delays_ms.mean(),
            phases: outcome
                .phases
                .iter()
                .map(PhaseReport::from_outcome)
                .collect(),
            links: outcome
                .link_loads
                .iter()
                .enumerate()
                .map(|(i, load)| LinkReport::from_load(i, load, outcome.finished_at))
                .collect(),
        }
    }

    /// Renders the per-phase breakdown as a Markdown table (one row per
    /// phase; empty phases render zeros, never NaN).
    pub fn phase_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| {
                vec![
                    p.label.clone(),
                    format!("{:.0}-{:.0}", p.start_s, p.end_s),
                    p.published.to_string(),
                    p.on_time.to_string(),
                    p.late.to_string(),
                    p.dropped.to_string(),
                    p.transmissions.to_string(),
                    format!("{:.1}", p.mean_valid_delay_ms),
                    format!("{:.1}", p.p95_valid_delay_ms),
                ]
            })
            .collect();
        render_markdown_table(
            &[
                "phase",
                "t (s)",
                "published",
                "on-time",
                "late",
                "dropped",
                "sent",
                "mean ms",
                "p95 ms",
            ],
            &rows,
        )
    }

    /// The highest per-link utilisation of the run (0 when the run had no
    /// links or never transmitted) — the saturation headline of congestion
    /// sweeps.
    pub fn max_link_utilisation(&self) -> f64 {
        self.links.iter().map(|l| l.utilisation).fold(0.0, f64::max)
    }

    /// Renders the busiest links as a Markdown table (up to `top` rows,
    /// sorted by descending utilisation; ties break on the link index so the
    /// rendering is deterministic).
    pub fn link_table(&self, top: usize) -> String {
        let mut links: Vec<&LinkReport> =
            self.links.iter().filter(|l| l.transmissions > 0).collect();
        links.sort_by(|a, b| {
            b.utilisation
                .partial_cmp(&a.utilisation)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.link.cmp(&b.link))
        });
        links.truncate(top);
        let rows: Vec<Vec<String>> = links
            .iter()
            .map(|l| {
                vec![
                    l.link.to_string(),
                    l.transmissions.to_string(),
                    l.completed_transfers.to_string(),
                    format!("{:.1}", l.utilisation * 100.0),
                    format!("{:.2}", l.mean_concurrency),
                    l.peak_flows.to_string(),
                    l.peak_queue.to_string(),
                ]
            })
            .collect();
        render_markdown_table(
            &[
                "link",
                "sent",
                "completed",
                "util %",
                "mean flows",
                "peak flows",
                "peak queue",
            ],
            &rows,
        )
    }

    /// Delivery rate in percent (how the paper's Fig. 4b/6a axis is labelled).
    pub fn delivery_rate_percent(&self) -> f64 {
        self.delivery_rate * 100.0
    }

    /// Earning in thousands (how the paper's Fig. 4a/5a axis is labelled).
    pub fn earning_k(&self) -> f64 {
        self.total_earning / 1_000.0
    }

    /// Message number in thousands (Fig. 5b/6b axis).
    pub fn message_number_k(&self) -> f64 {
        self.message_number as f64 / 1_000.0
    }
}

/// Renders rows as a GitHub-flavoured Markdown table.
pub fn render_markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let rows = vec![
            vec!["3".to_string(), "70.1".to_string(), "69.9".to_string()],
            vec!["6".to_string(), "65.0".to_string(), "55.2".to_string()],
        ];
        let t = render_markdown_table(&["rate", "EB", "FIFO"], &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| rate | EB | FIFO |");
        assert_eq!(lines[1], "|---|---|---|");
        assert!(lines[2].starts_with("| 3 |"));
    }

    fn sample_report() -> SimulationReport {
        SimulationReport {
            strategy: "EB".into(),
            scenario: "SSD".into(),
            dynamics: "static".into(),
            publishing_rate: 10.0,
            ebpc_weight: 0.5,
            seed: 1,
            published: 100,
            interested: 400,
            on_time: 200,
            late: 20,
            delivery_rate: 0.5,
            total_earning: 150_000.0,
            message_number: 120_000,
            dropped_expired: 5,
            dropped_unlikely: 7,
            dropped_unsubscribed: 0,
            requeued: 0,
            duplicate_deliveries: 0,
            false_positive_forwards: 0,
            false_positive_drops_at_edge: 0,
            transmissions: 90_000,
            mean_valid_delay_ms: 4_200.0,
            phases: Vec::new(),
            links: Vec::new(),
        }
    }

    #[test]
    fn report_unit_conversions() {
        let r = sample_report();
        assert_eq!(r.delivery_rate_percent(), 50.0);
        assert_eq!(r.earning_k(), 150.0);
        assert_eq!(r.message_number_k(), 120.0);
    }

    #[test]
    fn empty_phase_reports_zeros_not_nan() {
        use crate::engine::PhaseOutcome;
        use bdps_types::time::SimTime;
        // An all-links-down window: the phase saw traffic attempts but no
        // delivery at all. Every statistic must come out finite.
        let mut phase = PhaseOutcome {
            label: "blackout".into(),
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
            published: 40,
            on_time: 0,
            late: 0,
            dropped: 12,
            transmissions: 0,
            delays_ms: bdps_stats::summary::Summary::new(),
        };
        let report = PhaseReport::from_outcome(&phase);
        assert_eq!(report.mean_valid_delay_ms, 0.0);
        assert_eq!(report.p95_valid_delay_ms, 0.0);
        assert!(report.mean_valid_delay_ms.is_finite());
        assert!(report.p95_valid_delay_ms.is_finite());
        assert_eq!(report.start_s, 100.0);
        assert_eq!(report.end_s, 200.0);
        // A phase with deliveries reports real statistics.
        phase.delays_ms.extend([100.0, 200.0, 300.0]);
        phase.on_time = 3;
        let report = PhaseReport::from_outcome(&phase);
        assert_eq!(report.mean_valid_delay_ms, 200.0);
        assert!(report.p95_valid_delay_ms >= 200.0);
    }

    #[test]
    fn degenerate_zero_duration_run_reports_finite_numbers() {
        // A run whose publication period is zero seconds publishes nothing,
        // delivers nothing and finishes at t = 0 — every derived statistic
        // (delivery rate, delays, utilisation, phase tables) must come out
        // finite and render without NaN.
        use crate::engine::Simulation;
        use bdps_overlay::topology::LayeredMeshConfig;
        use bdps_types::time::Duration;
        let report = Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(10.0)
            .duration(Duration::ZERO)
            .drain_grace(Duration::ZERO)
            .seed(3)
            .report();
        assert_eq!(report.published, 0);
        assert_eq!(report.interested, 0);
        assert!(report.delivery_rate.is_finite());
        assert_eq!(report.delivery_rate, 0.0);
        assert!(report.mean_valid_delay_ms.is_finite());
        assert!(report.max_link_utilisation().is_finite());
        assert_eq!(report.max_link_utilisation(), 0.0);
        for phase in &report.phases {
            assert!(phase.mean_valid_delay_ms.is_finite());
            assert!(phase.p95_valid_delay_ms.is_finite());
        }
        for link in &report.links {
            assert!(link.utilisation.is_finite());
            assert!(link.mean_concurrency.is_finite());
        }
        assert!(!report.phase_table().contains("NaN"));
        assert!(!report.link_table(5).contains("NaN"));
    }

    #[test]
    fn phase_table_renders_without_nan() {
        let mut r = sample_report();
        r.phases = vec![PhaseReport {
            label: "blackout".into(),
            start_s: 0.0,
            end_s: 10.0,
            published: 0,
            on_time: 0,
            late: 0,
            dropped: 0,
            transmissions: 0,
            mean_valid_delay_ms: 0.0,
            p95_valid_delay_ms: 0.0,
        }];
        let table = r.phase_table();
        assert!(table.contains("blackout"));
        assert!(!table.contains("NaN"));
    }
}
