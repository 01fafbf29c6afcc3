//! Rendering helpers: the paper's axis units and Markdown tables, read
//! straight from a [`SimulationOutcome`].

use crate::engine::{LinkLoad, SimulationOutcome};

impl SimulationOutcome {
    /// Renders the per-phase breakdown as a Markdown table (one row per
    /// phase; empty phases render zeros, never NaN).
    pub fn phase_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .phases
            .iter()
            .map(|p| {
                let delays = self.phase_delays_ms(p);
                vec![
                    p.label.clone(),
                    format!("{:.0}-{:.0}", p.start_s(), p.end_s()),
                    p.published.to_string(),
                    p.on_time.to_string(),
                    p.late.to_string(),
                    p.dropped.to_string(),
                    p.transmissions.to_string(),
                    format!("{:.1}", delays.mean()),
                    format!("{:.1}", delays.try_quantile(0.95).unwrap_or(0.0)),
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
        self.link_loads
            .iter()
            .map(|l| l.utilisation(self.finished_at))
            .fold(0.0, f64::max)
    }

    /// Renders the busiest links as a Markdown table (up to `top` rows,
    /// sorted by descending utilisation; ties break on the link index so the
    /// rendering is deterministic).
    pub fn link_table(&self, top: usize) -> String {
        let utilisation = |l: &LinkLoad| l.utilisation(self.finished_at);
        let mut links: Vec<(usize, &LinkLoad)> = self
            .link_loads
            .iter()
            .enumerate()
            .filter(|(_, l)| l.transmissions > 0)
            .collect();
        links.sort_by(|(i, a), (j, b)| {
            utilisation(b)
                .partial_cmp(&utilisation(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(j))
        });
        links.truncate(top);
        let rows: Vec<Vec<String>> = links
            .iter()
            .map(|(i, l)| {
                vec![
                    i.to_string(),
                    l.transmissions.to_string(),
                    l.completed_transfers.to_string(),
                    format!("{:.1}", utilisation(l) * 100.0),
                    format!("{:.2}", l.mean_concurrency()),
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
        self.tracker.delivery_rate() * 100.0
    }

    /// Earning in thousands (how the paper's Fig. 4a/5a axis is labelled).
    pub fn earning_k(&self) -> f64 {
        self.tracker.total_earning().as_f64() / 1_000.0
    }

    /// Message number in thousands (Fig. 5b/6b axis).
    pub fn message_number_k(&self) -> f64 {
        self.message_number() as f64 / 1_000.0
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

    /// A short run of the small mesh (or, with `secs` 0, a run that
    /// publishes nothing and finishes at t = 0).
    fn small_run(secs: u64) -> SimulationOutcome {
        use crate::engine::Simulation;
        use bdps_overlay::topology::LayeredMeshConfig;
        use bdps_types::time::Duration;
        Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(10.0)
            .duration(Duration::from_secs(secs))
            .drain_grace(Duration::from_secs(secs))
            .seed(3)
            .run()
    }

    #[test]
    fn report_unit_conversions() {
        let out = small_run(120);
        assert!(out.tracker.total_on_time() > 0, "the run must deliver");
        assert_eq!(
            out.delivery_rate_percent(),
            out.tracker.delivery_rate() * 100.0
        );
        assert_eq!(
            out.earning_k() * 1_000.0,
            out.tracker.total_earning().as_f64()
        );
        assert_eq!(
            out.message_number_k() * 1_000.0,
            out.message_number() as f64
        );
    }

    #[test]
    fn empty_phase_reports_zeros_not_nan() {
        use crate::engine::PhaseOutcome;
        use bdps_types::time::SimTime;
        // An all-links-down window: the phase saw traffic attempts but no
        // delivery at all. Every statistic must come out finite.
        let mut out = small_run(0);
        let mut phase = PhaseOutcome {
            label: "blackout".into(),
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
            published: 40,
            on_time: 0,
            late: 0,
            dropped: 12,
            transmissions: 0,
            delays_from: 0,
        };
        let delays = out.phase_delays_ms(&phase);
        assert_eq!(delays.mean(), 0.0);
        assert_eq!(delays.try_quantile(0.95), None);
        assert_eq!(phase.start_s(), 100.0);
        assert_eq!(phase.end_s(), 200.0);
        // A phase with deliveries reads its slice of the run's delay record.
        out.valid_delays_ms.extend([5.0, 100.0, 200.0, 300.0, 7.0]);
        (phase.delays_from, phase.on_time) = (1, 3);
        let delays = out.phase_delays_ms(&phase);
        assert_eq!(delays.values(), [100.0, 200.0, 300.0]);
        assert_eq!(delays.mean(), 200.0);
        assert!(delays.try_quantile(0.95) >= Some(200.0));
    }

    #[test]
    fn degenerate_zero_duration_run_reports_finite_numbers() {
        // A run whose publication period is zero seconds publishes nothing,
        // delivers nothing and finishes at t = 0 — every derived statistic
        // (delivery rate, delays, utilisation, phase tables) must come out
        // finite and render without NaN.
        let out = small_run(0);
        assert_eq!(out.published, 0);
        assert_eq!(out.tracker.total_interested(), 0);
        assert_eq!(out.delivery_rate_percent(), 0.0);
        assert_eq!(out.valid_delays_ms.mean(), 0.0);
        assert_eq!(out.max_link_utilisation(), 0.0);
        for phase in &out.phases {
            assert_eq!(out.phase_delays_ms(phase).count(), 0);
        }
        for link in &out.link_loads {
            assert!(link.utilisation(out.finished_at).is_finite());
            assert!(link.mean_concurrency().is_finite());
        }
        assert!(!out.phase_table().contains("NaN"));
        assert!(!out.link_table(5).contains("NaN"));
    }

    #[test]
    fn phase_table_renders_without_nan() {
        use crate::engine::PhaseOutcome;
        use bdps_types::time::SimTime;
        let mut out = small_run(0);
        let mut blackout = PhaseOutcome::new("blackout".into(), SimTime::ZERO, 0);
        blackout.end = SimTime::from_secs(10);
        out.phases = vec![blackout];
        let table = out.phase_table();
        assert!(table.contains("| blackout | 0-10 |"), "{table}");
        assert!(!table.contains("NaN"));
    }
}
