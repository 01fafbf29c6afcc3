//! Ablation: seed-to-seed variability of the headline comparison.
//!
//! The metrics of §5 assume zero scheduling delay downstream (eq. 4); whether
//! that simplification hurts shows up as variance across independent runs.
//! This binary repeats the PSD rate-12 comparison over several seeds and
//! reports mean ± std of the delivery rate per strategy.

use bdps_bench::{f1, run_cells, ExperimentOptions, Selection, PAPER_STRATEGIES};
use bdps_sim::engine::Simulation;
use bdps_sim::report::render_markdown_table;
use bdps_sim::runner::SweepCell;
use bdps_stats::summary::Summary;
use bdps_types::time::Duration;

fn main() {
    let opts = ExperimentOptions::from_args(&[Selection::Strategies]);
    println!(
        "{}",
        opts.banner("Ablation — multi-seed variability of the PSD comparison (rate 12)")
    );

    let strategies = opts.strategies_or(&PAPER_STRATEGIES);
    let seeds: Vec<u64> = (0..5).map(|i| opts.seed + i).collect();
    let mut cells = Vec::new();
    for strategy in &strategies {
        for &seed in &seeds {
            cells.push(SweepCell {
                label: format!("{}#{}", strategy.label(), seed),
                builder: Simulation::builder()
                    .psd(12.0)
                    .duration(Duration::from_secs(opts.duration_secs))
                    .strategy(strategy.clone())
                    .seed(seed),
            });
        }
    }
    let results = run_cells(&cells, &opts);

    let rows: Vec<Vec<String>> = strategies
        .iter()
        .map(|s| {
            let mut delivery = Summary::new();
            let mut traffic = Summary::new();
            for (label, r) in &results {
                if label.starts_with(&format!("{}#", s.label())) {
                    delivery.observe(r.delivery_rate_percent());
                    traffic.observe(r.message_number_k());
                }
            }
            vec![
                s.label().to_string(),
                format!("{} ± {}", f1(delivery.mean()), f1(delivery.std_dev())),
                format!("{} ± {}", f1(traffic.mean()), f1(traffic.std_dev())),
            ]
        })
        .collect();

    println!(
        "{}",
        render_markdown_table(
            &[
                "strategy",
                "delivery rate (%) mean ± std",
                "msg number (k) mean ± std"
            ],
            &rows
        )
    );
    println!(
        "Runs per strategy: {}. The ordering EB ≈ PC > FIFO > RL should hold for every seed.",
        seeds.len()
    );
}
