//! Ablation: how the invalid-message detection threshold ε (§5.4, eq. 11)
//! affects earning and traffic under the EB strategy in the SSD scenario.

use bdps_bench::{f1, run_cells, ExperimentOptions};
use bdps_core::config::{InvalidDetection, StrategyKind};
use bdps_sim::engine::Simulation;
use bdps_sim::report::render_markdown_table;
use bdps_sim::runner::SweepCell;
use bdps_types::time::Duration;

fn main() {
    let opts = ExperimentOptions::from_args(&[]);
    println!(
        "{}",
        opts.banner("Ablation — invalid-message detection policy (EB strategy, SSD, rate 12)")
    );

    let policies: Vec<(&str, InvalidDetection)> = vec![
        ("off", InvalidDetection::Off),
        ("expired-only", InvalidDetection::ExpiredOnly),
        ("eps=0.05% (paper)", InvalidDetection::Epsilon(5e-4)),
        ("eps=1%", InvalidDetection::Epsilon(1e-2)),
        ("eps=5%", InvalidDetection::Epsilon(5e-2)),
    ];

    let cells: Vec<SweepCell> = policies
        .iter()
        .map(|(label, policy)| SweepCell {
            label: (*label).to_string(),
            config: Simulation::builder()
                .ssd(12.0)
                .duration(Duration::from_secs(opts.duration_secs))
                .strategy(StrategyKind::MaxEb)
                .invalid_detection(*policy)
                .seed(opts.seed)
                .build_config(),
        })
        .collect();

    let results = run_cells(&cells, &opts);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, r)| {
            vec![
                label.clone(),
                f1(r.earning_k()),
                f1(r.message_number_k()),
                r.dropped_expired.to_string(),
                r.dropped_unlikely.to_string(),
                f1(r.delivery_rate_percent()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_markdown_table(
            &[
                "policy",
                "earning (k)",
                "msg number (k)",
                "dropped expired",
                "dropped unlikely",
                "delivery rate (%)"
            ],
            &rows
        )
    );
    println!("Expectation: early deletion of hopeless messages should not reduce earning while trimming useless traffic; an overly aggressive epsilon starts cancelling deliverable messages.");
}
