//! Ablation: sensitivity of the EB strategy to bandwidth-estimation error.
//!
//! The paper assumes measurement reports the true `N(μ, σ²)` of every link.
//! Here the schedulers' believed parameters are systematically biased while
//! the network keeps behaving according to the true model.

use bdps_bench::{f1, ExperimentOptions};
use bdps_core::config::StrategyKind;
use bdps_net::measure::EstimationError;
use bdps_sim::engine::Simulation;
use bdps_sim::report::render_markdown_table;
use bdps_types::time::Duration;

fn main() {
    let opts = ExperimentOptions::from_args(&[]);
    println!(
        "{}",
        opts.banner("Ablation — bandwidth-estimation error (EB strategy, SSD, rate 12)")
    );

    let errors: Vec<(&str, EstimationError)> = vec![
        ("exact (paper assumption)", EstimationError::NONE),
        (
            "mean +25% (pessimistic)",
            EstimationError::relative(0.25, 0.0),
        ),
        (
            "mean -25% (optimistic)",
            EstimationError::relative(-0.25, 0.0),
        ),
        ("sigma x2", EstimationError::relative(0.0, 1.0)),
        ("sigma /2", EstimationError::relative(0.0, -0.5)),
        ("mean +50%, sigma x2", EstimationError::relative(0.5, 1.0)),
    ];

    let rows: Vec<Vec<String>> = errors
        .iter()
        .map(|(label, err)| {
            let r = Simulation::builder()
                .ssd(12.0)
                .duration(Duration::from_secs(opts.duration_secs))
                .strategy(StrategyKind::MaxEb)
                .estimation_error(*err)
                .seed(opts.seed)
                .run();
            vec![
                (*label).to_string(),
                f1(r.earning_k()),
                f1(r.delivery_rate_percent()),
                f1(r.message_number_k()),
                r.dropped_unlikely().to_string(),
            ]
        })
        .collect();

    println!(
        "{}",
        render_markdown_table(
            &[
                "estimation error",
                "earning (k)",
                "delivery rate (%)",
                "msg number (k)",
                "dropped unlikely"
            ],
            &rows
        )
    );
    println!("Expectation: moderate estimation error degrades EB only mildly (the ranking of messages is fairly robust); a strongly optimistic mean makes the epsilon test keep hopeless messages, wasting bandwidth.");
}
