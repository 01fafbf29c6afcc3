//! Compares all five paper strategies (EB, PC, EBPC, FIFO, RL) plus the
//! built-in `WeightedComposite` on the paper's topology under a congesting
//! PSD workload, using the fluent builder and the parallel sweep runner.
//!
//! Run with: `cargo run --release --example strategy_comparison`

use bdps::prelude::*;
use bdps::sim::runner::{sweep, SweepCell};

fn main() {
    let rate = 12.0;
    let mut strategies: Vec<StrategyHandle> =
        StrategyKind::ALL.iter().map(|&s| s.resolve()).collect();
    strategies.push(StrategyHandle::new(WeightedComposite::default()));

    let cells: Vec<SweepCell> = strategies
        .iter()
        .map(|strategy| SweepCell {
            label: strategy.label().to_string(),
            builder: Simulation::builder()
                .psd(rate)
                .duration(Duration::from_secs(600))
                .strategy(strategy.clone())
                .seed(2026),
        })
        .collect();

    println!("PSD scenario, publishing rate {rate} msgs/min/publisher, 10-minute run\n");
    println!(
        "{:10} {:>14} {:>16} {:>18} {:>18}",
        "strat", "delivery (%)", "msg number", "dropped expired", "dropped unlikely"
    );
    for (label, outcome) in sweep(&cells, 4) {
        println!(
            "{:10} {:>14.1} {:>16} {:>18} {:>18}",
            label,
            outcome.delivery_rate_percent(),
            outcome.message_number(),
            outcome.dropped_expired(),
            outcome.dropped_unlikely()
        );
    }
    println!(
        "\nExpected ordering under congestion: EB ≈ EBPC ≥ PC > FIFO > RL (the paper's Fig. 6a)."
    );
}
