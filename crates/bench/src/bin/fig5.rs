//! Reproduces Figure 5: performance comparison in the SSD scenario.
//!
//! * Fig. 5(a) — total earning (k) vs publishing rate for EB, PC, FIFO, RL.
//! * Fig. 5(b) — message number (k, total receptions at all brokers) vs rate.
//!
//! Usage: `cargo run --release -p bdps-bench --bin fig5 [--full] [--seed N]
//! [--strategies eb,pc,fifo,rl,composite]`.

use bdps_bench::{
    f1, run_cells, series_table, ExperimentOptions, Selection, PAPER_RATES, PAPER_STRATEGIES,
};
use bdps_sim::runner::strategy_rate_grid_with;
use std::collections::HashMap;

fn main() {
    let opts = ExperimentOptions::from_args(&[Selection::Strategies]);
    println!(
        "{}",
        opts.banner("Figure 5 — SSD scenario: earning and message number vs publishing rate")
    );

    let strategies = opts.strategies_or(&PAPER_STRATEGIES);
    let cells = strategy_rate_grid_with(
        &strategies,
        &PAPER_RATES,
        true,
        opts.duration_secs,
        opts.seed,
    );
    let results = run_cells(&cells, &opts);
    let by_label: HashMap<&str, _> = results
        .iter()
        .map(|(label, report)| (label.as_str(), report))
        .collect();

    let labels: Vec<&str> = strategies.iter().map(|s| s.label()).collect();
    let xs: Vec<String> = PAPER_RATES.iter().map(|r| format!("{r}")).collect();

    println!("## Fig. 5(a) — total earning (k)\n");
    println!(
        "{}",
        series_table("publishing rate", &xs, &labels, |i, s| {
            let key = format!("{s}@rate{}", PAPER_RATES[i]);
            f1(by_label[key.as_str()].earning_k())
        })
    );

    println!("## Fig. 5(b) — message number (k)\n");
    println!(
        "{}",
        series_table("publishing rate", &xs, &labels, |i, s| {
            let key = format!("{s}@rate{}", PAPER_RATES[i]);
            f1(by_label[key.as_str()].message_number_k())
        })
    );

    // The paper's headline claims at rate 15 (only meaningful with the
    // default strategy set).
    let at = |s: &str| by_label.get(format!("{s}@rate15").as_str()).copied();
    if let (Some(eb), Some(fifo), Some(rl)) = (at("EB"), at("FIFO"), at("RL")) {
        println!("## Shape checks (paper: EB earns ~5x FIFO and ~10x RL at rate 15; EB traffic ~+23% vs FIFO, ~+64% vs RL)\n");
        println!(
            "- earning ratio EB/FIFO = {:.2}, EB/RL = {:.2}",
            eb.total_earning / fifo.total_earning.max(1e-9),
            eb.total_earning / rl.total_earning.max(1e-9)
        );
        println!(
            "- traffic overhead EB vs FIFO = {:+.1}%, EB vs RL = {:+.1}%",
            100.0 * (eb.message_number as f64 / fifo.message_number.max(1) as f64 - 1.0),
            100.0 * (eb.message_number as f64 / rl.message_number.max(1) as f64 - 1.0)
        );
    }
}
