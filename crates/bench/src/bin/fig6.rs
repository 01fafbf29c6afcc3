//! Reproduces Figure 6: performance comparison in the PSD scenario.
//!
//! * Fig. 6(a) — delivery rate (%) vs publishing rate for EB, PC, FIFO, RL.
//! * Fig. 6(b) — message number (k) vs rate.
//!
//! Usage: `cargo run --release -p bdps-bench --bin fig6 [--full] [--seed N]
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
        opts.banner("Figure 6 — PSD scenario: delivery rate and message number vs publishing rate")
    );

    let strategies = opts.strategies_or(&PAPER_STRATEGIES);
    let cells = strategy_rate_grid_with(
        &strategies,
        &PAPER_RATES,
        false,
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

    println!("## Fig. 6(a) — delivery rate (%)\n");
    println!(
        "{}",
        series_table("publishing rate", &xs, &labels, |i, s| {
            let key = format!("{s}@rate{}", PAPER_RATES[i]);
            f1(by_label[key.as_str()].delivery_rate_percent())
        })
    );

    println!("## Fig. 6(b) — message number (k)\n");
    println!(
        "{}",
        series_table("publishing rate", &xs, &labels, |i, s| {
            let key = format!("{s}@rate{}", PAPER_RATES[i]);
            f1(by_label[key.as_str()].message_number_k())
        })
    );

    let at = |s: &str| by_label.get(format!("{s}@rate15").as_str()).copied();
    if let (Some(eb), Some(fifo), Some(rl)) = (at("EB"), at("FIFO"), at("RL")) {
        println!("## Shape checks (paper at rate 15: delivery rates EB 40.1%, FIFO 22.5%, RL 11.6%; EB traffic ~+17% vs FIFO, ~+60% vs RL)\n");
        println!(
            "- delivery rates: EB {:.1}%, FIFO {:.1}%, RL {:.1}%",
            eb.delivery_rate_percent(),
            fifo.delivery_rate_percent(),
            rl.delivery_rate_percent()
        );
        println!(
            "- traffic overhead EB vs FIFO = {:+.1}%, EB vs RL = {:+.1}%",
            100.0 * (eb.message_number as f64 / fifo.message_number.max(1) as f64 - 1.0),
            100.0 * (eb.message_number as f64 / rl.message_number.max(1) as f64 - 1.0)
        );
    }
}
