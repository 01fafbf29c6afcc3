//! Reproduces Figure 4: EB vs PC vs EBPC as the EB weight `r` varies.
//!
//! * Fig. 4(a) — SSD total earning (k) vs `r` at publishing rate 10.
//! * Fig. 4(b) — PSD delivery rate (%) vs `r` at publishing rate 10.
//!
//! EB and PC do not depend on `r`; they are run once each and reported as
//! horizontal reference lines, exactly as the paper plots them.
//!
//! Usage: `cargo run --release -p bdps-bench --bin fig4 [--full] [--seed N]`.

use bdps_bench::{f1, run_cells, series_table, ExperimentOptions};
use bdps_core::config::StrategyKind;
use bdps_sim::engine::Simulation;
use bdps_sim::runner::SweepCell;
use bdps_types::time::Duration;
use std::collections::HashMap;

const RATE: f64 = 10.0;
const R_VALUES: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

fn cells_for(ssd: bool, opts: &ExperimentOptions) -> Vec<SweepCell> {
    let base = |strategy: StrategyKind| {
        let b = Simulation::builder();
        let b = if ssd { b.ssd(RATE) } else { b.psd(RATE) };
        b.duration(Duration::from_secs(opts.duration_secs))
            .strategy(strategy)
            .seed(opts.seed)
    };
    let mut cells = vec![
        SweepCell {
            label: "EB".into(),
            config: base(StrategyKind::MaxEb).build_config(),
        },
        SweepCell {
            label: "PC".into(),
            config: base(StrategyKind::MaxPc).build_config(),
        },
    ];
    for r in R_VALUES {
        cells.push(SweepCell {
            label: format!("EBPC@r{}", (r * 100.0).round() as u32),
            config: base(StrategyKind::MaxEbpc).ebpc_weight(r).build_config(),
        });
    }
    cells
}

fn panel(ssd: bool, opts: &ExperimentOptions) -> String {
    let cells = cells_for(ssd, opts);
    let results = run_cells(&cells, opts);
    let by_label: HashMap<&str, _> = results
        .iter()
        .map(|(label, report)| (label.as_str(), report))
        .collect();
    let value = |r: &bdps_sim::report::SimulationReport| {
        if ssd {
            f1(r.earning_k())
        } else {
            f1(r.delivery_rate_percent())
        }
    };
    let xs: Vec<String> = R_VALUES
        .iter()
        .map(|r| format!("{}", (r * 100.0).round() as u32))
        .collect();
    series_table("r (%)", &xs, &["EBPC", "EB", "PC"], |i, s| match s {
        "EBPC" => {
            value(by_label[format!("EBPC@r{}", (R_VALUES[i] * 100.0).round() as u32).as_str()])
        }
        other => value(by_label[other]),
    })
}

fn main() {
    let opts = ExperimentOptions::from_args(&[]);
    println!(
        "{}",
        opts.banner("Figure 4 — EB / PC / EBPC comparison vs the EB weight r (publishing rate 10)")
    );

    println!("## Fig. 4(a) — SSD total earning (k) vs r\n");
    println!("{}", panel(true, &opts));

    println!("## Fig. 4(b) — PSD delivery rate (%) vs r\n");
    println!("{}", panel(false, &opts));

    println!("Shape checks (paper): PC below EB; EBPC ≥ EB for r in roughly (23%, 100%); EBPC(r=100%) == EB by construction.");
}
