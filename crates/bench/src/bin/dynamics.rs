//! Beyond the paper: the five strategies under dynamic scenarios.
//!
//! The paper evaluates a stationary system; this binary compares the same
//! strategies under subscription churn, flash-crowd bursts, link failures
//! and a full blackout — the regimes where delay-aware scheduling should
//! differentiate most. Every cell is one simulation with the scenario's
//! randomness derived from the cell seed, so the whole table is reproducible.
//!
//! With `--link-model constant,fair-share` the sweep is crossed with the
//! network layer's [`LinkModelKind`] axis: the paper's exclusive
//! constant-delay links versus flow-level fair bandwidth sharing. A
//! congestion summary then reports, per model, the highest per-link
//! utilisation and the busiest links of the flash-crowd cell — the
//! fig5-style view of which strategies survive a saturated mesh.
//!
//! With `--forwarding exact,aggregate` every strategy × scenario cell is
//! additionally run under aggregate-scoped forwarding, and an **on-time
//! delivery** comparison table reports both
//! modes' counts per cell — the QoS-fidelity view of the aggregation
//! trade-off, now that aggregate entries carry QoS envelopes (interior
//! copies are ranked and shed by their edge group's deadline/earning
//! bounds instead of degrading to FIFO under saturation).
//!
//! Usage: `cargo run --release -p bdps-bench --bin dynamics [--full]
//! [--seed N] [--rate R] [--strategies eb,pc,fifo,rl,ebpc]
//! [--scenarios static,churn,flash-crowd,link-flap,blackout,chaos]
//! [--link-model constant,fair-share] [--forwarding exact,aggregate]`.

use bdps_bench::{f1, flags_help, run_cells, ArgParser, ExperimentOptions, Selection};
use bdps_core::config::StrategyKind;
use bdps_sim::prelude::*;
use bdps_types::time::Duration;
use std::collections::HashMap;

const DEFAULT_SCENARIOS: [&str; 5] = ["static", "churn", "flash-crowd", "link-flap", "chaos"];

/// The shared selection flags this binary reads: all of them.
const SELECTIONS: [Selection; 3] = [
    Selection::Strategies,
    Selection::Scenarios,
    Selection::LinkModels,
];

struct DynamicsOptions {
    common: ExperimentOptions,
    /// SSD-scenario publishing rate (msgs/min). The congestion sweeps
    /// raise this to push links into saturation.
    rate: f64,
    /// Forwarding modes selected with `--forwarding`. When `aggregate` is
    /// present, every strategy × scenario cell also runs under
    /// aggregate-scoped forwarding and the on-time
    /// comparison section is printed.
    forwardings: Vec<ForwardingMode>,
}

impl DynamicsOptions {
    fn from_args() -> Self {
        let mut parser = ArgParser::from_env();
        let mut opts = DynamicsOptions {
            common: ExperimentOptions::default(),
            rate: 10.0,
            forwardings: vec![ForwardingMode::Exact],
        };
        let result = (|| -> Result<(), String> {
            while let Some(flag) = parser.next_flag() {
                if opts.common.apply(&flag, &mut parser, &SELECTIONS)? {
                    continue;
                }
                match flag.as_str() {
                    "--rate" => {
                        opts.rate = parser.parse_value(&flag)?;
                        if !opts.rate.is_finite() || opts.rate <= 0.0 {
                            return Err("--rate must be a positive rate".to_string());
                        }
                    }
                    "--forwarding" => {
                        opts.forwardings = parser
                            .list_value(&flag, "mode")?
                            .iter()
                            .map(|name| {
                                ForwardingMode::from_name(name).ok_or_else(|| {
                                    format!(
                                        "unknown forwarding mode {name:?}; known: exact, aggregate"
                                    )
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                    }
                    _ => {
                        return Err(format!(
                            "unknown flag {flag:?}; known: {} | --rate <msgs/min> \
                             | --forwarding <exact,aggregate>",
                            flags_help(&SELECTIONS)
                        ))
                    }
                }
            }
            Ok(())
        })();
        if let Err(message) = result {
            eprintln!("{message}");
            std::process::exit(2);
        }
        opts
    }
}

fn main() {
    let opts = DynamicsOptions::from_args();
    println!(
        "{}",
        opts.common
            .banner("Dynamics — strategy comparison under churn, bursts and link failures")
    );

    let strategies = opts.common.strategies_or(&[
        StrategyKind::MaxEb,
        StrategyKind::MaxPc,
        StrategyKind::MaxEbpc,
        StrategyKind::Fifo,
        StrategyKind::RemainingLifetime,
    ]);
    let scenarios = opts.common.scenarios_or(&DEFAULT_SCENARIOS);
    let link_models = opts.common.link_models_or(&[LinkModelKind::Constant]);

    let aggregate = opts.forwardings.contains(&ForwardingMode::Aggregate);

    let mut cells = Vec::new();
    for &model in &link_models {
        for scenario in &scenarios {
            for strategy in &strategies {
                let base = Simulation::builder()
                    .ssd(opts.rate)
                    .duration(Duration::from_secs(opts.common.duration_secs))
                    .strategy(strategy.clone())
                    .scenario(scenario.clone())
                    .link_model(model)
                    .seed(opts.common.seed);
                cells.push(SweepCell {
                    label: format!("{}@{}#{}", strategy.label(), scenario.name, model.name()),
                    builder: base.clone(),
                });
                if aggregate {
                    // The envelope-aware twin: the same cell under
                    // aggregate-scoped forwarding, so its on-time count is
                    // directly comparable to the exact cell above.
                    cells.push(SweepCell {
                        label: format!(
                            "{}@{}#{}!aggregate",
                            strategy.label(),
                            scenario.name,
                            model.name()
                        ),
                        builder: base.forwarding(ForwardingMode::Aggregate),
                    });
                }
            }
        }
    }
    let results = run_cells(&cells, &opts.common);
    let by_label: HashMap<&str, &SimulationOutcome> = results
        .iter()
        .map(|(label, outcome)| (label.as_str(), outcome))
        .collect();

    let strategy_labels: Vec<&str> = strategies.iter().map(|s| s.label()).collect();
    let scenario_names: Vec<String> = scenarios.iter().map(|s| s.name.clone()).collect();

    for &model in &link_models {
        let suffix = if link_models.len() > 1 {
            format!(" — {model} links")
        } else {
            String::new()
        };

        println!("## Delivery rate (%) by scenario{suffix}\n");
        println!(
            "{}",
            bdps_bench::series_table("scenario", &scenario_names, &strategy_labels, |i, s| {
                let key = format!("{s}@{}#{}", scenarios[i].name, model.name());
                f1(by_label[key.as_str()].delivery_rate_percent())
            })
        );

        println!("## Total earning (k) by scenario{suffix}\n");
        println!(
            "{}",
            bdps_bench::series_table("scenario", &scenario_names, &strategy_labels, |i, s| {
                let key = format!("{s}@{}#{}", scenarios[i].name, model.name());
                f1(by_label[key.as_str()].earning_k())
            })
        );

        // The QoS-fidelity view of aggregation: per-cell on-time counts
        // under exact vs aggregate forwarding. Before aggregate entries
        // carried QoS envelopes, the aggregate column collapsed toward
        // FIFO under saturation; the ratio is the regime to watch.
        if aggregate {
            println!("## On-time deliveries by forwarding mode{suffix}\n");
            let mut rows = Vec::new();
            for scenario in &scenarios {
                for s in &strategy_labels {
                    let exact_key = format!("{s}@{}#{}", scenario.name, model.name());
                    let agg_key = format!("{s}@{}#{}!aggregate", scenario.name, model.name());
                    let (Some(exact), Some(agg)) = (
                        by_label.get(exact_key.as_str()),
                        by_label.get(agg_key.as_str()),
                    ) else {
                        continue;
                    };
                    let (exact, agg) = (exact.tracker.total_on_time(), agg.tracker.total_on_time());
                    rows.push(vec![
                        scenario.name.clone(),
                        s.to_string(),
                        format!("{exact}"),
                        format!("{agg}"),
                        format!("{:.2}", agg as f64 / (exact.max(1)) as f64),
                    ]);
                }
            }
            println!(
                "{}",
                render_markdown_table(
                    &[
                        "scenario",
                        "strategy",
                        "exact on-time",
                        "aggregate on-time",
                        "aggregate/exact"
                    ],
                    &rows
                )
            );
        }
    }

    // The congestion view: how hard the network layer itself was pushed.
    // Per model, the run-wide saturation headline by scenario × strategy;
    // under flash-crowd, the busiest links of every strategy's cell.
    for &model in &link_models {
        let suffix = if link_models.len() > 1 {
            format!(" — {model} links")
        } else {
            String::new()
        };
        println!("## Max link utilisation (%) by scenario{suffix}\n");
        println!(
            "{}",
            bdps_bench::series_table("scenario", &scenario_names, &strategy_labels, |i, s| {
                let key = format!("{s}@{}#{}", scenarios[i].name, model.name());
                f1(by_label[key.as_str()].max_link_utilisation() * 100.0)
            })
        );
    }
    if let Some(flash) = scenarios.iter().find(|s| s.name == "flash-crowd") {
        let lead = strategy_labels[0];
        for &model in &link_models {
            let key = format!("{lead}@{}#{}", flash.name, model.name());
            if let Some(r) = by_label.get(key.as_str()) {
                println!(
                    "### Busiest links — {lead}, flash-crowd, {model} (max util {:.1} %)\n",
                    r.max_link_utilisation() * 100.0
                );
                println!("{}", r.link_table(3));
            }
        }
    }

    println!("## Resilience bookkeeping (EB)\n");
    let first_model = link_models[0];
    for scenario in &scenarios {
        let key = format!("EB@{}#{}", scenario.name, first_model.name());
        if let Some(r) = by_label.get(key.as_str()) {
            println!(
                "- {}: requeued {}, unsubscribed-drops {}, duplicates {} (must be 0), phases {}",
                scenario.name,
                r.requeued(),
                r.dropped_unsubscribed(),
                r.tracker.duplicate_deliveries(),
                r.phases.len()
            );
        }
    }

    // Phase breakdown of the most dynamic scenario, if it ran.
    if let Some(r) = by_label.get(format!("EB@chaos#{}", first_model.name()).as_str()) {
        println!("\n## EB per-phase breakdown under chaos\n");
        println!("{}", r.phase_table());
    }
}
