//! Dynamic scenarios: run the EB strategy through subscription churn, a
//! flash crowd and link failures — all in one reproducible simulation.
//!
//! The scenario subsystem turns the paper's stationary evaluation into a
//! living system: subscribers join and leave mid-run, publishers burst to a
//! multiple of their base rate, links fail and recover (copies caught in
//! flight are requeued at the sender). Everything is driven by the run's
//! seed, so the same command always prints the same numbers.
//!
//! Run with: `cargo run --release --example dynamic_scenarios`

use bdps::prelude::*;

fn main() {
    // A "chaos" scenario assembled by hand; `scenario_named("chaos")` gives
    // a canned equivalent by name.
    let chaos = DynamicScenario::named("chaos-demo")
        // ~2 subscriptions join and ~2 leave per minute.
        .with_churn(ChurnConfig {
            joins_per_min: 2.0,
            leaves_per_min: 2.0,
        })
        // Flash crowds: calm stretches (~3 min) interrupted by ~1 min bursts
        // at 4x the base publishing rate.
        .with_bursts(BurstConfig {
            mean_calm_secs: 180.0,
            mean_burst_secs: 60.0,
            multiplier: 4.0,
        })
        // A link failure every ~2 minutes, ~30 s downtime each.
        .with_link_failures(LinkFailureConfig::flaky());

    let report = Simulation::builder()
        .ssd(10.0)
        .duration(Duration::from_secs(900))
        .strategy(StrategyKind::MaxEb)
        .scenario(chaos)
        .seed(42)
        .report();

    println!("strategy            : {}", report.strategy);
    println!("dynamics            : {}", report.dynamics);
    println!("published messages  : {}", report.published);
    println!("on-time deliveries  : {}", report.on_time);
    println!(
        "delivery rate       : {:.1} %",
        report.delivery_rate_percent()
    );
    println!("total earning       : {:.1}", report.total_earning);
    println!("requeued (link loss): {}", report.requeued);
    println!("unsubscribed drops  : {}", report.dropped_unsubscribed);
    println!(
        "duplicate deliveries: {} (single-path forwarding keeps this 0)",
        report.duplicate_deliveries
    );

    // Bursts and blackouts are visible per phase; empty phases print zeros,
    // never NaN.
    println!("\nPer-phase breakdown:\n\n{}", report.phase_table());

    // Name-based wiring for CLI-style selection — and proof of replay:
    // the same name and seed reproduce the run bit-for-bit.
    let a = Simulation::builder()
        .ssd(10.0)
        .duration(Duration::from_secs(300))
        .strategy(StrategyKind::MaxEbpc)
        .scenario_named("link-flap")
        .expect("builtin scenario")
        .seed(7)
        .report();
    let b = Simulation::builder()
        .ssd(10.0)
        .duration(Duration::from_secs(300))
        .strategy(StrategyKind::MaxEbpc)
        .scenario_named("link-flap")
        .expect("builtin scenario")
        .seed(7)
        .report();
    assert_eq!(a, b, "same seed, same scenario => identical report");
    println!(
        "\nreplay check        : two '{}' runs with seed 7 agree exactly ({} on-time deliveries)",
        a.dynamics, a.on_time
    );
}
