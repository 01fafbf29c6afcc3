//! Plugging a user-defined scheduling strategy into the simulator — without
//! touching any core crate.
//!
//! The strategy below, `DeadlineAwareValue`, is defined *in this example*:
//! it scores a message by its expected benefit per unit of transmission time
//! (a bang-for-the-buck heuristic the paper does not evaluate), with a boost
//! for messages entering their final seconds. It implements
//! [`SchedulingStrategy`], is wrapped in a [`StrategyHandle`] and run
//! through the full `BrokerState`/`Simulation` pipeline next to the built-in
//! strategies.
//!
//! Run with: `cargo run --release --example custom_strategy`

use bdps::core::metrics;
use bdps::core::strategy::ScheduleContext;
use bdps::prelude::*;
use bdps::sim::runner::{strategy_rate_grid_with, sweep};

/// Expected benefit per estimated transmission millisecond, with an urgency
/// boost once the average remaining lifetime drops under `panic_secs`.
#[derive(Debug, Clone, Copy)]
struct DeadlineAwareValue {
    panic_secs: f64,
}

impl SchedulingStrategy for DeadlineAwareValue {
    fn name(&self) -> &str {
        "DAV"
    }

    fn priority(&self, ctx: &ScheduleContext, item: &QueuedMessage) -> f64 {
        // Item-level metric: `success` is evaluated once per class of the
        // copy's targets, then summed over the targets.
        let eb = metrics::expected_benefit(item, ctx.now);
        // Transmission cost estimate: message size at the queue's mean rate
        // (the same FT estimate the paper's PC metric uses).
        let send_ms = ctx.first_send_estimate_ms(item).max(1.0);
        let urgency_boost = {
            let rl_secs = item.avg_remaining_lifetime_ms(ctx.now) / 1_000.0;
            if rl_secs.is_finite() && rl_secs < self.panic_secs {
                2.0
            } else {
                1.0
            }
        };
        urgency_boost * eb / send_ms
    }
}

fn main() {
    // The custom strategy, behind a handle, drops into the same sweep
    // helpers as the paper strategies.
    let strategies = vec![
        StrategyKind::MaxEb.resolve(),
        StrategyHandle::new(DeadlineAwareValue { panic_secs: 5.0 }),
        StrategyHandle::new(WeightedComposite::default()),
        StrategyKind::Fifo.resolve(),
    ];
    let cells = strategy_rate_grid_with(&strategies, &[12.0], false, 600, 2026);

    println!("PSD scenario, publishing rate 12 msgs/min/publisher, 10-minute run\n");
    println!(
        "{:10} {:>14} {:>14} {:>18}",
        "strategy", "delivery (%)", "msg number", "dropped unlikely"
    );
    for (strategy, (_, outcome)) in strategies.iter().zip(sweep(&cells, 4)) {
        println!(
            "{:10} {:>14.1} {:>14} {:>18}",
            strategy.label(),
            outcome.delivery_rate_percent(),
            outcome.message_number(),
            outcome.dropped_unlikely()
        );
    }

    // One-off runs go through the fluent builder with the same handle.
    let dav = DeadlineAwareValue { panic_secs: 5.0 };
    let single = Simulation::builder()
        .ssd(10.0)
        .duration(Duration::from_secs(300))
        .strategy(dav)
        .seed(7)
        .run();
    println!(
        "\nbuilder run with {}: earning {:.1}, delivery rate {:.1} %",
        dav.name(),
        single.tracker.total_earning().as_f64(),
        single.delivery_rate_percent()
    );
    println!("\nNo core crate was modified: the strategy lives entirely in this example.");
}
