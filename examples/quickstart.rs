//! Quickstart: build the paper's pub/sub system with the fluent builder, run
//! a short simulation with the EB strategy and print the headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use bdps::prelude::*;

fn main() {
    // 1. The paper's 32-broker layered mesh, 4 publishers, 160 subscribers
    //    (the builder's default topology). Link transmission rates are
    //    N(mu, 20^2) ms/KB with mu ~ U[50, 100].
    // 2. The SSD workload: every subscriber asks for one of the delay classes
    //    {10 s -> price 3, 30 s -> price 2, 60 s -> price 1}; publishers emit
    //    50 KB messages at 10 messages/minute each.
    // 3. The EB (maximum Expected Benefit first) scheduling strategy with the
    //    paper's invalid-message detection threshold (epsilon = 0.05 %).
    let builder = Simulation::builder()
        .ssd(10.0)
        .duration(Duration::from_secs(600))
        .strategy(StrategyKind::MaxEb)
        .seed(42);
    let config = builder.build_config();
    let outcome = builder.run();
    let tracker = &outcome.tracker;

    println!("strategy          : {}", config.scheduler.strategy.label());
    println!("scenario          : {}", config.workload.scenario.label());
    println!("published messages: {}", outcome.published);
    println!("interested pairs  : {}", tracker.total_interested());
    println!("on-time deliveries: {}", tracker.total_on_time());
    println!(
        "delivery rate     : {:.1} %",
        outcome.delivery_rate_percent()
    );
    println!(
        "total earning     : {:.1}",
        tracker.total_earning().as_f64()
    );
    println!("message number    : {}", outcome.message_number());
    println!("dropped (expired) : {}", outcome.dropped_expired());
    println!("dropped (unlikely): {}", outcome.dropped_unlikely());
    println!(
        "mean valid delay  : {:.0} ms",
        outcome.valid_delays_ms.mean()
    );
}
