//! Traffic-information dissemination (the paper's motivating example for
//! subscriber-specified delays): subscribers close to an incident need the
//! update quickly, distant ones can wait — and pay less.
//!
//! This example builds conjunctive filters over road-traffic attributes,
//! wraps one in a tiered subscription, and compares the EB strategy against
//! FIFO on the same congested network.
//!
//! Run with: `cargo run --release --example traffic_info`

use bdps::filter::subscription::Subscription;
use bdps::prelude::*;

fn main() {
    // A few subscriptions over road-traffic attributes: each is a
    // conjunction of range predicates, like the paper's `A1 < x1 && A2 < x2`.
    let commuter = Filter::new(vec![
        Predicate::ge("congestion", 7.0),
        Predicate::lt("region", 3.0),
    ]);
    let filters = [
        ("city-centre commuter", commuter.clone()),
        (
            "ring-road haulier",
            Filter::new(vec![
                Predicate::ge("congestion", 5.0),
                Predicate::ge("region", 3.0),
            ]),
        ),
        ("casual traveller", Predicate::ge("congestion", 9.0).into()),
    ];
    println!("subscriptions:");
    for (who, filter) in &filters {
        println!("  {who:20} {filter}");
    }

    // Nearby subscribers demand 10 s delivery at price 3, distant ones 60 s at
    // price 1 — exactly the SSD tiering of the paper.
    let tiers = QosClass::paper_tiers();
    let example = Subscription::with_qos(
        SubscriptionId::new(0),
        SubscriberId::new(0),
        commuter,
        tiers[0],
    );
    println!("\nexample subscription: {example}\n");

    // Run the paper's SSD workload at a congesting rate under both strategies.
    for strategy in [StrategyKind::MaxEb, StrategyKind::Fifo] {
        let outcome = Simulation::builder()
            .ssd(12.0)
            .duration(Duration::from_secs(600))
            .strategy(strategy)
            .seed(7)
            .run();
        println!(
            "{:4}  earning {:8.1}  delivery rate {:5.1} %  traffic {:6} receptions",
            strategy.label(),
            outcome.tracker.total_earning().as_f64(),
            outcome.delivery_rate_percent(),
            outcome.message_number()
        );
    }
    println!("\nThe EB strategy earns substantially more on the same network because it spends bandwidth on messages that can still meet their bound.");
}
