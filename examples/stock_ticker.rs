//! Stock-ticker dissemination (the paper's PSD scenario): the *publisher*
//! knows how long a quote stays meaningful and stamps each message with an
//! allowed delay; subscribers simply want as many still-valid quotes as
//! possible.
//!
//! The example drives the broker state machine directly — without the
//! simulator — to show how the public API fits together: topology, routing,
//! the subscription registry and tables, brokers, and the scheduling
//! decision on a busy link.
//!
//! Run with: `cargo run --release --example stock_ticker`

use bdps::core::broker::BrokerState;
use bdps::prelude::*;
use std::sync::{Arc, RwLock};

fn main() {
    // A small three-broker chain: exchange gateway -> regional hub -> edge.
    let mut rng = SimRng::seed_from(99);
    let mut topo = bdps::overlay::topology::Topology::line(3, &mut rng, LinkQuality::paper_random);
    topo.graph
        .attach_subscriber(BrokerId::new(2), SubscriberId::new(0));
    topo.graph
        .attach_subscriber(BrokerId::new(2), SubscriberId::new(1));
    let routing = bdps::overlay::routing::Routing::compute(&topo.graph);

    // Two subscriptions: a market maker wants every ACME trade, an analyst
    // only large trades.
    let subs = vec![
        (
            Subscription::best_effort(
                SubscriptionId::new(0),
                SubscriberId::new(0),
                Filter::from(Predicate::new("symbol", CompOp::Eq, "ACME")),
            ),
            BrokerId::new(2),
        ),
        (
            Subscription::best_effort(
                SubscriptionId::new(1),
                SubscriberId::new(1),
                Filter::new(vec![
                    Predicate::new("symbol", CompOp::Eq, "ACME"),
                    Predicate::ge("volume", 10_000.0),
                ]),
            ),
            BrokerId::new(2),
        ),
    ];

    // The subscriptions live once, in a registry every broker's table shares;
    // the gateway's table holds one route per edge broker that has members.
    // The gateway broker runs the EB strategy.
    let registry = bdps::overlay::sparse::SharedPopulation::from_population(&subs);
    let registry: PopulationHandle = Arc::new(RwLock::new(registry));
    let table = SparseTable::build(BrokerId::new(0), &routing, &registry);
    let mut gateway = BrokerState::from_overlay(
        &topo.graph,
        BrokerId::new(0),
        table,
        SchedulerConfig::paper(StrategyKind::MaxEb),
    );

    // Publish three quotes with different freshness requirements (PSD bounds).
    let quotes = [
        (1u64, 9_950.0, 5u64), // small trade, 5 s of validity
        (2, 25_000.0, 20u64),  // block trade, 20 s of validity
        (3, 11_000.0, 10u64),  // medium trade, 10 s of validity
    ];
    let now = SimTime::from_millis(2);
    for (id, volume, secs) in quotes {
        let msg = Arc::new(
            Message::builder(MessageId::new(id))
                .publish_time(SimTime::ZERO)
                .size_kb(50.0)
                .publisher_bound(DelayBound::from_secs(secs))
                .attr("symbol", "ACME")
                .attr("volume", volume)
                .build(),
        );
        // A message is matched once, at publication: the gateway receives
        // each quote with its scope, the subscriptions whose filters match.
        let scope = ScopeSet::from_unsorted(
            subs.iter()
                .filter(|(sub, _)| sub.filter.matches(&msg.head))
                .map(|(sub, _)| sub.id)
                .collect(),
        );
        let outcome = gateway.handle_arrival_scoped(msg, now, Some(&scope));
        println!(
            "quote {id}: matched {} downstream target(s), enqueued towards {:?}",
            gateway
                .queue(BrokerId::new(1))
                .map(|q| q.items().last().map(|m| m.targets.len()).unwrap_or(0))
                .unwrap_or(0),
            outcome.enqueued_to
        );
    }

    // The uplink towards the hub is free once: which quote goes first?
    let decision = gateway.next_to_send(BrokerId::new(1), now);
    let chosen = decision.message.expect("something to send");
    println!(
        "\nthe EB scheduler transmits quote {} first (it satisfies {} subscription(s) and still has {} of its validity left)",
        chosen.message.id,
        chosen.targets.len(),
        chosen
            .message
            .remaining_lifetime(now)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "∞".into())
    );
    println!(
        "queued behind it: {} quote(s)",
        gateway.queue(BrokerId::new(1)).unwrap().len()
    );
    let c = &gateway.counters;
    println!(
        "broker counters: received {}, delivered locally {}, enqueued {}, dropped expired {}, dropped unlikely {}",
        c.received, c.expanded_at_edge, c.enqueued, c.dropped_expired, c.dropped_unlikely
    );
}
