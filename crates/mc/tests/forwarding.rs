//! The aggregate-forwarding delivery-set oracle at model-checking depth.
//!
//! Aggregate-scoped forwarding deliberately changes *traffic*: interior
//! copies carry covering aggregates, which admit false positives, and the
//! concrete subscriber set is only resolved at the edge broker. What it must
//! never change is the *delivery set* — the exact set of `(message,
//! subscriber)` pairs delivered. The integration oracle
//! (`tests/forwarding_equivalence.rs`) samples that claim over seeded runs;
//! this suite proves it exhaustively on tiny models: over every
//! interleaving, the set of terminal delivery sets the production engine
//! reaches under aggregate forwarding equals the set it reaches under exact
//! forwarding — including under mid-run subscription churn, where the
//! publish-epoch freeze must reproduce exact mode's frozen-scope semantics.

use std::collections::BTreeSet;

use bdps_mc::{explore, CheckCell, ExploreBudget, McModel, ModelTopology};
use bdps_overlay::sparse::TableLayout;
use bdps_sim::engine::ForwardingMode;
use bdps_sim::scenario::ScenarioAction;
use bdps_types::id::SubscriptionId;
use bdps_types::time::Duration;

/// One terminal delivery set: the sorted `(message, subscriber)` pairs a
/// fully-drained interleaving delivered.
type DeliverySets = BTreeSet<Vec<(u64, u32)>>;

fn static_model() -> McModel {
    let mut model = McModel::named("forwarding-line3", ModelTopology::Line(3));
    // Publishers on both ends, subscribers everywhere: every copy crosses
    // the interior broker, so aggregate scopes are exercised on every path.
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 3;
    model
}

fn churn_model() -> McModel {
    let mut model = McModel::named("forwarding-churn-line3", ModelTopology::Line(3));
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 2;
    model.publish_gap = Duration::from_secs(5);
    // Subscription 1 (edge B1) leaves between the first publication instant
    // (t = 5 s) and the second (t = 10 s), while first-wave copies may still
    // be in flight: exact mode strips the leaver from queued target lists,
    // aggregate mode must drop it at edge expansion — same delivery set.
    model.events = vec![(
        Duration::from_millis(5_500),
        ScenarioAction::SubscriptionLeave {
            subscription: SubscriptionId::new(1),
        },
    )];
    model
}

/// A leave timed *strictly between* a publication instant and the earliest
/// possible edge expansion of its copies: publications fire at t = 5 s,
/// links move 50 KB at 20 ms/KB = 1 s per hop, so no first-wave copy can
/// reach an edge broker before t = 6 s — and subscription 1 leaves at
/// t = 5.2 s with every copy still in flight. Subscription 2 shares edge B1
/// with the leaver, so the group survives and its QoS envelope must
/// *change* (the earning sum always shrinks when a member leaves, the min
/// bound may widen). The envelope lives once, in the registry group, and
/// shrinks with the member list in one `remove`; the engine's per-event
/// table audit recomputes every group's envelope from the current member
/// records, so a prefix fold that kept the leaver fails the exploration at
/// the leave event itself, in every interleaving. Interior brokers' routes
/// towards B1 must stay as they were: the group never empties.
fn leave_before_expansion_model() -> McModel {
    let mut model = McModel::named(
        "forwarding-leave-preexpansion-line3",
        ModelTopology::Line(3),
    );
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 2;
    model.publish_gap = Duration::from_secs(5);
    model.events = vec![(
        Duration::from_millis(5_200),
        ScenarioAction::SubscriptionLeave {
            subscription: SubscriptionId::new(1),
        },
    )];
    model
}

/// Explores `model` on the production engine under both forwarding modes
/// and asserts that aggregate forwarding reaches exactly the same set of
/// terminal delivery sets as exact forwarding.
fn assert_delivery_sets_match(model: &McModel) {
    model.validate().expect("model is in bounds");
    let budget = ExploreBudget::default();
    let delivery_sets = |forwarding: ForwardingMode| -> DeliverySets {
        let cell = CheckCell {
            layout: TableLayout::Sparse,
            forwarding,
        };
        let exploration = explore(model, cell, &budget);
        if let Some(cex) = &exploration.counterexample {
            panic!(
                "invariant violated under {}: {}\ntrace: {}",
                cell.name(),
                cex.violation,
                cex.to_json()
            );
        }
        assert!(
            !exploration.stats.terminal_delivery_sets.is_empty(),
            "{}: no terminal delivery set collected",
            cell.name()
        );
        exploration.stats.terminal_delivery_sets
    };
    let exact = delivery_sets(ForwardingMode::Exact);
    assert_eq!(
        exact,
        delivery_sets(ForwardingMode::Aggregate),
        "delivery sets diverged between exact and aggregate forwarding"
    );
    // Sanity: something was actually delivered, in at least one terminal.
    assert!(
        exact.iter().any(|set| !set.is_empty()),
        "model never delivered anything — the oracle is vacuous"
    );
}

#[test]
fn aggregate_forwarding_preserves_the_delivery_set_in_every_interleaving() {
    assert_delivery_sets_match(&static_model());
}

#[test]
fn aggregate_forwarding_preserves_the_delivery_set_under_churn() {
    assert_delivery_sets_match(&churn_model());
}

#[test]
fn envelope_tracks_member_list_through_a_midflight_leave() {
    assert_delivery_sets_match(&leave_before_expansion_model());
}
