//! The acceptance model of the `bdps-mc` subsystem: a 3-broker line with
//! two symmetric publishers (same deterministic gap, so every publication
//! instant is a genuine same-instant collision), four subscriptions and
//! eight publications, exhaustively explored under **every** cell: exact
//! and aggregate forwarding.

use bdps_mc::{explore, ExploreBudget, McModel, ModelTopology};
use bdps_sim::engine::ForwardingMode;

fn acceptance_model() -> McModel {
    let mut model = McModel::named("acceptance-line3", ModelTopology::Line(3));
    // B0 —l0/l1— B1 —l2/l3— B2; publishers on both ends force traffic
    // through the middle broker in both directions, so B1 sees same-instant
    // arrival collisions on top of the publication collisions.
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 4; // 2 × 4 = 8 events
    model
}

#[test]
fn every_cell_upholds_every_invariant_in_every_interleaving() {
    let model = acceptance_model();
    model.validate().expect("acceptance model is in bounds");
    let budget = ExploreBudget::default();

    for cell in ForwardingMode::ALL {
        let exploration = explore(&model, cell, &budget);
        if let Some(cex) = &exploration.counterexample {
            panic!(
                "invariant violated under {}: {}\ntrace: {}",
                cell.name(),
                cex.violation,
                cex.to_json()
            );
        }
        let stats = &exploration.stats;
        assert!(stats.terminals > 0, "{}: no terminal reached", cell.name());
        assert!(
            stats.branch_points > 0,
            "{}: symmetric publishers must produce same-instant frontiers",
            cell.name()
        );
        assert!(
            stats.max_frontier >= 2,
            "{}: no simultaneous events seen — the model is not exercising \
             interleavings at all",
            cell.name()
        );
        assert!(
            stats.deduped > 0,
            "{}: commuting publications must merge via the state digest",
            cell.name()
        );
    }
}
