//! Fair-share link contention under exhaustive interleaving: two publishers
//! on the *same* broker publish at the same deterministic instants, so both
//! copies want the single `B0 → B1` link at once. Under the constant-delay
//! model the second copy waits in the output queue; under fair-share both
//! are admitted as concurrent flows and the link's completion times are
//! recomputed at each admission/departure. The explorer enumerates every
//! ordering of the same-instant events under every cell and checks the
//! engine's invariants in each.

use bdps_mc::{explore, ExploreBudget, McModel, ModelTopology};
use bdps_net::linkmodel::LinkModelKind;
use bdps_sim::engine::ForwardingMode;

/// Two same-broker publishers, one two-broker line: every publication
/// instant puts two copies in front of the same link.
fn contention_model(link_model: LinkModelKind) -> McModel {
    let mut model = McModel::named("contention-line2", ModelTopology::Line(2));
    model.publishers = vec![0, 0];
    // Six subscriptions on the far broker and this seed make every
    // publication match at least one of them (filters are seed-derived), so
    // all four copies cross the single B0 → B1 link.
    model.subscribers = vec![1; 6];
    model.publications_per_publisher = 2; // 2 × 2 = 4 events
    model.link_model = link_model;
    model.seed = 4;
    model
}

#[test]
fn fair_share_contention_upholds_every_invariant_in_every_interleaving() {
    let model = contention_model(LinkModelKind::FairShare);
    model.validate().expect("contention model is in bounds");
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
            "{}: same-instant publications must produce frontiers",
            cell.name()
        );
    }
}

#[test]
fn fair_share_actually_contends_and_constant_delay_serialises() {
    // A straight (non-explored) run of the same model pins the observable
    // difference between the models: fair-share admits both same-instant
    // copies as concurrent flows, the exclusive oracle never has more than
    // one in flight.
    let cell = ForwardingMode::Exact;
    let fair = contention_model(LinkModelKind::FairShare).build(cell).run();
    let peak_fair = fair.link_loads.iter().map(|l| l.peak_flows).max().unwrap();
    assert!(
        peak_fair >= 2,
        "same-instant copies must share the link (peak flows {peak_fair})"
    );
    fair.check_conservation().unwrap();
    fair.check_no_duplicates().unwrap();

    let constant = contention_model(LinkModelKind::Constant).build(cell).run();
    let peak_const = constant
        .link_loads
        .iter()
        .map(|l| l.peak_flows)
        .max()
        .unwrap();
    assert!(peak_const <= 1, "the exclusive model serialises transfers");
    // Both models deliver everything eventually — contention changes
    // timing, not delivery.
    assert_eq!(fair.published, constant.published);
    assert_eq!(
        fair.tracker.total_on_time() + fair.tracker.total_late(),
        constant.tracker.total_on_time() + constant.tracker.total_late(),
        "fair sharing must not lose deliveries"
    );
}
