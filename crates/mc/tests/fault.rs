//! Explorer self-tests: arm the engine's deliberately broken invariants
//! (`--features fault-injection`) and prove the model checker actually
//! catches violations — with a counterexample that survives a JSON round
//! trip and replays to the same violation kind.
//!
//! Without this suite a subtly inert checker (wrong hook order, a check
//! that can never fire) would pass every green test forever.

#![cfg(feature = "fault-injection")]

use bdps_mc::{explore, replay, CheckCell, Counterexample, ExploreBudget, McModel, ModelTopology};
use bdps_sim::engine::{InjectedFault, SimulationOutcome};
use bdps_sim::run_sharded;
use bdps_sim::scenario::ScenarioAction;
use bdps_types::id::LinkId;
use bdps_types::time::Duration;

fn delivery_model() -> McModel {
    let mut model = McModel::named("fault-double-delivery", ModelTopology::Line(3));
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 4;
    model
}

fn flap_model() -> McModel {
    let mut model = McModel::named("fault-voided-transfer", ModelTopology::Line(3));
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 2;
    // Flap l0 inside the [5.002 s, 6.002 s] transfer window of the first
    // publication so a completion gets voided (see tests/regressions.rs).
    model.events = vec![
        (
            Duration::from_millis(5_300),
            ScenarioAction::LinkDown {
                link: LinkId::new(0),
            },
        ),
        (
            Duration::from_millis(5_600),
            ScenarioAction::LinkUp {
                link: LinkId::new(0),
            },
        ),
    ];
    // A vanished copy strands the run short of full drainage; the fault
    // under test is the conservation break, not the stranding.
    model.require_quiescence = false;
    model
}

/// Explores under the given fault, asserts the expected violation kind, and
/// proves the emitted counterexample round-trips through JSON and replays
/// to the same violation.
fn assert_caught_and_replayable(mut model: McModel, fault: InjectedFault, expect_kind: &str) {
    model.fault = Some(fault);
    let cell = CheckCell::all()[0];
    let exploration = explore(&model, cell, &ExploreBudget::default());
    let cex = exploration
        .counterexample
        .unwrap_or_else(|| panic!("{fault:?} must be caught by the explorer"));
    assert_eq!(cex.kind, expect_kind, "violation: {}", cex.violation);
    assert_eq!(cex.model, model.name);
    assert_eq!(cex.seed, model.seed);

    let parsed =
        Counterexample::from_json(&cex.to_json()).expect("emitted counterexample must parse back");
    assert_eq!(parsed, cex, "JSON round trip must be lossless");

    let replay_cell = CheckCell::from_name(&parsed.cell).expect("cell name must parse");
    let violation = replay(&model, replay_cell, &parsed.choices)
        .expect("replaying the trace must reproduce the violation");
    assert_eq!(violation.kind(), expect_kind);
}

#[test]
fn double_delivery_fault_is_caught_with_a_replayable_trace() {
    assert_caught_and_replayable(
        delivery_model(),
        InjectedFault::DoubleDelivery,
        "duplicate-delivery",
    );
}

#[test]
fn vanishing_voided_transfer_breaks_conservation_and_is_caught() {
    assert_caught_and_replayable(
        flap_model(),
        InjectedFault::VoidedTransferVanishes,
        "conservation",
    );
}

#[test]
fn unfaulted_twins_of_the_fault_models_are_clean() {
    // Guard against the faults "passing" only because the base models are
    // broken: with no fault armed both models must explore clean.
    for model in [delivery_model(), flap_model()] {
        for cell in CheckCell::all() {
            let exploration = explore(&model, cell, &ExploreBudget::default());
            assert!(
                exploration.ok(),
                "{} violated {} without a fault armed: {}",
                model.name,
                cell.name(),
                exploration.counterexample.unwrap().to_json()
            );
        }
    }
}

/// Line(4) split 2+2 whose cut link (l2, B1→B2) flaps while the t = 5 s
/// publication is in flight on it (see `tests/shard_boundary.rs`), so both
/// fault sites — the voided completion and the local deliveries — are hit
/// by shard workers, not by the coordinator.
fn sharded_flap_model() -> McModel {
    let mut model = McModel::named("fault-across-shards", ModelTopology::Line(4));
    model.publishers = vec![0];
    model.subscribers = vec![2, 3, 3];
    model.publications_per_publisher = 3;
    model.publish_gap = Duration::from_secs(5);
    model.events = vec![
        (
            Duration::from_millis(6_300),
            ScenarioAction::LinkDown {
                link: LinkId::new(2),
            },
        ),
        (
            Duration::from_millis(6_700),
            ScenarioAction::LinkUp {
                link: LinkId::new(2),
            },
        ),
    ];
    model
}

/// The sharded executor runs the engine's own handlers, fault sites
/// included: an armed fault must break the same audit through
/// `run_sharded` as it does in the sequential loop.
#[test]
fn injected_faults_cross_the_shard_boundary() {
    let cell = CheckCell::all()[0];
    let sharded = |fault: Option<InjectedFault>| -> SimulationOutcome {
        let mut model = sharded_flap_model();
        model.fault = fault;
        run_sharded(model.build(cell), 2)
    };

    let clean = sharded(None);
    assert!(
        clean.requeued() > 0,
        "the flap must void a cut-link transfer"
    );
    clean
        .check_conservation()
        .expect("unfaulted twin conserves");
    clean
        .check_no_duplicates()
        .expect("unfaulted twin is duplicate-free");
    let sequential = sharded_flap_model().build(cell).run();
    let fingerprint = |o: &SimulationOutcome| {
        (
            (o.published, o.transmissions, o.completed_transfers),
            (o.tracker.total_on_time(), o.tracker.total_late()),
            o.tracker.total_earning().as_f64().to_bits(),
            (o.requeued(), o.message_number(), o.events_processed),
            o.finished_at,
        )
    };
    assert_eq!(fingerprint(&clean), fingerprint(&sequential));

    let vanished = sharded(Some(InjectedFault::VoidedTransferVanishes));
    assert!(
        vanished.check_conservation().is_err(),
        "a voided copy vanishing inside a shard worker must break conservation"
    );
    let doubled = sharded(Some(InjectedFault::DoubleDelivery));
    assert!(
        doubled.check_no_duplicates().is_err(),
        "deliveries doubled inside a shard worker must trip the duplicate audit"
    );
}
