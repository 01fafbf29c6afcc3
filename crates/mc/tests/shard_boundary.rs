//! Shard-boundary models: tiny deployments whose traffic is forced across
//! the contiguous broker→shard partition the multi-core executor uses.
//!
//! Each model is checked two ways:
//!
//! 1. **Exhaustively** — the explorer enumerates every ordering of
//!    simultaneous events under every cell, holding the standard invariants
//!    (conservation, no duplicates, quiescence) after every event. This
//!    pins the *sequential* semantics.
//! 2. **Differentially** — the same model is run through
//!    [`bdps_sim::run_sharded`] at every shard count from 2 up to one shard
//!    per broker, and the outcome must match the sequential run on every
//!    report-visible metric. Combined with (1), any interleaving bug at a
//!    shard boundary either shows up as an invariant violation or as a
//!    drift from the sequential oracle.
//!
//! The models are shaped so the boundary is load-bearing: on a 4-broker
//! line split 2+2, every delivery crosses the one cut link; the flap model
//! kills exactly that cut link mid-transfer, so the voided-transfer requeue
//! and the scenario barrier both happen at the boundary.

use bdps_mc::{explore, CheckCell, ExploreBudget, McModel, ModelTopology};
use bdps_sim::engine::{ForwardingMode, SimulationOutcome};
use bdps_sim::run_sharded;
use bdps_sim::scenario::ScenarioAction;
use bdps_types::id::LinkId;
use bdps_types::time::{Duration, SimTime};

/// Every report-visible metric of an outcome, collected so sequential and
/// sharded runs can be compared with one `assert_eq!`. Floats are compared
/// exactly — the executor's effect-log replay promises bit-identical
/// accumulation order, not just tolerance-close results.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    published: u64,
    interested: u64,
    on_time: u64,
    late: u64,
    delivery_rate: f64,
    total_earning: f64,
    message_number: u64,
    dropped_expired: u64,
    dropped_unlikely: u64,
    dropped_unsubscribed: u64,
    requeued: u64,
    duplicate_deliveries: u64,
    transmissions: u64,
    completed_transfers: u64,
    mean_valid_delay_ms: f64,
    finished_at: SimTime,
    events_processed: u64,
    queued_at_end: u64,
    in_flight_at_end: u64,
    pending_process_at_end: u64,
    phases: Vec<(String, u64, u64, u64, u64, u64)>,
}

fn fingerprint(out: &SimulationOutcome) -> Fingerprint {
    Fingerprint {
        published: out.published,
        interested: out.tracker.total_interested(),
        on_time: out.tracker.total_on_time(),
        late: out.tracker.total_late(),
        delivery_rate: out.tracker.delivery_rate(),
        total_earning: out.tracker.total_earning().as_f64(),
        message_number: out.message_number(),
        dropped_expired: out.dropped_expired(),
        dropped_unlikely: out.dropped_unlikely(),
        dropped_unsubscribed: out.dropped_unsubscribed(),
        requeued: out.requeued(),
        duplicate_deliveries: out.tracker.duplicate_deliveries(),
        transmissions: out.transmissions,
        completed_transfers: out.completed_transfers,
        mean_valid_delay_ms: out.valid_delays_ms.clone().mean(),
        finished_at: out.finished_at,
        events_processed: out.events_processed,
        queued_at_end: out.queued_at_end,
        in_flight_at_end: out.in_flight_at_end,
        pending_process_at_end: out.pending_process_at_end,
        phases: out
            .phases
            .iter()
            .map(|p| {
                (
                    p.label.clone(),
                    p.published,
                    p.on_time,
                    p.late,
                    p.dropped,
                    p.transmissions,
                )
            })
            .collect(),
    }
}

/// Explores the model exhaustively in every cell, then holds every shard
/// count from 2 to one-shard-per-broker to the sequential oracle.
fn check_boundary_model(model: &McModel) {
    model.validate().expect("model is in bounds");
    let budget = ExploreBudget::default();
    for cell in CheckCell::all() {
        let exploration = explore(model, cell, &budget);
        assert!(
            exploration.ok(),
            "{}: violation under {}: {}",
            model.name,
            cell.name(),
            exploration.counterexample.unwrap().to_json()
        );

        let oracle = fingerprint(&model.build(cell).run());
        if cell.forwarding == ForwardingMode::Aggregate {
            // The sharded executor rejects aggregate forwarding (edge
            // expansion would race cross-shard churn); those cells are
            // covered by the exhaustive pass above only.
            continue;
        }
        for shards in 2..=model.topology.brokers() {
            let sharded = fingerprint(&run_sharded(model.build(cell), shards));
            assert_eq!(
                sharded,
                oracle,
                "{}: {shards}-shard run drifted from the sequential oracle \
                 under {}",
                model.name,
                cell.name()
            );
        }
    }
}

/// Line(4) split 2+2 (or 1+1+1+1): publishers at the ends, subscribers in
/// the middle, so every copy crosses at least one shard boundary and the
/// two publication streams meet head-on at the cut.
fn boundary_line_model() -> McModel {
    let mut model = McModel::named("shard-boundary-line", ModelTopology::Line(4));
    model.publishers = vec![0, 3];
    model.subscribers = vec![1, 2, 1, 2];
    model.publications_per_publisher = 4;
    model.publish_gap = Duration::from_secs(5);
    model
}

#[test]
fn boundary_line_matches_the_sequential_oracle_at_every_shard_count() {
    check_boundary_model(&boundary_line_model());
}

/// Line(4) whose *cut* link (B1↔B2, the one every 2-shard delivery rides)
/// flaps while a copy is in flight on it: the voided transfer is requeued
/// on one side of the boundary and the scenario barrier that serialises the
/// flap happens between windows. 50 KB × 20 ms/KB = 1 s per hop, so the
/// t = 5 s publication from B0 is on l2 (B1→B2) over roughly
/// [6.004 s, 7.004 s]; both the failure and the recovery land inside.
fn boundary_flap_model() -> McModel {
    let mut model = McModel::named("shard-boundary-flap", ModelTopology::Line(4));
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

#[test]
fn boundary_flap_voids_transfers_without_drifting_from_the_oracle() {
    let model = boundary_flap_model();
    // The model only earns its keep if the flap actually voids a copy on
    // the cut link — otherwise it has drifted away from the boundary
    // behaviour it is meant to pin.
    let probe = model.build(CheckCell::all()[0]).run();
    assert!(
        probe.requeued() > 0,
        "the flap must void and requeue at least one boundary transfer"
    );
    check_boundary_model(&model);
}

/// Star(4): the hub is homed in shard 0 while the spokes spread across the
/// remaining shards, so spoke→spoke traffic crosses a boundary inbound and
/// a (usually different) boundary outbound within one processing hop.
fn boundary_star_model() -> McModel {
    let mut model = McModel::named("shard-boundary-star", ModelTopology::Star(4));
    model.publishers = vec![1, 2];
    model.subscribers = vec![2, 3, 3, 1];
    model.publications_per_publisher = 3;
    model.publish_gap = Duration::from_secs(5);
    model
}

#[test]
fn boundary_star_funnels_through_the_hub_without_drifting() {
    check_boundary_model(&boundary_star_model());
}
