//! Historical oracle-found bugs, re-encoded as tiny exhaustively-explored
//! models so they can never silently return.
//!
//! * **Calendar rewidth on sparse pops** — the calendar queue the engine
//!   once ran on mis-resized its buckets when a dense burst of events was
//!   followed by one far-future event, perturbing pop order. That queue is
//!   gone; the model stays as an invariant check on the sparse-burst shape:
//!   eight publications in the first seconds, one scenario event minutes
//!   later, every invariant in every interleaving. (The event heap's pop
//!   order on this shape is checked in `bdps_sim::sched`'s tests.)
//! * **Nested flap contained in a transfer** — a link that failed *and*
//!   recovered (twice, nested) entirely within one copy's transfer window
//!   once confused the generation check that voids stale completions,
//!   leaking or double-counting the in-flight copy. The model flaps the
//!   first-hop link inside a 1-second transfer; conservation must hold
//!   after every event in every interleaving, as it must under a single
//!   flap of the same link inside the same transfer.
//! * **Stale completion of a re-admitted flow** — under fair sharing a
//!   completion event was taken as live when its re-schedule stamp matched
//!   the flow's. A flow voided by a link flap and re-admitted restarted its
//!   stamp, so a stale event of the voided flow could complete the new one
//!   while it still owed most of its service. The model voids two shared
//!   flows and re-admits both; no copy may arrive before its re-admitted
//!   transfer could have finished.

use bdps_mc::{explore, ExploreBudget, McModel, ModelTopology, HOP_MS};
use bdps_net::linkmodel::LinkModelKind;
use bdps_sim::engine::ForwardingMode;
use bdps_sim::scenario::ScenarioAction;
use bdps_types::id::LinkId;
use bdps_types::time::Duration;

fn calendar_rewidth_model() -> McModel {
    let mut model = McModel::named("calendar-rewidth", ModelTopology::Line(3));
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    model.publications_per_publisher = 4;
    model.publish_gap = Duration::from_secs(1);
    // One event far past the publication burst: the queue's time span stays
    // minutes wide while pops drain the dense early seconds, which is
    // exactly the shape that once made the calendar queue rewidth wrongly.
    model.events = vec![(
        Duration::from_secs(300),
        ScenarioAction::PhaseMark {
            label: "far-future".into(),
        },
    )];
    model
}

#[test]
fn calendar_rewidth_on_sparse_pops_upholds_every_invariant() {
    let model = calendar_rewidth_model();
    model.validate().expect("model is in bounds");
    let budget = ExploreBudget::default();
    for cell in ForwardingMode::ALL {
        let exploration = explore(&model, cell, &budget);
        assert!(
            exploration.ok(),
            "violation under {}: {}",
            cell.name(),
            exploration.counterexample.unwrap().to_json()
        );
    }
}

fn nested_flap_model() -> McModel {
    let mut model = McModel::named("nested-flap", ModelTopology::Line(3));
    model.publishers = vec![0, 2];
    model.subscribers = vec![0, 1, 1, 2];
    // 2 publishers × 2 publications (t = 5 s, 10 s) + 4 flap events = 8.
    model.publications_per_publisher = 2;
    // 50 KB × 20 ms/KB = 1 s per hop: the first-hop copy of the t = 5 s
    // publication is in flight on l0 (B0→B1) over [5.002 s, 6.002 s]. Both
    // failures and both recoveries land inside that window — the flap is
    // invisible at the endpoints and only the generation check can tell the
    // completion is stale.
    model.events = vec![
        (
            Duration::from_millis(5_300),
            ScenarioAction::LinkDown {
                link: LinkId::new(0),
            },
        ),
        (
            Duration::from_millis(5_450),
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
        (
            Duration::from_millis(5_750),
            ScenarioAction::LinkUp {
                link: LinkId::new(0),
            },
        ),
    ];
    model
}

/// The nested flap's shape with one failure and one recovery of l0 inside
/// the same transfer window.
fn single_flap_model() -> McModel {
    let mut model = nested_flap_model();
    model.name = "single-flap".into();
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
    model
}

#[test]
fn nested_flap_contained_in_a_transfer_conserves_every_copy() {
    let budget = ExploreBudget::default();
    for model in [nested_flap_model(), single_flap_model()] {
        model.validate().expect("model is in bounds");
        for cell in ForwardingMode::ALL {
            let exploration = explore(&model, cell, &budget);
            assert!(
                exploration.ok(),
                "{} violated under {}: {}",
                model.name,
                cell.name(),
                exploration.counterexample.unwrap().to_json()
            );
            assert!(
                exploration.stats.terminals > 0,
                "{} under {}: flapped link must still drain to quiescence",
                model.name,
                cell.name()
            );
        }

        // The regression only bites if the flap actually voids a transfer:
        // the default-order run must exercise the requeue path, otherwise
        // the model has drifted away from the bug it encodes. (Checked after
        // the exploration, so a lost copy reports its counterexample.)
        let probe = model.build(ForwardingMode::Exact).run();
        assert!(
            probe.transmissions > 0,
            "{}: no copy on the wire",
            model.name
        );
        assert!(
            probe.requeued() > 0,
            "{}: the contained flap must void and requeue a transfer",
            model.name
        );
    }
}

fn readmitted_flow_model() -> McModel {
    let mut model = McModel::named("readmitted-flow", ModelTopology::Line(2));
    model.publishers = vec![0];
    model.subscribers = vec![1, 1, 1, 1];
    model.link_model = LinkModelKind::FairShare;
    // Publications at t = 0.5 s and 1.0 s, 1 s of dedicated service each
    // (50 KB × 20 ms/KB): the second admission on l0 (B0→B1) slows the
    // first, moving its completion from ≈ 1.5 s to ≈ 2.0 s, and the flap
    // voids both flows before either finishes.
    model.publications_per_publisher = 2;
    model.publish_gap = Duration::from_millis(500);
    model.events = vec![
        (
            Duration::from_millis(1_100),
            ScenarioAction::LinkDown {
                link: LinkId::new(0),
            },
        ),
        (
            Duration::from_millis(1_200),
            ScenarioAction::LinkUp {
                link: LinkId::new(0),
            },
        ),
    ];
    model
}

#[test]
fn a_flow_readmitted_after_a_flap_is_not_completed_by_a_stale_event() {
    let model = readmitted_flow_model();
    model.validate().expect("model is in bounds");
    // Both copies are re-admitted at the recovery and owe a full second of
    // dedicated service from there, so none reaches B1 before 2.2 s: the
    // later publication (1.0 s) cannot beat 1.2 s of delay.
    let link_up_ms = 1_200.0;
    let last_publication_ms = 2.0 * model.publish_gap.as_millis_f64();
    let floor_ms = link_up_ms + HOP_MS - last_publication_ms;
    for cell in ForwardingMode::ALL {
        let probe = model.build(cell).run();
        assert!(
            probe.requeued() >= 2,
            "{}: the flap must void both shared flows",
            cell.name()
        );
        assert!(probe.valid_delays_ms.count() > 0, "{}", cell.name());
        let fastest = probe.valid_delays_ms.min();
        assert!(
            fastest >= floor_ms,
            "{}: a copy arrived {fastest} ms after publication, before its \
             re-admitted transfer could finish ({floor_ms} ms)",
            cell.name()
        );
        let exploration = explore(&model, cell, &ExploreBudget::default());
        assert!(
            exploration.ok(),
            "violation under {}: {}",
            cell.name(),
            exploration.counterexample.unwrap().to_json()
        );
    }
}
