//! Historical oracle-found bugs, re-encoded as tiny exhaustively-explored
//! models so they can never silently return.
//!
//! * **Calendar rewidth on sparse pops** — the calendar queue once
//!   mis-resized its buckets when a dense burst of events was followed by a
//!   long silent stretch ending in one far-future event, perturbing pop
//!   order. The model packs eight publications into the first seconds and
//!   parks one scenario event minutes later; every invariant must hold in
//!   every interleaving. (The pop-order half of the regression — the
//!   calendar queue against the binary heap on this event shape — lives
//!   with the queue, in `bdps_sim::sched`'s tests.)
//! * **Nested flap contained in a transfer** — a link that failed *and*
//!   recovered (twice, nested) entirely within one copy's transfer window
//!   once confused the generation check that voids stale completions,
//!   leaking or double-counting the in-flight copy. The model flaps the
//!   first-hop link inside a 1-second transfer; conservation must hold
//!   after every event in every interleaving.

use bdps_mc::{explore, CheckCell, ExploreBudget, McModel, ModelTopology};
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
    for cell in CheckCell::all() {
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

#[test]
fn nested_flap_contained_in_a_transfer_conserves_every_copy() {
    let model = nested_flap_model();
    model.validate().expect("model is in bounds");

    // The regression only bites if the flap actually voids a transfer: the
    // default-order run must exercise the requeue path, otherwise the model
    // has drifted away from the bug it encodes.
    let probe = model.build(CheckCell::all()[0]).run();
    assert!(probe.transmissions > 0, "model must put copies on the wire");
    assert!(
        probe.requeued() > 0,
        "the contained flap must void and requeue at least one transfer"
    );

    let budget = ExploreBudget::default();
    for cell in CheckCell::all() {
        let exploration = explore(&model, cell, &budget);
        assert!(
            exploration.ok(),
            "violation under {}: {}",
            cell.name(),
            exploration.counterexample.unwrap().to_json()
        );
        assert!(
            exploration.stats.terminals > 0,
            "{}: flapped link must still drain to quiescence",
            cell.name()
        );
    }
}
