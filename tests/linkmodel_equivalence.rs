//! Differential-oracle suite for the pluggable link-model layer.
//!
//! Transfer-time computation moved behind the [`LinkModel`] trait:
//! `ConstantDelay` reproduces the original per-transfer sampled-rate
//! behaviour (one RNG draw per transfer, exclusive link occupancy) and is
//! the oracle; `FairShare` admits up to a cap of concurrent flows per link
//! and recomputes every in-flight completion time at each flow arrival and
//! departure. This suite holds the refactor to three claims:
//!
//! 1. **The trait path is invisible.** A builder that never mentions link
//!    models and one that selects `constant` explicitly (by kind, by name,
//!    and through a [`LinkModelRegistry`]) produce bit-identical
//!    [`SimulationReport`]s across seeds × adversarial scenarios × layouts.
//!    (`tests/golden.rs` separately pins the absolute numbers, so together
//!    these prove the trait dispatch changed nothing.)
//! 2. **Fair sharing is deterministic and conservative.** Reports are
//!    layout-independent, every delivered copy is accounted
//!    for, and on a drained run each link's busy time equals the dedicated
//!    service it handed out (`busy_us ≈ work_done_us`): equal sharing moves
//!    completion instants around but never creates or destroys service.
//! 3. **Unsupported combinations fail loudly.** The sharded executor's
//!    PD-lookahead argument breaks under flow re-scheduling, so fair-share
//!    × multi-shard is a structured [`SimError`], not silent drift.

use bdps::prelude::*;
use bdps::sim::try_run_sharded;

mod common;
use common::{flap_storm, small_mesh_link_count};

/// The scenarios that stress the link layer hardest: churn rewrites the
/// delivery targets mid-flight, link-flap voids and requeues in-flight
/// copies, chaos interleaves both with bursts.
const SCENARIOS: [&str; 3] = ["churn", "link-flap", "chaos"];

fn builder(scenario_name: &str, layout: TableLayout) -> SimulationBuilder {
    Simulation::builder()
        .layered_mesh(bdps::overlay::topology::LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(240))
        .strategy(StrategyKind::MaxEbpc)
        .scenario_named(scenario_name)
        .unwrap_or_else(|_| panic!("{scenario_name} is a builtin scenario"))
        .table_layout(layout)
}

#[test]
fn constant_delay_through_the_trait_is_bit_identical_to_the_default() {
    // Every way of asking for the constant model — saying nothing, the
    // typed kind, the registry name, an alias, an explicit registry — must
    // produce the same report, whole-report compared (per-phase breakdowns
    // and the new per-link counters included).
    let registry = LinkModelRegistry::default();
    for scenario in SCENARIOS {
        for seed in 1..=10 {
            for layout in TableLayout::ALL {
                let implicit = builder(scenario, layout).seed(seed).report();
                let typed = builder(scenario, layout)
                    .link_model(LinkModelKind::Constant)
                    .seed(seed)
                    .report();
                assert_eq!(
                    implicit,
                    typed,
                    "explicit constant kind drifted from the default \
                     ({scenario}, seed {seed}, {} layout)",
                    layout.name()
                );
                let named = builder(scenario, layout)
                    .link_model_named("delay")
                    .expect("`delay` is a builtin alias")
                    .seed(seed)
                    .report();
                assert_eq!(implicit, named, "name-based selection drifted ({scenario})");
                let via_registry = builder(scenario, layout)
                    .link_model(
                        registry
                            .resolve("CONSTANT")
                            .expect("registry lookup is case-insensitive"),
                    )
                    .seed(seed)
                    .report();
                assert_eq!(
                    implicit, via_registry,
                    "registry selection drifted ({scenario})"
                );
            }
        }
    }
}

#[test]
fn constant_delay_links_are_exclusive_and_accounted() {
    // The exclusive model's counters are degenerate by construction: never
    // more than one flow in flight, mean concurrency exactly 1 while busy.
    for scenario in SCENARIOS {
        let report = builder(scenario, TableLayout::Sparse).seed(3).report();
        assert!(!report.links.is_empty(), "per-link counters are reported");
        for link in &report.links {
            assert!(link.peak_flows <= 1, "exclusive model admits one flow");
            if link.transmissions > 0 {
                assert!(
                    (link.mean_concurrency - 1.0).abs() < 1e-9,
                    "busy time and flow time coincide under exclusivity \
                     ({scenario}, link {})",
                    link.link
                );
            }
        }
    }
}

#[test]
fn fair_share_reports_are_layout_independent() {
    // Flow re-scheduling leans on the engine's stale-event design: a
    // re-scheduled completion leaves the superseded event in the queue as a
    // no-op, and the sparse layout must not perturb which copies contend.
    for scenario in SCENARIOS {
        for seed in [2u64, 5, 8] {
            let fair = |layout| {
                builder(scenario, layout)
                    .link_model(LinkModelKind::FairShare)
                    .seed(seed)
                    .report()
            };
            assert_eq!(
                fair(TableLayout::Dense),
                fair(TableLayout::Sparse),
                "fair-share drifted between layouts ({scenario}, seed {seed})"
            );
        }
    }
}

#[test]
fn fair_share_conserves_link_service_on_drained_runs() {
    // Flow-level conservation: once nothing is left in flight, the time a
    // link spent busy must equal the dedicated-link service it delivered.
    // Equal sharing drains `elapsed / n` from each of n flows per elapsed
    // microsecond, so the two integrals agree up to the ±1 µs the engine
    // quantises each re-scheduled completion instant by — give each
    // transfer a generous 16 µs of slack.
    for scenario in ["static", "churn", "flash-crowd"] {
        let outcome = builder(scenario, TableLayout::Sparse)
            .link_model(LinkModelKind::FairShare)
            .seed(7)
            .build()
            .run();
        assert_eq!(
            outcome.in_flight_at_end, 0,
            "{scenario}: run must drain for the conservation law to bind"
        );
        outcome.check_conservation().unwrap();
        outcome.check_no_duplicates().unwrap();
        let mut contended = 0u64;
        for (i, load) in outcome.link_loads.iter().enumerate() {
            let slack = 16.0 * (load.transmissions as f64 + 1.0);
            let diff = (load.busy_us as f64 - load.work_done_us).abs();
            assert!(
                diff <= slack,
                "{scenario}: link {i} leaked service: busy {} µs vs work {:.1} µs \
                 over {} transfers",
                load.busy_us,
                load.work_done_us,
                load.transmissions
            );
            contended = contended.max(load.peak_flows);
        }
        assert!(
            contended >= 2,
            "{scenario}: the workload never actually shared a link"
        );
    }
}

#[test]
fn fair_share_saturates_a_link_under_flash_crowd() {
    // The acceptance scenario: a publisher burst under fair sharing drives
    // at least one link to (near-)continuous occupancy, visible through the
    // report's utilisation and queueing counters. The publishing rate is
    // doubled relative to the differential runs above — the point here is
    // congestion, not equivalence.
    let report = builder("flash-crowd", TableLayout::Sparse)
        .ssd(24.0)
        .link_model(LinkModelKind::FairShare)
        .seed(7)
        .report();
    let peak = report.max_link_utilisation();
    assert!(
        peak >= 0.9,
        "flash crowd should saturate a link (max utilisation {peak:.3})"
    );
    let busiest = report
        .links
        .iter()
        .max_by(|a, b| a.utilisation.total_cmp(&b.utilisation))
        .expect("links are reported");
    assert!(
        busiest.peak_flows >= 2,
        "the saturated link must actually be shared"
    );
    assert!(
        busiest.peak_queue > 0,
        "saturation shows up as sender-side queueing"
    );
    // And the rendering helper agrees with the raw counters.
    let table = report.link_table(3);
    assert!(
        table.contains("util %") && table.contains(&busiest.link.to_string()),
        "{table}"
    );
}

#[test]
fn fair_share_under_the_flap_storm_stays_deterministic_and_conservative() {
    // Link failures void in-flight *flows* (not just exclusive transfers):
    // every voided copy must be requeued intact and the partial service it
    // consumed stay on the books.
    let links = small_mesh_link_count();
    for seed in [3u64, 7] {
        let storm = flap_storm(seed, links, 240);
        let fair = |layout| {
            builder("static", layout)
                .scenario(storm.clone())
                .link_model(LinkModelKind::FairShare)
                .seed(seed)
        };
        let reference = fair(TableLayout::Dense).report();
        assert!(
            reference.requeued > 0,
            "storm seed {seed} never caught a flow in flight"
        );
        assert_eq!(
            reference,
            fair(TableLayout::Sparse).report(),
            "storm drifted between layouts (seed {seed})"
        );
        let outcome = fair(TableLayout::Sparse).build().run();
        outcome.check_conservation().unwrap();
        outcome.check_no_duplicates().unwrap();
    }
}

#[test]
fn sharded_execution_rejects_non_constant_models_up_front() {
    // Satellite bugfix pin: fair-share completion re-scheduling can move a
    // cross-shard arrival inside the PD-lookahead window, so the sharded
    // executor refuses the combination with a structured error instead of
    // silently diverging.
    let sim = builder("chaos", TableLayout::Sparse)
        .link_model(LinkModelKind::FairShare)
        .seed(1)
        .build();
    match try_run_sharded(sim, 4) {
        Err(SimError::ShardedLinkModelUnsupported { model }) => {
            assert_eq!(model, "fair-share");
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(_) => panic!("fair-share × shards > 1 must be rejected"),
    }
    // The constant model keeps its multi-core path, and a single fair-share
    // shard is just the sequential loop — both stay fine.
    let constant = builder("chaos", TableLayout::Sparse).seed(1).build();
    assert!(try_run_sharded(constant, 4).is_ok());
    let fair_sequential = builder("chaos", TableLayout::Sparse)
        .link_model(LinkModelKind::FairShare)
        .seed(1)
        .build();
    assert!(try_run_sharded(fair_sequential, 1).is_ok());
}

#[test]
fn link_model_round_trips_through_config_registry_and_names() {
    let config = Simulation::builder()
        .link_model(LinkModelKind::FairShare)
        .build_config();
    assert_eq!(config.link_model, LinkModelKind::FairShare);
    let rebuilt = SimulationBuilder::from_config(&config).build_config();
    assert_eq!(rebuilt, config);
    // The default stays the paper's model.
    assert_eq!(
        Simulation::builder().build_config().link_model,
        LinkModelKind::Constant
    );
    for kind in LinkModelKind::ALL {
        assert_eq!(LinkModelKind::from_name(kind.name()), Some(kind));
    }
    let registry = LinkModelRegistry::default();
    for (alias, kind) in [
        ("const", LinkModelKind::Constant),
        ("Fair-Share", LinkModelKind::FairShare),
        ("fs", LinkModelKind::FairShare),
    ] {
        assert_eq!(registry.resolve(alias), Some(kind), "alias {alias}");
    }
    assert!(registry.resolve("token-bucket").is_none());
    let err = Simulation::builder()
        .link_model_named("token-bucket")
        .expect_err("unknown model is an error");
    for known in registry.names() {
        assert!(
            err.to_string().contains(known),
            "the error lists the registry: {err}"
        );
    }
}
