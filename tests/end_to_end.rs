//! Cross-crate integration tests: the full paper pipeline from topology to
//! objective metrics.

use bdps::core::strategy::ScheduleContext;
use bdps::overlay::routing::Routing;
use bdps::overlay::topology::{LayeredMeshConfig, Topology};
use bdps::prelude::*;
use bdps::sim::runner::{sweep, SweepCell, TopologySpec};

fn quick(strategy: StrategyKind, ssd: bool, rate: f64, seed: u64) -> SimulationBuilder {
    let builder = if ssd {
        Simulation::builder().ssd(rate)
    } else {
        Simulation::builder().psd(rate)
    };
    builder
        .duration(Duration::from_secs(420))
        .strategy(strategy)
        .seed(seed)
}

#[test]
fn paper_topology_routes_are_complete_and_consistent() {
    let topo = Topology::paper_topology(&mut SimRng::seed_from(5));
    let routing = Routing::compute(&topo.graph);
    assert!(routing.is_consistent());
    // Every publisher broker reaches every edge broker through at most 3 hops
    // (layer 1 -> 2 -> 3 -> 4).
    for pb in topo.graph.publisher_brokers() {
        for eb in topo.graph.edge_brokers() {
            let stats = routing.path_stats(pb, eb).expect("reachable");
            assert!(
                stats.hops() >= 1 && stats.hops() <= 3,
                "hops = {}",
                stats.hops()
            );
            assert!(stats.mean_rate() >= 50.0 && stats.mean_rate() <= 300.0);
        }
    }
}

#[test]
fn paper_scale_run_is_sane_under_the_eb_strategy() {
    let out = quick(StrategyKind::MaxEb, true, 10.0, 31).run();
    let tracker = &out.tracker;
    // 4 publishers x 10 msg/min x 7 minutes ~ 280 messages.
    assert!(
        out.published > 150 && out.published < 450,
        "published = {}",
        out.published
    );
    // The workload is tuned for ~25% selectivity over 160 subscribers.
    let avg_interested = tracker.total_interested() as f64 / out.published as f64;
    assert!(
        (20.0..60.0).contains(&avg_interested),
        "average interested subscribers per message = {avg_interested}"
    );
    assert!(tracker.delivery_rate() > 0.0 && tracker.delivery_rate() <= 1.0);
    assert!(tracker.total_earning().as_f64() > 0.0);
    assert!(out.message_number() > out.published);
    // No (message, subscriber) pair can be delivered twice.
    assert!(tracker.total_on_time() + tracker.total_late() <= tracker.total_interested());
}

#[test]
fn congestion_ordering_matches_the_paper() {
    // At publishing rate 12 the network is congested; the paper's ordering is
    // EB >= PC > FIFO > RL for delivery rate (Fig. 6a) and earning (Fig. 5a).
    let cells: Vec<SweepCell> = [
        StrategyKind::MaxEb,
        StrategyKind::MaxPc,
        StrategyKind::Fifo,
        StrategyKind::RemainingLifetime,
    ]
    .iter()
    .map(|&s| SweepCell {
        label: s.label().into(),
        builder: quick(s, false, 12.0, 77),
    })
    .collect();
    let results = sweep(&cells, 4);
    let rate_of = |label: &str| {
        results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r.tracker.delivery_rate())
            .unwrap()
    };
    let eb = rate_of("EB");
    let fifo = rate_of("FIFO");
    let rl = rate_of("RL");
    assert!(eb < 1.0, "there should be congestion, EB rate = {eb}");
    assert!(eb > fifo, "EB ({eb}) should beat FIFO ({fifo})");
    assert!(fifo > rl, "FIFO ({fifo}) should beat RL ({rl})");
}

#[test]
fn ssd_earning_favours_eb_over_fifo_under_load() {
    let eb = quick(StrategyKind::MaxEb, true, 12.0, 13).run();
    let fifo = quick(StrategyKind::Fifo, true, 12.0, 13).run();
    assert!(
        eb.tracker.total_earning() > fifo.tracker.total_earning(),
        "EB earning {} should exceed FIFO earning {}",
        eb.earning_k(),
        fifo.earning_k()
    );
    // Traffic overhead should stay moderate (the paper reports ~+23% at rate 15).
    let overhead = eb.message_number() as f64 / fifo.message_number() as f64;
    assert!(overhead < 1.8, "EB traffic overhead too high: {overhead}");
}

#[test]
fn ebpc_extreme_weight_equals_eb() {
    // r = 1 makes EBPC identical to EB, so the whole simulation must agree.
    let eb = quick(StrategyKind::MaxEb, true, 9.0, 5).run();
    let ebpc = quick(StrategyKind::MaxEbpc, true, 9.0, 5)
        .ebpc_weight(1.0)
        .run();
    assert_eq!(eb.replay_state(), ebpc.replay_state());
}

#[test]
fn runs_are_reproducible_across_processes_and_parallelism() {
    let builder = quick(StrategyKind::MaxEbpc, false, 9.0, 99);
    let a = builder.run();
    let b = builder.run();
    assert_eq!(a.replay_state(), b.replay_state());
    // The same cell inside a parallel sweep gives the same numbers.
    let cells = vec![
        SweepCell {
            label: "x".into(),
            builder,
        },
        SweepCell {
            label: "y".into(),
            builder: quick(StrategyKind::Fifo, false, 9.0, 99),
        },
    ];
    let swept = sweep(&cells, 2);
    assert_eq!(swept[0].1.replay_state(), a.replay_state());
}

/// A sweep cell runs its builder as given: every setter reaches the run,
/// including the drain grace, which a sweep once reset to its two-minute
/// default.
#[test]
fn a_sweep_honours_every_builder_setter() {
    let base = Simulation::builder()
        .layered_mesh(LayeredMeshConfig::small())
        .ssd(12.0)
        .duration(Duration::from_secs(180))
        .strategy(StrategyKind::MaxEbpc)
        .ebpc_weight(0.7)
        .seed(4);
    let cells = vec![
        SweepCell {
            label: "no-grace".into(),
            builder: base.clone().drain_grace(Duration::ZERO),
        },
        SweepCell {
            label: "default-grace".into(),
            builder: base,
        },
    ];
    let swept = sweep(&cells, 2);
    for ((label, outcome), cell) in swept.iter().zip(&cells) {
        assert_eq!(*label, cell.label);
        let alone = cell.builder.run();
        assert_eq!(outcome.replay_state(), alone.replay_state(), "{label}");
    }
    assert_ne!(
        swept[0].1.finished_at, swept[1].1.finished_at,
        "the drain grace must change the run, or this test is vacuous"
    );
}

#[test]
fn builder_path_matches_enum_path_for_all_paper_strategies() {
    // Acceptance: the five paper strategies must produce identical results
    // (delivery rate / total earning) through the trait-object handle as
    // through the `StrategyKind` compatibility path.
    for strategy in StrategyKind::ALL {
        for ssd in [false, true] {
            let enum_path = quick(strategy, ssd, 10.0, 21).run();
            let handle_path = quick(strategy, ssd, 10.0, 21)
                .strategy(strategy.resolve())
                .run();
            assert_eq!(
                enum_path.replay_state(),
                handle_path.replay_state(),
                "{} ssd={ssd}",
                strategy.label()
            );
        }
    }
}

/// A strategy defined entirely outside the core crates: prefers messages
/// worth the most per queued byte.
#[derive(Debug)]
struct ValuePerKb;

impl SchedulingStrategy for ValuePerKb {
    fn name(&self) -> &str {
        "VPK"
    }

    fn priority(&self, _ctx: &ScheduleContext, item: &QueuedMessage) -> f64 {
        let value: f64 = item.targets.iter().map(|t| t.price.as_f64()).sum();
        value / item.message.size_kb.max(1e-9)
    }
}

#[test]
fn user_defined_strategy_runs_through_broker_and_simulation() {
    // Acceptance: a strategy implemented outside `bdps-core` plugs into the
    // full pipeline through a handle, with no changes to the core crates.
    let builder = Simulation::builder()
        .topology(TopologySpec::LayeredMesh(LayeredMeshConfig::small()))
        .ssd(8.0)
        .duration(Duration::from_secs(300))
        .strategy(ValuePerKb)
        .seed(11);
    assert_eq!(builder.build_config().scheduler.strategy.label(), "VPK");
    let out = builder.run();
    assert!(out.published > 0);
    let on_time = out.tracker.total_on_time();
    assert!(on_time > 0, "custom strategy must still deliver");
    assert!(on_time <= out.tracker.total_interested());
    // Deterministic like every other strategy.
    assert_eq!(out.replay_state(), builder.run().replay_state());
}

#[test]
fn churn_burst_link_failure_scenario_end_to_end_for_all_five_strategies() {
    // Acceptance: a combined churn + burst + link-failure scenario runs
    // end-to-end through `Simulation::builder().scenario(..)`, replays
    // bit-for-bit for the same seed, and the conservation / no-duplicate
    // invariants hold — for every paper strategy.
    let chaos = || {
        DynamicScenario::named("chaos")
            .with_churn(ChurnConfig {
                joins_per_min: 3.0,
                leaves_per_min: 3.0,
            })
            .with_bursts(BurstConfig {
                mean_calm_secs: 90.0,
                mean_burst_secs: 45.0,
                multiplier: 4.0,
            })
            .with_link_failures(LinkFailureConfig {
                mean_time_between_failures_secs: 45.0,
                mean_downtime_secs: 20.0,
            })
    };
    let build = |strategy: StrategyKind| {
        Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(10.0)
            .duration(Duration::from_secs(300))
            .strategy(strategy)
            .scenario(chaos())
            .seed(2006)
    };
    for strategy in StrategyKind::ALL {
        let outcome = build(strategy).build().run();
        outcome
            .check_conservation()
            .unwrap_or_else(|v| panic!("{}: {v}", strategy.label()));
        assert_eq!(
            outcome.tracker.duplicate_deliveries(),
            0,
            "{}",
            strategy.label()
        );
        let delivered = outcome.tracker.total_on_time() + outcome.tracker.total_late();
        assert!(delivered <= outcome.tracker.total_interested());
        assert!(outcome.tracker.total_on_time() > 0, "{}", strategy.label());

        let again = build(strategy).run();
        assert_eq!(
            outcome.replay_state(),
            again.replay_state(),
            "{} must replay bit-for-bit",
            strategy.label()
        );
        assert!(outcome.phases.len() > 1, "burst phases should be visible");
    }
}

#[test]
fn registry_scenarios_run_through_the_builder() {
    // Every built-in scenario name is runnable end-to-end and reported
    // under its own name.
    for name in [
        "static",
        "churn",
        "flash-crowd",
        "link-flap",
        "blackout",
        "chaos",
    ] {
        let builder = Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(8.0)
            .duration(Duration::from_secs(180))
            .strategy(StrategyKind::MaxEb)
            .scenario_named(name)
            .unwrap()
            .seed(5);
        assert_eq!(builder.build_config().scenario.name, name);
        let out = builder.run();
        assert!(out.published > 0, "{name}");
        assert_eq!(out.tracker.duplicate_deliveries(), 0, "{name}");
    }
    assert!(Simulation::builder().scenario_named("nope").is_err());
}

#[test]
fn static_scenario_reproduces_pre_scenario_behaviour() {
    // The scenario subsystem must not perturb the paper evaluation: a run
    // with the default (static) scenario equals one with an explicitly
    // constructed empty scenario.
    let default = quick(StrategyKind::MaxEb, true, 10.0, 77);
    assert!(default.build_config().scenario.is_static());
    let explicit = default
        .clone()
        .scenario(DynamicScenario::static_scenario())
        .run();
    assert_eq!(default.run().replay_state(), explicit.replay_state());
    assert_eq!(explicit.phases.len(), 1);
    assert_eq!(explicit.phases[0].label, "run");
}

#[test]
fn smaller_mesh_runs_the_psd_workload() {
    let builder = Simulation::builder()
        .topology(TopologySpec::LayeredMesh(LayeredMeshConfig::small()))
        .psd(6.0)
        .duration(Duration::from_secs(300))
        .strategy(StrategyKind::Fifo)
        .seed(3);
    assert_eq!(builder.build_config().workload.scenario.label(), "PSD");
    let out = builder.run();
    let tracker = &out.tracker;
    assert!(out.published > 0);
    assert!(tracker.total_on_time() + tracker.total_late() <= tracker.total_interested());
    // FIFO reads no link model, so §5.4 lets it delete expired copies only.
    assert_eq!(out.dropped_unlikely(), 0);
    assert!(tracker.delivery_rate() > 0.9);
}

/// Tripwire on the knob count: every `SimulationConfig` field, by name, with
/// no `..` — so a new field does not compile until someone has read this.
///
/// The rule (simplicity guide, "Options"): each independent option doubles
/// the configurations the suites and the benchmark must cover, so a new
/// field needs two non-test callers that set it to different values *and* a
/// benchmark workload on each side of the choice. A value the engine can
/// work out from its inputs, or that only ever takes one value outside the
/// tests, is a constant, not a field.
#[test]
fn simulation_config_has_eight_fields() {
    let SimulationConfig {
        topology: _,
        workload: _,
        scheduler: _,
        seed: _,
        estimation_error: _,
        scenario: _,
        link_model: _,
        forwarding: _,
    } = Simulation::builder().build_config();
}

/// The same tripwire, same rule, on the scheduler: the paper's `PD` and the
/// message size behind `FT` are constants of the model, not fields.
#[test]
fn scheduler_config_has_three_fields() {
    let SchedulerConfig {
        strategy: _,
        ebpc_weight: _,
        invalid_detection: _,
    } = SchedulerConfig::default();
}

/// The same tripwire, same rule, on the workload: the attributes, the PSD
/// bound range and the SSD tiers are the paper's, fixed in the generators.
#[test]
fn workload_config_has_five_fields() {
    let WorkloadConfig {
        scenario: _,
        publishing_rate_per_min: _,
        duration: _,
        message_size_kb: _,
        arrivals: _,
    } = WorkloadConfig::paper_psd(1.0);
}

/// The names that follow `flag` in `text` (`--bin dynamics` → `dynamics`);
/// placeholders such as `--workload <name>` yield nothing.
fn names_after<'a>(text: &'a str, flag: &'a str) -> impl Iterator<Item = &'a str> {
    text.match_indices(flag).filter_map(move |(at, _)| {
        let rest = text[at + flag.len()..].strip_prefix(' ')?;
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

/// The workspace depends on nothing but itself: every package the root lock
/// file names is a `bdps*` member and there is no `vendor/` for a stand-in
/// of a crates.io package to grow back in.
#[test]
fn the_workspace_has_no_third_party_packages() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("root Cargo.lock");
    let packages: Vec<&str> = lock
        .split("[[package]]")
        .skip(1)
        .map(|entry| {
            let name = entry
                .split_once("name = \"")
                .expect("a package has a name")
                .1;
            name.split_once('"').expect("closing quote").0
        })
        .collect();
    assert!(packages.len() >= 9, "lock file not parsed: {packages:?}");
    let foreign: Vec<&&str> = packages.iter().filter(|p| !p.starts_with("bdps")).collect();
    assert!(foreign.is_empty(), "third-party packages: {foreign:?}");
    assert!(!root.join("vendor").exists(), "vendor/ is back");
}

/// Drift guard for the commands the docs and CI cite: every cargo target
/// they name must exist and every `--workload` must be in `BENCHMARK.json`,
/// so a retired tool cannot live on in a command line nobody runs. The
/// reverse holds for examples: each one is smoke-run by a `--example` in CI.
#[test]
fn documented_commands_name_existing_targets_and_workloads() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    let catalogue = read("BENCHMARK.json");
    let workloads = catalogue
        .split_once("\"workloads\"")
        .and_then(|(_, rest)| rest.split_once("\"end_to_end\""))
        .expect("BENCHMARK.json lists workloads before end_to_end")
        .0;
    // Flag → the directories one of which must hold `<name>.rs`.
    let targets: [(&str, &[&str]); 4] = [
        ("--bin", &["crates/bench/src/bin"]),
        ("--example", &["examples"]),
        ("--test", &["tests", "crates/mc/tests"]),
        ("--bench", &["crates/bench/benches"]),
    ];
    let mut cited = 0;
    for doc in [
        "README.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        let text = read(doc);
        for (flag, dirs) in targets {
            for name in names_after(&text, flag) {
                cited += 1;
                let file = format!("{name}.rs");
                assert!(
                    dirs.iter().any(|dir| root.join(dir).join(&file).is_file()),
                    "{doc} cites `{flag} {name}`, but no {file} exists under {dirs:?}"
                );
            }
        }
        for name in names_after(&text, "--workload") {
            cited += 1;
            assert!(
                workloads.contains(&format!("{{\"name\": \"{name}\"")),
                "{doc} cites `--workload {name}`, which BENCHMARK.json does not list"
            );
        }
    }
    assert!(cited >= 30, "only {cited} citations: the guard is vacuous");
    // The reverse for examples: CI smoke-runs every one of them.
    let ci = read(".github/workflows/ci.yml");
    let smoke_run: Vec<&str> = names_after(&ci, "--example").collect();
    let mut examples = 0;
    for entry in std::fs::read_dir(root.join("examples")).expect("examples/") {
        let path = entry.expect("examples/ entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            examples += 1;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .expect("UTF-8 name");
            assert!(
                smoke_run.contains(&name),
                "examples/{name}.rs is not run by any `--example {name}` in ci.yml"
            );
        }
    }
    assert!(examples >= 6, "only {examples} examples found");
}

/// The robustness census as a test: the places library code may unwind —
/// `unwrap()`, `.expect(`, `panic!(` and non-debug `assert…!(`, outside
/// comments, before each file's first `#[cfg(test)]` — counted per file and
/// held to the committed number. A new site either becomes a `SimError` or
/// raises the number here, with the invariant it asserts in the commit.
#[test]
fn library_panic_sites_do_not_grow() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let library_code = |rel: &str| {
        let text = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let code: Vec<String> = text
            .lines()
            .take_while(|line| line.trim_start() != "#[cfg(test)]")
            .map(|line| line.split("//").next().unwrap_or("").to_string())
            .collect();
        code.join("\n")
    };
    // engine.rs: the documented panicking wrappers `run` and `apply`;
    // event.rs: `key::message_id`'s counter-overflow assert. builder.rs:
    // `build` and `run`. runner.rs: `TopologySpec::build` and `sweep`'s
    // casualty list. shard.rs: the panicking wrapper `run_sharded`.
    let committed = [
        ("crates/sim/src/engine.rs", 2),
        ("crates/sim/src/error.rs", 0),
        ("crates/sim/src/event.rs", 1),
        ("crates/sim/src/outcome.rs", 0),
        ("crates/sim/src/audit.rs", 0),
        ("crates/sim/src/scenario_apply.rs", 0),
        ("crates/sim/src/builder.rs", 2),
        ("crates/sim/src/runner.rs", 2),
        ("crates/sim/src/shard.rs", 1),
        ("crates/sim/src/traffic.rs", 1),
        ("crates/sim/src/sched.rs", 0),
        ("crates/core/src/broker.rs", 0),
        ("crates/overlay/src/sparse.rs", 4),
    ];
    // The first six are what `engine.rs` alone was (3) before it was split:
    // a site must not escape the census by moving.
    assert!(committed[..6].iter().map(|(_, n)| n).sum::<usize>() <= 3);
    assert!(committed.iter().map(|(_, n)| n).sum::<usize>() <= 14);
    for (file, allowed) in committed {
        let code = library_code(file);
        let asserts = ["assert!(", "assert_eq!(", "assert_ne!("]
            .map(|a| code.matches(a).count() - code.matches(&format!("debug_{a}")).count());
        let sites = ["unwrap()", ".expect(", "panic!("].map(|s| code.matches(s).count());
        let found: usize = sites.iter().chain(&asserts).sum();
        assert!(
            found <= allowed,
            "{file} has {found} unwind sites (unwrap/expect/panic {sites:?}, asserts \
             {asserts:?}), {allowed} committed"
        );
    }
    // `engine.rs` is the constructor and the run loop; scenario application,
    // audits, events, outcome and errors have files of their own.
    let engine = library_code("crates/sim/src/engine.rs");
    let engine_lines = engine.lines().count();
    assert!(engine_lines <= 700, "engine.rs has {engine_lines} lines");
    // There is one table layout: nothing but the builder's vestigial
    // setter (kept for the benchmark harness) names one. There is one event
    // queue: the old calendar queue's name survives only as `sched.rs`'s
    // alias line (kept for the same harness).
    let alias = "pub type CalendarQueue<T> = EventHeap<T>;";
    for entry in std::fs::read_dir(root.join("crates/sim/src")).expect("crates/sim/src") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_str().expect("utf-8 file name");
        let rel = format!("crates/sim/src/{name}");
        let text = std::fs::read_to_string(root.join(&rel)).expect("source file");
        let stray = text.lines().filter(|line| {
            line.contains("CalendarQueue") && !(name == "sched.rs" && *line == alias)
        });
        assert_eq!(stray.count(), 0, "{name} names the calendar queue");
        if name == "builder.rs" {
            continue;
        }
        let arms = library_code(&rel).matches("TableLayout::").count();
        assert_eq!(arms, 0, "{name} names a table layout {arms} times");
    }
    // One way in: the builder. A `with_*` setter on `Simulation` would be a
    // second, unvalidated one.
    assert!(!engine.contains("pub fn with_"));
    // One description of a run: the builder. A run function or constructors
    // over the plain config, a `from_*` conversion into a builder or a shard
    // count on it would each be a second one (the sharded executor takes a
    // built `Simulation`).
    let runner = library_code("crates/sim/src/runner.rs");
    assert!(!runner.contains("pub fn run("));
    assert!(!runner.contains("impl SimulationConfig"));
    let builder = library_code("crates/sim/src/builder.rs");
    assert!(!builder.contains("fn from_"));
    assert!(!builder.contains("pub fn shards"));
    // One description of a result: the outcome. `report.rs` renders it; a
    // struct copying its fields, or a conversion filling one, would be a
    // second one.
    let report = library_code("crates/sim/src/report.rs");
    for copy in [
        "fn from_outcome",
        "struct SimulationReport",
        "struct PhaseReport",
        "struct LinkReport",
    ] {
        assert!(!report.contains(copy), "report.rs has `{copy}`");
    }
}
