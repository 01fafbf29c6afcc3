//! Cross-crate integration tests: the full paper pipeline from topology to
//! objective metrics.

use bdps::core::strategy::ScheduleContext;
use bdps::overlay::routing::Routing;
use bdps::overlay::topology::{LayeredMeshConfig, Topology};
use bdps::prelude::*;
use bdps::sim::runner::{run, sweep, SweepCell, TopologySpec};

fn quick(strategy: StrategyKind, ssd: bool, rate: f64, seed: u64) -> SimulationConfig {
    let workload = if ssd {
        WorkloadConfig::paper_ssd(rate)
    } else {
        WorkloadConfig::paper_psd(rate)
    }
    .with_duration(Duration::from_secs(420));
    SimulationConfig::paper(strategy, workload, seed)
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
    let report = run(&quick(StrategyKind::MaxEb, true, 10.0, 31));
    // 4 publishers x 10 msg/min x 7 minutes ~ 280 messages.
    assert!(
        report.published > 150 && report.published < 450,
        "published = {}",
        report.published
    );
    // The workload is tuned for ~25% selectivity over 160 subscribers.
    let avg_interested = report.interested as f64 / report.published as f64;
    assert!(
        (20.0..60.0).contains(&avg_interested),
        "average interested subscribers per message = {avg_interested}"
    );
    assert!(report.delivery_rate > 0.0 && report.delivery_rate <= 1.0);
    assert!(report.total_earning > 0.0);
    assert!(report.message_number > report.published as u64);
    // No (message, subscriber) pair can be delivered twice.
    assert!(report.on_time + report.late <= report.interested);
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
        config: quick(s, false, 12.0, 77),
    })
    .collect();
    let results = sweep(&cells, 4);
    let rate_of = |label: &str| {
        results
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, r)| r.delivery_rate)
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
    let eb = run(&quick(StrategyKind::MaxEb, true, 12.0, 13));
    let fifo = run(&quick(StrategyKind::Fifo, true, 12.0, 13));
    assert!(
        eb.total_earning > fifo.total_earning,
        "EB earning {} should exceed FIFO earning {}",
        eb.total_earning,
        fifo.total_earning
    );
    // Traffic overhead should stay moderate (the paper reports ~+23% at rate 15).
    let overhead = eb.message_number as f64 / fifo.message_number as f64;
    assert!(overhead < 1.8, "EB traffic overhead too high: {overhead}");
}

#[test]
fn ebpc_extreme_weight_equals_eb() {
    // r = 1 makes EBPC identical to EB, so the whole simulation must agree.
    let eb = run(&quick(StrategyKind::MaxEb, true, 9.0, 5));
    let ebpc = run(&quick(StrategyKind::MaxEbpc, true, 9.0, 5).with_ebpc_weight(1.0));
    assert_eq!(eb.on_time, ebpc.on_time);
    assert_eq!(eb.total_earning, ebpc.total_earning);
    assert_eq!(eb.message_number, ebpc.message_number);
}

#[test]
fn runs_are_reproducible_across_processes_and_parallelism() {
    let cfg = quick(StrategyKind::MaxEbpc, false, 9.0, 99);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a, b);
    // The same cell inside a parallel sweep gives the same numbers.
    let cells = vec![
        SweepCell {
            label: "x".into(),
            config: cfg.clone(),
        },
        SweepCell {
            label: "y".into(),
            config: quick(StrategyKind::Fifo, false, 9.0, 99),
        },
    ];
    let swept = sweep(&cells, 2);
    assert_eq!(swept[0].1, a);
}

#[test]
fn builder_path_matches_enum_path_for_all_paper_strategies() {
    // Acceptance: the five paper strategies must produce identical sweep
    // results (delivery rate / total earning) through the trait + builder
    // path as through the `StrategyKind` compatibility path.
    for strategy in StrategyKind::ALL {
        for ssd in [false, true] {
            let enum_path = run(&quick(strategy, ssd, 10.0, 21));
            let builder_path = Simulation::builder()
                .workload(if ssd {
                    WorkloadConfig::paper_ssd(10.0)
                } else {
                    WorkloadConfig::paper_psd(10.0)
                })
                .duration(Duration::from_secs(420))
                .strategy(strategy)
                .seed(21)
                .report();
            assert_eq!(enum_path, builder_path, "{} ssd={ssd}", strategy.label());
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
    let report = Simulation::builder()
        .topology(TopologySpec::LayeredMesh(LayeredMeshConfig::small()))
        .ssd(8.0)
        .duration(Duration::from_secs(300))
        .strategy(ValuePerKb)
        .seed(11)
        .report();
    assert_eq!(report.strategy, "VPK");
    assert!(report.published > 0);
    assert!(report.on_time > 0, "custom strategy must still deliver");
    assert!(report.delivery_rate > 0.0 && report.delivery_rate <= 1.0);
    // Deterministic like every other strategy.
    let again = Simulation::builder()
        .topology(TopologySpec::LayeredMesh(LayeredMeshConfig::small()))
        .ssd(8.0)
        .duration(Duration::from_secs(300))
        .strategy(ValuePerKb)
        .seed(11)
        .report();
    assert_eq!(report, again);
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

        let a = build(strategy).report();
        let b = build(strategy).report();
        assert_eq!(a, b, "{} must replay bit-for-bit", strategy.label());
        assert_eq!(a.dynamics, "chaos");
        assert!(a.phases.len() > 1, "burst phases should be visible");
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
        let report = Simulation::builder()
            .layered_mesh(LayeredMeshConfig::small())
            .ssd(8.0)
            .duration(Duration::from_secs(180))
            .strategy(StrategyKind::MaxEb)
            .scenario_named(name)
            .unwrap()
            .seed(5)
            .report();
        assert_eq!(report.dynamics, name);
        assert!(report.published > 0, "{name}");
        assert_eq!(report.duplicate_deliveries, 0, "{name}");
    }
    assert!(Simulation::builder().scenario_named("nope").is_err());
}

#[test]
fn static_scenario_reproduces_pre_scenario_behaviour() {
    // The scenario subsystem must not perturb the paper evaluation: a run
    // with the default (static) scenario equals one with an explicitly
    // constructed empty scenario, through both the builder and the runner.
    let cfg = quick(StrategyKind::MaxEb, true, 10.0, 77);
    assert!(cfg.scenario.is_static());
    let via_runner = run(&cfg);
    let via_builder = Simulation::builder()
        .ssd(10.0)
        .duration(Duration::from_secs(420))
        .strategy(StrategyKind::MaxEb)
        .scenario(DynamicScenario::static_scenario())
        .seed(77)
        .report();
    assert_eq!(via_runner, via_builder);
    assert_eq!(via_builder.phases.len(), 1);
    assert_eq!(via_builder.phases[0].label, "run");
}

#[test]
fn smaller_mesh_and_best_effort_scenario_work() {
    let mut workload = WorkloadConfig::paper_psd(6.0).with_duration(Duration::from_secs(300));
    workload.scenario = Scenario::BestEffort;
    let mut cfg = SimulationConfig::paper(StrategyKind::Fifo, workload, 3);
    cfg.topology = TopologySpec::LayeredMesh(LayeredMeshConfig::small());
    let report = run(&cfg);
    // Without bounds nothing can ever be late or dropped as expired.
    assert_eq!(report.late, 0);
    assert_eq!(report.dropped_expired, 0);
    assert_eq!(report.dropped_unlikely, 0);
    assert!(report.delivery_rate > 0.9);
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
fn simulation_config_has_ten_fields() {
    let SimulationConfig {
        topology: _,
        workload: _,
        scheduler: _,
        seed: _,
        estimation_error: _,
        scenario: _,
        table_layout: _,
        link_model: _,
        forwarding: _,
        shards: _,
    } = Simulation::builder().build_config();
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
/// so a retired tool cannot live on in a command line nobody runs.
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
    // `build` and `report`. runner.rs: `TopologySpec::build`, `sweep`'s
    // casualty list and its filled-slot invariant.
    let committed = [
        ("crates/sim/src/engine.rs", 2),
        ("crates/sim/src/error.rs", 0),
        ("crates/sim/src/event.rs", 1),
        ("crates/sim/src/outcome.rs", 0),
        ("crates/sim/src/audit.rs", 0),
        ("crates/sim/src/scenario_apply.rs", 0),
        ("crates/sim/src/builder.rs", 2),
        ("crates/sim/src/runner.rs", 3),
        ("crates/sim/src/shard.rs", 5),
        ("crates/sim/src/traffic.rs", 2),
        ("crates/core/src/broker.rs", 5),
        ("crates/overlay/src/sparse.rs", 5),
    ];
    // The first six are what `engine.rs` alone was (3) before it was split:
    // a site must not escape the census by moving.
    assert!(committed[..6].iter().map(|(_, n)| n).sum::<usize>() <= 3);
    assert!(committed.iter().map(|(_, n)| n).sum::<usize>() <= 25);
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
    // The layout is matched where it is applied (`scenario_apply.rs`),
    // audited (`audit.rs`) or configured (`builder.rs`, `runner.rs`) and
    // nowhere else, bar the constructor's aggregate-needs-sparse check.
    for entry in std::fs::read_dir(root.join("crates/sim/src")).expect("crates/sim/src") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_str().expect("utf-8 file name");
        let allowed = match name {
            "scenario_apply.rs" | "audit.rs" | "builder.rs" | "runner.rs" => continue,
            "engine.rs" => 1,
            _ => 0,
        };
        let code = library_code(&format!("crates/sim/src/{name}"));
        let arms = code.matches("TableLayout::").count() + code.matches("BrokerTable::").count();
        assert!(arms <= allowed, "{name} names a table layout {arms} times");
    }
    // One way in: the builder. A `with_*` setter on `Simulation` would be a
    // second, unvalidated one.
    assert!(!engine.contains("pub fn with_"));
}
