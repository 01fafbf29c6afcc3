//! The six named workloads: what each runs, why it exists, how its inputs
//! are made from `--seed`, and which traffic it must be seen to exercise.
//!
//! # How the seed makes the inputs
//!
//! The driver compares a workload's numbers across seeds, so the offered
//! load must not swing with the seed. A simulator run does not average
//! that away by itself: a run is a few dozen to a few thousand messages,
//! each matching anything from 0 to 100 % of the population, and at 160
//! subscribers the population's own mean selectivity moves ±7 %. Every
//! workload therefore splits its inputs into a *frame* (mesh, population,
//! publisher streams — one engine seed) and a *schedule* (the scenario
//! events the harness places):
//!
//! * A workload **with a schedule** keeps its frames fixed (engine seeds
//!   derived from [`FRAME_SEED`]) and draws the schedule from `--seed`:
//!   which subscriptions join and leave and when, when each link fails and
//!   for how long, where the bursts fall. One 100k frame is seconds of wall
//!   for 40 messages, so averaging over frames is not affordable there, and
//!   congested fair-share delivery at paper scale moves ±16 % per frame.
//!   Schedules are stratified — a fixed number of events, one per time
//!   stratum — so event counts are exact, never Poisson.
//! * The **static** workload (`paper_grid`) has no schedule, so `--seed`
//!   draws its frames, and each grid position is replicated over
//!   [`GRID_FRAMES`] independent frames: totals are sums over 36
//!   independent topologies and populations. The five strategies of a grid
//!   position share a frame, which keeps the paper's same-topology rankings
//!   checkable.
//!
//! Churn is always sized from the population here (1 % of it joins and 1 %
//! leaves per simulated minute); the registry's `churn` scenario is one
//! join and one leave per minute system-wide, which at 100k subscribers and
//! 20 simulated seconds is zero events.

use bdps_core::config::StrategyKind;
use bdps_overlay::topology::{LayeredMeshConfig, Topology};
use bdps_sim::prelude::*;
use bdps_stats::rng::SimRng;
use bdps_types::id::{LinkId, SubscriberId, SubscriptionId};
use bdps_types::time::Duration;

/// The seed every fixed frame derives from, and the default `--seed`: the
/// paper's presentation date (ICPP, 16 August 2006).
pub const FRAME_SEED: u64 = 20_060_816;

/// Independent frames per `paper_grid` position.
const GRID_FRAMES: usize = 3;
/// Simulated seconds per `paper_grid` cell. The paper runs 7200 s; the
/// driver's time budget (136 runs in 57 minutes) leaves a repetition about
/// two seconds, and frames buy more steadiness than duration does.
const GRID_SECS: u64 = 600;
/// The paper's publishing rates (messages per publisher per minute).
const GRID_RATES: [f64; 6] = [1.0, 3.0, 6.0, 9.0, 12.0, 15.0];

/// Fixed frames of `flashcrowd_fairshare`.
const FLASH_FRAMES: usize = 3;
/// One 60 s burst at 4x in every 360 s block (the registry's flash-crowd
/// duty cycle: 300 s calm, 60 s burst), two blocks per cell.
const FLASH_BLOCK_SECS: u64 = 360;
const FLASH_BLOCKS: u64 = 2;
const FLASH_BURST_SECS: u64 = 60;
const FLASH_MULTIPLIER: f64 = 4.0;
const FLASH_RATE: f64 = 24.0;

/// The `scale` mesh at 100k: edge layer = round(sqrt(population)) brokers.
const POPULATION_100K: usize = 100_000;
const RATE_100K: f64 = 30.0;
/// Simulated seconds of the churn workloads (40 publications).
const CHURN_SECS: u64 = 20;
/// Share of the population that joins (and that leaves) per simulated minute.
const CHURN_SHARE_PER_MIN: f64 = 0.01;
/// Simulated seconds and failure windows of the link storm: each window
/// downs one broker pair in both directions, so 12 windows are 48 link
/// events — a failure every 1.25 s, the registry storm's tempo.
const STORM_SECS: u64 = 15;
const STORM_WINDOWS: u64 = 12;
const STORM_DOWNTIME_SECS: (f64, f64) = (2.5, 7.5);

/// What distinguishes a cell inside its workload (for the shape checks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTag {
    pub ssd: bool,
    pub rate: f64,
    pub strategy: StrategyKind,
}

/// One simulation of a workload.
pub struct Cell {
    pub label: String,
    pub builder: SimulationBuilder,
    /// The publication period, the denominator of `wall_us_per_sim_sec`.
    pub sim_secs: u64,
    pub tag: CellTag,
}

/// Scenario events the harness itself put into the cells' schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scheduled {
    pub joins: u64,
    pub leaves: u64,
    pub link_events: u64,
    pub rate_changes: u64,
}

/// A workload's generated inputs.
pub struct Inputs {
    pub cells: Vec<Cell>,
    pub scheduled: Scheduled,
}

/// What the ordering checks read of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub tag: CellTag,
    pub on_time: u64,
}

/// Traffic totals a workload's floors are checked against. Span counts are
/// present only on traced runs.
#[derive(Debug, Clone, Default)]
pub struct Traffic {
    pub events: u64,
    pub transmissions: u64,
    pub scheduled: Scheduled,
    /// Per-kind span counts, indexed like [`crate::metrics::SPAN_KINDS`].
    pub span_counts: Option<Vec<u64>>,
}

impl Traffic {
    fn span(&self, kind: &str) -> Option<u64> {
        let i = crate::metrics::SPAN_KINDS.iter().position(|k| *k == kind)?;
        self.span_counts.as_ref().map(|c| c[i])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    Churn100kExact,
    Churn100kAggregate,
    Linkstorm100kAggregate,
    FlashcrowdFairshare,
    Churn100kShards2,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PaperGrid,
        Workload::Churn100kExact,
        Workload::Churn100kAggregate,
        Workload::Linkstorm100kAggregate,
        Workload::FlashcrowdFairshare,
        Workload::Churn100kShards2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Churn100kExact => "churn_100k_exact",
            Workload::Churn100kAggregate => "churn_100k_aggregate",
            Workload::Linkstorm100kAggregate => "linkstorm_100k_aggregate",
            Workload::FlashcrowdFairshare => "flashcrowd_fairshare",
            Workload::Churn100kShards2 => "churn_100k_shards2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperGrid => {
                "The paper's Fig. 5/6 regime (32 brokers, 160 subscribers, SSD+PSD x 6 rates x 5 \
                 strategies, static): tables are tiny, so queue selection in send_complete dominates."
            }
            Workload::Churn100kExact => {
                "100k subscribers, exact forwarding, 1 %/min churn: population-bound publish \
                 matching, per-copy arrival resolution, wide-target scoring and leave handling all work."
            }
            Workload::Churn100kAggregate => {
                "Same inputs, aggregate forwarding: publish turns cheap, edge expansion and churn \
                 maintenance dominate; with the exact twin it is the speed-vs-on-time Pareto row."
            }
            Workload::Linkstorm100kAggregate => {
                "100k subscribers under a link-failure storm: route delta plus sync_aggregate/retarget \
                 is nearly all of the wall and is idle in every other workload."
            }
            Workload::FlashcrowdFairshare => {
                "Paper topology, SSD rate 24 with 4x bursts on fair-share links, five strategies: the \
                 only workload where the link model and the event queue (stale FlowComplete pops) dominate."
            }
            Workload::Churn100kShards2 => {
                "churn_100k_exact inputs through run_sharded(_, 2): the sharded executor's only number, \
                 and the bit-identical-to-sequential check at scale."
            }
        }
    }

    /// Worker threads the measured run uses (1 = the sequential loop).
    pub fn shards(self) -> usize {
        match self {
            Workload::Churn100kShards2 => 2,
            _ => 1,
        }
    }

    /// Generates the workload's cells from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::PaperGrid => paper_grid(seed),
            Workload::FlashcrowdFairshare => flashcrowd(seed),
            Workload::Churn100kExact | Workload::Churn100kShards2 => {
                churn_100k(seed, ForwardingMode::Exact)
            }
            Workload::Churn100kAggregate => churn_100k(seed, ForwardingMode::Aggregate),
            Workload::Linkstorm100kAggregate => linkstorm_100k(seed),
        }
    }

    /// Checks that the run exercised the traffic the workload exists for and
    /// reproduced the paper's orderings; returns one line per violation. A
    /// workload that silently stops exercising its layer must count as
    /// failed operations, not as a speed-up.
    pub fn shape_failures(self, cells: &[CellResult], traffic: &Traffic) -> Vec<String> {
        let mut failures = Vec::new();
        let mut floor = |what: &str, got: Option<u64>, min: u64| {
            if let Some(got) = got {
                if got < min {
                    failures.push(format!("{}: {what} = {got}, floor {min}", self.name()));
                }
            }
        };
        let s = traffic.scheduled;
        match self {
            Workload::PaperGrid => {
                floor("transmissions", Some(traffic.transmissions), 100_000);
                floor(
                    "send_complete spans",
                    traffic.span("send_complete"),
                    100_000,
                );
            }
            Workload::Churn100kExact
            | Workload::Churn100kAggregate
            | Workload::Churn100kShards2 => {
                floor("scheduled joins + leaves", Some(s.joins + s.leaves), 500);
                floor("events", Some(traffic.events), 5_000);
                let spans = traffic
                    .span("scn_join")
                    .zip(traffic.span("scn_leave"))
                    .map(|(j, l)| j + l);
                // The sharded executor is one call: no per-event spans.
                if self.shards() == 1 {
                    floor("scn_join + scn_leave spans", spans, 500);
                }
            }
            Workload::Linkstorm100kAggregate => {
                floor("scheduled link events", Some(s.link_events), 40);
                let spans = traffic
                    .span("scn_link_down")
                    .zip(traffic.span("scn_link_up"))
                    .map(|(d, u)| d + u);
                floor("scn_link_* spans", spans, 40);
            }
            Workload::FlashcrowdFairshare => {
                floor("scheduled rate changes", Some(s.rate_changes), 12);
                floor("transmissions", Some(traffic.transmissions), 50_000);
                floor(
                    "flow_complete spans",
                    traffic.span("flow_complete"),
                    100_000,
                );
            }
        }

        // The paper's orderings, on on-time pairs summed over frames (cells
        // of one frame see identical offered pairs whatever the strategy).
        let on_time = |ssd: bool, rate: f64, strategy: StrategyKind| -> u64 {
            cells
                .iter()
                .filter(|c| c.tag.ssd == ssd && c.tag.rate == rate && c.tag.strategy == strategy)
                .map(|c| c.on_time)
                .sum()
        };
        let mut order = |what: &str, chain: &[(&str, u64)]| {
            for pair in chain.windows(2) {
                if pair[0].1 <= pair[1].1 {
                    failures.push(format!(
                        "{}: {what}: expected {} > {}, got {} vs {}",
                        self.name(),
                        pair[0].0,
                        pair[1].0,
                        pair[0].1,
                        pair[1].1
                    ));
                }
            }
        };
        match self {
            Workload::PaperGrid => {
                let at = |s| on_time(false, 15.0, s);
                order(
                    "PSD rate 15 delivery",
                    &[
                        ("EB", at(StrategyKind::MaxEb)),
                        ("FIFO", at(StrategyKind::Fifo)),
                        ("RL", at(StrategyKind::RemainingLifetime)),
                    ],
                );
            }
            Workload::FlashcrowdFairshare => {
                let at = |s| on_time(true, FLASH_RATE, s);
                let (eb, ebpc) = (at(StrategyKind::MaxEb), at(StrategyKind::MaxEbpc));
                order(
                    "fair-share ranking",
                    &[
                        ("min(EB, EBPC)", eb.min(ebpc)),
                        ("PC", at(StrategyKind::MaxPc)),
                        ("FIFO", at(StrategyKind::Fifo)),
                        ("RL", at(StrategyKind::RemainingLifetime)),
                    ],
                );
            }
            _ => {}
        }
        failures
    }
}

/// The engine seed of frame `index` under run seed `seed`.
fn frame_seed(seed: u64, index: usize) -> u64 {
    SimRng::seed_from(seed).split(index as u64).seed()
}

/// The stream the harness draws schedules from (disjoint from frame seeds,
/// which use small stream indices).
fn schedule_rng(seed: u64) -> SimRng {
    SimRng::seed_from(seed).split(0x5C4E_D01E)
}

fn paper_builder(ssd: bool, rate: f64, secs: u64, strategy: StrategyKind) -> SimulationBuilder {
    let builder = Simulation::builder();
    let builder = if ssd {
        builder.ssd(rate)
    } else {
        builder.psd(rate)
    };
    builder
        .duration(Duration::from_secs(secs))
        .strategy(strategy)
        .table_layout(TableLayout::Sparse)
}

fn paper_grid(seed: u64) -> Inputs {
    let mut cells = Vec::new();
    let mut group = 0;
    for frame in 0..GRID_FRAMES {
        for ssd in [true, false] {
            for rate in GRID_RATES {
                let engine_seed = frame_seed(seed, group);
                for strategy in StrategyKind::ALL {
                    cells.push(Cell {
                        label: format!(
                            "f{frame}/{}/r{rate}/{}",
                            if ssd { "ssd" } else { "psd" },
                            strategy.label()
                        ),
                        builder: paper_builder(ssd, rate, GRID_SECS, strategy).seed(engine_seed),
                        sim_secs: GRID_SECS,
                        tag: CellTag {
                            ssd,
                            rate,
                            strategy,
                        },
                    });
                }
                group += 1;
            }
        }
    }
    Inputs {
        cells,
        scheduled: Scheduled::default(),
    }
}

/// One 4x burst per block at a seeded offset: the registry flash crowd's
/// duty cycle with the burst count and total burst time fixed, so every
/// seed publishes (nearly) the same number of messages.
fn flash_schedule(rng: &mut SimRng) -> (DynamicScenario, u64) {
    let mut scenario = DynamicScenario::named("flash-crowd-stratified");
    let mut rate_changes = 0;
    for block in 0..FLASH_BLOCKS {
        let slack = (FLASH_BLOCK_SECS - FLASH_BURST_SECS) as f64;
        let start = (block * FLASH_BLOCK_SECS) as f64 + rng.uniform_range(0.0, slack);
        let end = start + FLASH_BURST_SECS as f64;
        for (at, label, multiplier) in [(start, "burst", FLASH_MULTIPLIER), (end, "calm", 1.0)] {
            let at = Duration::from_secs_f64(at);
            scenario = scenario
                .at(
                    at,
                    ScenarioAction::PhaseMark {
                        label: label.into(),
                    },
                )
                .at(
                    at,
                    ScenarioAction::PublisherRate {
                        publisher: None,
                        multiplier,
                    },
                );
            rate_changes += 1;
        }
    }
    (scenario, rate_changes)
}

fn flashcrowd(seed: u64) -> Inputs {
    let secs = FLASH_BLOCK_SECS * FLASH_BLOCKS;
    let mut rng = schedule_rng(seed);
    let mut cells = Vec::new();
    let mut scheduled = Scheduled::default();
    for frame in 0..FLASH_FRAMES {
        let engine_seed = frame_seed(FRAME_SEED, frame);
        let (scenario, rate_changes) = flash_schedule(&mut rng);
        for strategy in StrategyKind::ALL {
            scheduled.rate_changes += rate_changes;
            cells.push(Cell {
                label: format!("f{frame}/{}", strategy.label()),
                builder: paper_builder(true, FLASH_RATE, secs, strategy)
                    .link_model(LinkModelKind::FairShare)
                    .scenario(scenario.clone())
                    .seed(engine_seed),
                sim_secs: secs,
                tag: CellTag {
                    ssd: true,
                    rate: FLASH_RATE,
                    strategy,
                },
            });
        }
    }
    Inputs { cells, scheduled }
}

/// The `scale` bench's mesh shape at 100k subscribers (517 brokers,
/// 100 172 subscribers).
pub fn mesh_100k() -> LayeredMeshConfig {
    let edges = (POPULATION_100K as f64).sqrt().round() as usize;
    LayeredMeshConfig {
        layer_sizes: vec![4, edges / 8, edges / 2, edges],
        fan_in: vec![0, 2, 2],
        publishers_per_first_layer_broker: 1,
        subscribers_per_edge_broker: POPULATION_100K.div_ceil(edges),
    }
}

/// The topology a builder will construct for `engine_seed` — the builder
/// draws it from stream 0 of the root seed (see `SimulationBuilder::build`).
pub fn topology_of(spec: &TopologySpec, engine_seed: u64) -> Topology {
    spec.build(&mut SimRng::seed_from(engine_seed).split(0))
}

fn builder_100k(secs: u64, forwarding: ForwardingMode) -> SimulationBuilder {
    Simulation::builder()
        .layered_mesh(mesh_100k())
        .ssd(RATE_100K)
        .duration(Duration::from_secs(secs))
        .strategy(StrategyKind::MaxEb)
        .table_layout(TableLayout::Sparse)
        .forwarding(forwarding)
        .seed(FRAME_SEED)
}

/// `n` instants over `[0, horizon)`, one uniformly inside each of `n` equal
/// strata, ascending.
fn stratified_instants(n: u64, horizon_secs: f64, rng: &mut SimRng) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 + rng.uniform()) / n as f64 * horizon_secs)
        .collect()
}

/// Joins and leaves each at [`CHURN_SHARE_PER_MIN`] of the population per
/// simulated minute, as explicit events. Mirrors the engine's own churn
/// materialisation (dense ids above the initial population, joins at a
/// uniform edge broker, leaves uniform among the then-active) with exact
/// counts instead of Poisson ones.
fn churn_schedule(
    topology: &Topology,
    workload: &WorkloadConfig,
    secs: u64,
    rng: &mut SimRng,
) -> (DynamicScenario, Scheduled) {
    let initial = topology.subscribers.len() as u32;
    let per_side = (initial as f64 * CHURN_SHARE_PER_MIN * secs as f64 / 60.0).round() as u64;
    let joins = stratified_instants(per_side, secs as f64, rng);
    let leaves = stratified_instants(per_side, secs as f64, rng);
    let edges = topology.graph.edge_brokers();
    let mut active: Vec<SubscriptionId> = (0..initial).map(SubscriptionId::new).collect();
    let mut next_id = initial;
    let mut scenario = DynamicScenario::named("churn1pct");
    let (mut ji, mut li) = (0, 0);
    while ji < joins.len() || li < leaves.len() {
        if ji < joins.len() && (li >= leaves.len() || joins[ji] <= leaves[li]) {
            let id = SubscriptionId::new(next_id);
            let subscription = workload.generate_subscription(id, SubscriberId::new(next_id), rng);
            next_id += 1;
            active.push(id);
            scenario = scenario.at(
                Duration::from_secs_f64(joins[ji]),
                ScenarioAction::SubscriptionJoin {
                    subscription,
                    broker: edges[rng.uniform_usize(0, edges.len())],
                },
            );
            ji += 1;
        } else {
            let id = active.swap_remove(rng.uniform_usize(0, active.len()));
            scenario = scenario.at(
                Duration::from_secs_f64(leaves[li]),
                ScenarioAction::SubscriptionLeave { subscription: id },
            );
            li += 1;
        }
    }
    let scheduled = Scheduled {
        joins: per_side,
        leaves: per_side,
        ..Scheduled::default()
    };
    (scenario, scheduled)
}

fn churn_100k(seed: u64, forwarding: ForwardingMode) -> Inputs {
    let builder = builder_100k(CHURN_SECS, forwarding);
    let config = builder.build_config();
    let topology = topology_of(&config.topology, FRAME_SEED);
    let (scenario, scheduled) = churn_schedule(
        &topology,
        &config.workload,
        CHURN_SECS,
        &mut schedule_rng(seed),
    );
    Inputs {
        cells: vec![Cell {
            label: format!("100k/churn1pct/{}", forwarding.name()),
            builder: builder.scenario(scenario),
            sim_secs: CHURN_SECS,
            tag: CellTag {
                ssd: true,
                rate: RATE_100K,
                strategy: StrategyKind::MaxEb,
            },
        }],
        scheduled,
    }
}

/// [`STORM_WINDOWS`] failures, one starting in each time stratum, every one
/// over before the publication period ends. Each downs one broker pair in
/// both directions for a uniform downtime; failures nest on a shared link,
/// as in the registry's `link-storm`.
///
/// What a failure costs depends on how much routing hangs below the link —
/// 40 ms for an unused edge link, 200 ms for one next to the publishers —
/// and uniform picks moved the wall by ±15 % between seeds. So *which*
/// links fail belongs to the frame: the windows are dealt over the mesh's
/// tiers (the layer of the link's upper end) in proportion to their link
/// counts, and `frame_rng` picks the link within each tier. The run's seed
/// draws the rest through `rng`: which window fails when, and for how long.
fn storm_schedule(
    topology: &Topology,
    secs: u64,
    frame_rng: &mut SimRng,
    rng: &mut SimRng,
) -> (DynamicScenario, Scheduled) {
    let graph = &topology.graph;
    // One entry per undirected pair (the lower-id direction), by tier.
    let mut tiers: Vec<Vec<(LinkId, Option<LinkId>)>> = Vec::new();
    for l in graph.links().filter(|l| l.from < l.to) {
        let layer = |b| graph.broker(b).layer.unwrap_or(0);
        let tier = layer(l.from).min(layer(l.to)) as usize;
        if tiers.len() <= tier {
            tiers.resize(tier + 1, Vec::new());
        }
        tiers[tier].push((l.id, graph.link_between(l.to, l.from).map(|r| r.id)));
    }
    // Window w fails a link of the tier that holds the w-th of
    // STORM_WINDOWS evenly spaced positions in the tier-ordered pair list.
    let tier_at: Vec<usize> = tiers
        .iter()
        .enumerate()
        .flat_map(|(tier, pairs)| std::iter::repeat_n(tier, pairs.len()))
        .collect();
    let tier_of =
        |w: u64| tier_at[(2 * w as usize + 1) * tier_at.len() / (2 * STORM_WINDOWS as usize)];
    let failing: Vec<_> = (0..STORM_WINDOWS)
        .map(|w| {
            let tier = &tiers[tier_of(w)];
            tier[frame_rng.uniform_usize(0, tier.len())]
        })
        .collect();
    let mut order: Vec<u64> = (0..STORM_WINDOWS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.uniform_usize(0, i + 1));
    }
    let latest_start = secs as f64 - STORM_DOWNTIME_SECS.1;
    let mut scenario = DynamicScenario::named("link-storm-stratified");
    let mut scheduled = Scheduled::default();
    for (start, w) in stratified_instants(STORM_WINDOWS, latest_start, rng)
        .into_iter()
        .zip(order)
    {
        let (link, reverse) = failing[w as usize];
        let end = start + rng.uniform_range(STORM_DOWNTIME_SECS.0, STORM_DOWNTIME_SECS.1);
        for (at, down) in [(start, true), (end, false)] {
            for l in [Some(link), reverse].into_iter().flatten() {
                let action = if down {
                    ScenarioAction::LinkDown { link: l }
                } else {
                    ScenarioAction::LinkUp { link: l }
                };
                scenario = scenario.at(Duration::from_secs_f64(at), action);
                scheduled.link_events += 1;
            }
        }
    }
    (scenario, scheduled)
}

fn linkstorm_100k(seed: u64) -> Inputs {
    let builder = builder_100k(STORM_SECS, ForwardingMode::Aggregate);
    let topology = topology_of(&builder.build_config().topology, FRAME_SEED);
    let (scenario, scheduled) = storm_schedule(
        &topology,
        STORM_SECS,
        &mut schedule_rng(FRAME_SEED),
        &mut schedule_rng(seed),
    );
    Inputs {
        cells: vec![Cell {
            label: "100k/link-storm/aggregate".into(),
            builder: builder.scenario(scenario),
            sim_secs: STORM_SECS,
            tag: CellTag {
                ssd: true,
                rate: RATE_100K,
                strategy: StrategyKind::MaxEb,
            },
        }],
        scheduled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_valid_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for w in Workload::ALL {
            let name = w.name();
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')));
            assert!(name.len() <= 64 && seen.insert(name));
            assert_eq!(Workload::from_name(name), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{name}");
        }
        assert_eq!(Workload::from_name("churn"), None);
    }

    #[test]
    fn mesh_is_the_scale_bench_100k_shape() {
        let mesh = mesh_100k();
        assert_eq!(mesh.broker_count(), 517);
        assert_eq!(mesh.subscriber_count(), 100_172);
        assert_eq!(mesh.publisher_count(), 4);
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for w in [Workload::PaperGrid, Workload::FlashcrowdFairshare] {
            let (a, b, c) = (w.inputs(7), w.inputs(7), w.inputs(8));
            let configs = |i: &Inputs| -> Vec<_> {
                i.cells.iter().map(|c| c.builder.build_config()).collect()
            };
            assert_eq!(configs(&a), configs(&b), "{}", w.name());
            assert_ne!(configs(&a), configs(&c), "{}", w.name());
        }
    }

    #[test]
    fn grid_and_flashcrowd_have_the_stated_shape() {
        let grid = Workload::PaperGrid.inputs(1);
        assert_eq!(grid.cells.len(), GRID_FRAMES * 60);
        // The five strategies of a grid position share a frame; positions do not.
        let seeds: Vec<u64> = grid
            .cells
            .iter()
            .map(|c| c.builder.build_config().seed)
            .collect();
        assert!(seeds.chunks(5).all(|g| g.iter().all(|s| *s == g[0])));
        assert_ne!(seeds[0], seeds[5]);

        let flash = Workload::FlashcrowdFairshare.inputs(1);
        assert_eq!(flash.cells.len(), FLASH_FRAMES * 5);
        // A workload with a schedule keeps its frames whatever the seed.
        let frames = |i: &Inputs| -> Vec<u64> {
            i.cells
                .iter()
                .map(|c| c.builder.build_config().seed)
                .collect()
        };
        assert_eq!(
            frames(&flash),
            frames(&Workload::FlashcrowdFairshare.inputs(2))
        );
        assert_eq!(
            flash.scheduled.rate_changes,
            (FLASH_FRAMES as u64) * 5 * FLASH_BLOCKS * 2
        );
    }

    #[test]
    fn churn_is_sized_from_the_population_with_exact_counts() {
        let mesh = LayeredMeshConfig::paper();
        let topology = topology_of(&TopologySpec::LayeredMesh(mesh), 3);
        let workload = WorkloadConfig::paper_ssd(6.0);
        // 160 subscribers x 1 %/min x 600 s = 16 joins and 16 leaves.
        let (scenario, scheduled) = churn_schedule(&topology, &workload, 600, &mut schedule_rng(5));
        assert_eq!((scheduled.joins, scheduled.leaves), (16, 16));
        let (mut joins, mut leaves) = (Vec::new(), Vec::new());
        for e in &scenario.events {
            match &e.action {
                ScenarioAction::SubscriptionJoin { subscription, .. } => {
                    joins.push(subscription.id.index())
                }
                ScenarioAction::SubscriptionLeave { subscription } => {
                    leaves.push(subscription.index())
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(joins, (160..176).collect::<Vec<_>>());
        assert_eq!(leaves.len(), 16);
        let distinct: std::collections::HashSet<_> = leaves.iter().collect();
        assert_eq!(distinct.len(), 16, "a subscription leaves at most once");
    }

    #[test]
    fn storm_downs_and_restores_every_chosen_link() {
        let topology = topology_of(&TopologySpec::Paper, 3);
        let (scenario, scheduled) =
            storm_schedule(&topology, 15, &mut schedule_rng(1), &mut schedule_rng(9));
        assert_eq!(scheduled.link_events, 4 * STORM_WINDOWS);
        let mut depth = std::collections::HashMap::new();
        let mut events = scenario.events.clone();
        events.sort_by_key(|e| e.at);
        for e in &events {
            match e.action {
                ScenarioAction::LinkDown { link } => *depth.entry(link).or_insert(0i32) += 1,
                ScenarioAction::LinkUp { link } => *depth.entry(link).or_insert(0i32) -= 1,
                _ => panic!("unexpected action"),
            }
            assert!(e.at <= Duration::from_secs(15));
        }
        assert!(depth.values().all(|d| *d == 0));
    }

    #[test]
    fn floors_turn_missing_traffic_into_failures() {
        let quiet = Traffic::default();
        assert!(!Workload::Churn100kExact
            .shape_failures(&[], &quiet)
            .is_empty());
        assert!(!Workload::Linkstorm100kAggregate
            .shape_failures(&[], &quiet)
            .is_empty());
        let busy = Traffic {
            events: 10_000,
            transmissions: 10_000,
            scheduled: Scheduled {
                joins: 334,
                leaves: 334,
                ..Scheduled::default()
            },
            span_counts: None,
        };
        assert!(Workload::Churn100kExact
            .shape_failures(&[], &busy)
            .is_empty());
    }

    #[test]
    fn rankings_are_checked_on_sums_over_frames() {
        let cell = |strategy, on_time| CellResult {
            tag: CellTag {
                ssd: false,
                rate: 15.0,
                strategy,
            },
            on_time,
        };
        let traffic = Traffic {
            transmissions: 1_000_000,
            ..Traffic::default()
        };
        let good = [
            cell(StrategyKind::MaxEb, 500),
            cell(StrategyKind::MaxEb, 300),
            cell(StrategyKind::Fifo, 350),
            cell(StrategyKind::Fifo, 350),
            cell(StrategyKind::RemainingLifetime, 100),
            cell(StrategyKind::RemainingLifetime, 100),
        ];
        assert!(Workload::PaperGrid
            .shape_failures(&good, &traffic)
            .is_empty());
        let mut bad = good.clone();
        bad[0].on_time = 100;
        let failures = Workload::PaperGrid.shape_failures(&bad, &traffic);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("EB > FIFO"));
    }
}
