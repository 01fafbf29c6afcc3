//! One-call experiment execution and parallel parameter sweeps.
//!
//! [`run`] and [`sweep`] are thin wrappers over the fluent
//! [`SimulationBuilder`]: a
//! [`SimulationConfig`] is just a materialised builder, so both entry points
//! produce bit-identical results for the same configuration — except for a
//! builder's `drain_grace`, which the config does not carry (a config runs
//! with the two-minute default). Both panic on a configuration the builder's
//! `try_report` would return as a [`SimError`](crate::engine::SimError);
//! `sweep` collects those per cell. The paper's
//! figures are produced by sweeping a grid of (strategy, publishing rate) or
//! (strategy, EBPC weight) cells; each cell is an independent simulation, so
//! the sweep runs cells on scoped worker threads with one RNG stream per
//! cell.

use bdps_core::config::SchedulerConfig;
use bdps_core::strategy::StrategyHandle;
use bdps_net::link::LinkQuality;
use bdps_net::linkmodel::LinkModelKind;
use bdps_net::measure::EstimationError;
use bdps_overlay::sparse::TableLayout;
use bdps_overlay::topology::{LayeredMeshConfig, Topology};
use bdps_stats::rng::SimRng;
use bdps_types::error::Result;
use std::sync::Mutex;

use crate::builder::SimulationBuilder;
use crate::engine::ForwardingMode;
use crate::report::SimulationReport;
use crate::scenario::DynamicScenario;
use crate::workload::WorkloadConfig;

/// Which overlay topology a run uses.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's 32-broker, 4-publisher, 160-subscriber layered mesh with
    /// per-link mean rates drawn uniformly from [50, 100] ms/KB and σ = 20 ms/KB.
    Paper,
    /// A layered mesh with the given configuration and the paper's link model.
    LayeredMesh(LayeredMeshConfig),
}

impl TopologySpec {
    /// Materialises the topology with randomness drawn from `rng`; a
    /// malformed mesh configuration is an error.
    pub fn try_build(&self, rng: &mut SimRng) -> Result<Topology> {
        match self {
            TopologySpec::Paper => Ok(Topology::paper_topology(rng)),
            TopologySpec::LayeredMesh(cfg) => {
                Topology::layered_mesh(cfg, rng, LinkQuality::paper_random)
            }
        }
    }

    /// [`try_build`](Self::try_build), panicking on a malformed mesh
    /// configuration.
    pub fn build(&self, rng: &mut SimRng) -> Topology {
        self.try_build(rng).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The full configuration of one simulation run — a materialised
/// [`SimulationBuilder`], minus its `drain_grace`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Topology specification.
    pub topology: TopologySpec,
    /// Workload (scenario, rate, duration, ...).
    pub workload: WorkloadConfig,
    /// Scheduler (strategy, r, ε, PD).
    pub scheduler: SchedulerConfig,
    /// Root RNG seed. Topology, workload and scheduling randomness all derive
    /// from it, so a config is fully reproducible.
    pub seed: u64,
    /// Systematic bandwidth-estimation error applied to the schedulers'
    /// believed link parameters ([`EstimationError::NONE`] for the paper's
    /// exact-measurement assumption).
    pub estimation_error: EstimationError,
    /// Dynamic scenario applied to the run (static by default; see
    /// [`crate::scenario`]).
    pub scenario: DynamicScenario,
    /// Which engine runs: sparse covering-aggregated tables patched
    /// incrementally after link events (the default, and what the benchmark
    /// measures) or the dense full-rebuild reference; both yield
    /// bit-identical results, see [`TableLayout`].
    pub table_layout: TableLayout,
    /// The link transfer-time model (constant delay by default — the
    /// paper's one-transfer-at-a-time sampled rate). Unlike the layout this
    /// one *changes results*: fair-share runs model congestion.
    pub link_model: LinkModelKind,
    /// How publish-time matching scopes copies (exact by default — the
    /// `O(population)` global-index freeze). Aggregate forwarding preserves
    /// the delivery set but not traffic, and requires the sparse table
    /// layout (see [`ForwardingMode`]).
    pub forwarding: ForwardingMode,
    /// How many broker shards advance the event loop (1 = the sequential
    /// reference loop; N > 1 runs the conservative time-window executor on
    /// N worker threads, see [`crate::shard`]). Every shard count yields
    /// bit-identical reports.
    pub shards: usize,
}

impl SimulationConfig {
    /// The paper's setup for the given strategy, scenario workload and seed.
    ///
    /// Following §5.4 the ε-based early deletion applies to the proposed
    /// strategies; the FIFO and RL baselines only delete already-expired
    /// messages (they have no probabilistic model to consult).
    pub fn paper(strategy: impl Into<StrategyHandle>, workload: WorkloadConfig, seed: u64) -> Self {
        SimulationBuilder::new()
            .workload(workload)
            .strategy(strategy)
            .seed(seed)
            .build_config()
    }

    /// Overrides the EBPC weight `r`.
    pub fn with_ebpc_weight(mut self, r: f64) -> Self {
        self.scheduler.ebpc_weight = r;
        self
    }
}

/// Runs one simulation and returns its report.
pub fn run(config: &SimulationConfig) -> SimulationReport {
    SimulationBuilder::from_config(config).report()
}

/// One cell of a sweep: a configuration plus an arbitrary label.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Free-form label carried through to the result (e.g. "rate=15").
    pub label: String,
    /// The configuration to run.
    pub config: SimulationConfig,
}

/// Runs every cell, using up to `threads` worker threads, and returns
/// `(label, report)` pairs in the order the cells were given.
///
/// A panicking cell does not take the sweep down with it mid-flight: every
/// remaining cell still runs to completion, and only then does `sweep`
/// re-panic with a message naming each failed cell (label and seed). There
/// is no silent partial result vector — either all cells succeeded or the
/// call panics with the full casualty list.
pub fn sweep(cells: &[SweepCell], threads: usize) -> Vec<(String, SimulationReport)> {
    let threads = threads.max(1);
    let mut results: Vec<Option<(String, SimulationReport)>> = vec![None; cells.len()];
    let mut failures: Vec<(usize, String)> = Vec::new();
    if threads == 1 || cells.len() <= 1 {
        for (i, cell) in cells.iter().enumerate() {
            match run_cell(cell) {
                Ok(pair) => results[i] = Some(pair),
                Err(msg) => failures.push((i, msg)),
            }
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        type Slot = Mutex<Option<std::result::Result<(String, SimulationReport), String>>>;
        let slots: Vec<Slot> = (0..cells.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(cells.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let outcome = run_cell(&cells[i]);
                    // Recover from poisoning rather than double-panic: the
                    // only writer is this assignment, after which the value
                    // is complete, so a poisoned lock still holds good data.
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
                });
            }
        });
        for (i, slot) in slots.into_iter().enumerate() {
            match slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(Ok(pair)) => results[i] = Some(pair),
                Some(Err(msg)) => failures.push((i, msg)),
                None => failures.push((i, "cell was never executed".to_owned())),
            }
        }
    }
    if !failures.is_empty() {
        let detail: Vec<String> = failures
            .iter()
            .map(|(i, msg)| {
                format!(
                    "cell {:?} (seed {}): {msg}",
                    cells[*i].label, cells[*i].config.seed
                )
            })
            .collect();
        panic!(
            "sweep: {} of {} cells panicked — {}",
            failures.len(),
            cells.len(),
            detail.join("; ")
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("non-failing sweep filled every slot"))
        .collect()
}

/// Runs one sweep cell, converting a panic into the cell's error string so
/// the sweep can keep draining its queue.
fn run_cell(cell: &SweepCell) -> std::result::Result<(String, SimulationReport), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&cell.config)))
        .map(|report| (cell.label.clone(), report))
        .map_err(crate::shard::panic_message)
}

/// Builds the sweep cells for a strategy × publishing-rate grid over the
/// paper's topology and workload (`ssd = true` for the SSD scenario). Takes
/// strategy handles, so user-defined strategies ride the same sweep helpers.
pub fn strategy_rate_grid_with(
    strategies: &[StrategyHandle],
    rates: &[f64],
    ssd: bool,
    duration_secs: u64,
    seed: u64,
) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for strategy in strategies {
        for &rate in rates {
            let builder = SimulationBuilder::new()
                .workload(if ssd {
                    WorkloadConfig::paper_ssd(rate)
                } else {
                    WorkloadConfig::paper_psd(rate)
                })
                .duration(bdps_types::time::Duration::from_secs(duration_secs))
                .strategy(strategy.clone())
                .seed(seed);
            cells.push(SweepCell {
                label: format!("{}@rate{}", strategy.label(), rate),
                config: builder.build_config(),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Scenario;
    use bdps_core::config::{InvalidDetection, StrategyKind};
    use bdps_types::time::Duration;

    fn quick_config(strategy: StrategyKind, rate: f64, ssd: bool, seed: u64) -> SimulationConfig {
        let workload = if ssd {
            WorkloadConfig::paper_ssd(rate)
        } else {
            WorkloadConfig::paper_psd(rate)
        }
        .with_duration(Duration::from_secs(180));
        let mut cfg = SimulationConfig::paper(strategy, workload, seed);
        cfg.topology = TopologySpec::LayeredMesh(LayeredMeshConfig::small());
        cfg
    }

    #[test]
    fn run_produces_consistent_report() {
        let cfg = quick_config(StrategyKind::MaxEb, 6.0, false, 1);
        let report = run(&cfg);
        assert_eq!(report.strategy, "EB");
        assert_eq!(report.scenario, Scenario::PublisherSpecified.label());
        assert!(report.published > 0);
        assert!(report.delivery_rate >= 0.0 && report.delivery_rate <= 1.0);
        assert!(report.message_number >= report.published);
        assert_eq!(report.seed, 1);
        // Deterministic.
        let again = run(&cfg);
        assert_eq!(report, again);
    }

    #[test]
    fn baseline_strategies_use_expired_only_detection() {
        let eb = SimulationConfig::paper(StrategyKind::MaxEb, WorkloadConfig::paper_psd(1.0), 1);
        assert_eq!(eb.scheduler.invalid_detection, InvalidDetection::PAPER);
        let fifo = SimulationConfig::paper(StrategyKind::Fifo, WorkloadConfig::paper_psd(1.0), 1);
        assert_eq!(
            fifo.scheduler.invalid_detection,
            InvalidDetection::ExpiredOnly
        );
        let rl = SimulationConfig::paper(
            StrategyKind::RemainingLifetime,
            WorkloadConfig::paper_psd(1.0),
            1,
        );
        assert_eq!(
            rl.scheduler.invalid_detection,
            InvalidDetection::ExpiredOnly
        );
    }

    #[test]
    fn sweep_runs_all_cells_in_order_and_matches_serial_runs() {
        let cells: Vec<SweepCell> = [StrategyKind::MaxEb, StrategyKind::Fifo]
            .iter()
            .map(|&s| SweepCell {
                label: s.label().to_string(),
                config: quick_config(s, 6.0, true, 3),
            })
            .collect();
        let parallel = sweep(&cells, 4);
        let serial = sweep(&cells, 1);
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].0, "EB");
        assert_eq!(parallel[1].0, "FIFO");
        for (p, s) in parallel.iter().zip(serial.iter()) {
            assert_eq!(p.0, s.0);
            assert_eq!(p.1, s.1, "parallel and serial sweeps must agree");
        }
    }

    /// A cell whose topology spec cannot be materialised (panics inside
    /// `run`): the sweep must name the cell and its seed in the propagated
    /// panic, and every sibling cell must still have executed first.
    fn poisoned_cell(seed: u64) -> SweepCell {
        let mut cfg = quick_config(StrategyKind::MaxEb, 6.0, false, seed);
        cfg.topology = TopologySpec::LayeredMesh(LayeredMeshConfig {
            layer_sizes: vec![],
            fan_in: vec![],
            publishers_per_first_layer_broker: 1,
            subscribers_per_edge_broker: 1,
        });
        SweepCell {
            label: format!("bad-seed{seed}"),
            config: cfg,
        }
    }

    fn sweep_panic_message(cells: &[SweepCell], threads: usize) -> String {
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sweep(cells, threads)));
        match outcome {
            Ok(_) => panic!("sweep with a poisoned cell must panic"),
            Err(payload) => crate::shard::panic_message(payload),
        }
    }

    #[test]
    fn sweep_panic_names_the_failing_cells_and_drains_the_rest() {
        let cells = vec![
            SweepCell {
                label: "good-a".into(),
                config: quick_config(StrategyKind::MaxEb, 6.0, false, 11),
            },
            poisoned_cell(97),
            SweepCell {
                label: "good-b".into(),
                config: quick_config(StrategyKind::Fifo, 6.0, false, 12),
            },
            poisoned_cell(98),
        ];
        for threads in [1, 3] {
            let msg = sweep_panic_message(&cells, threads);
            assert!(
                msg.contains("2 of 4 cells panicked"),
                "threads={threads}: expected the full casualty count, got: {msg}"
            );
            for (label, seed) in [("bad-seed97", 97), ("bad-seed98", 98)] {
                assert!(
                    msg.contains(label) && msg.contains(&format!("seed {seed}")),
                    "threads={threads}: message must name cell {label} (seed {seed}), got: {msg}"
                );
            }
            assert!(
                !msg.contains("good-a") && !msg.contains("good-b"),
                "threads={threads}: healthy cells must not appear as failures: {msg}"
            );
        }
    }

    /// The threads=1 and threads=N paths (the two branches the panic fix
    /// rewired) must agree bit-for-bit, including for cells that themselves
    /// run the sharded executor.
    #[test]
    fn sweep_equality_across_thread_counts_with_sharded_cells() {
        let cells: Vec<SweepCell> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                let mut cfg = quick_config(StrategyKind::MaxEbpc, 6.0, true, 7);
                cfg.shards = shards;
                SweepCell {
                    label: format!("shards{shards}"),
                    config: cfg,
                }
            })
            .collect();
        let serial = sweep(&cells, 1);
        let parallel = sweep(&cells, 3);
        assert_eq!(serial, parallel);
        // The cells only differ in shard count, so the executor-equivalence
        // invariant makes all three reports identical too.
        assert_eq!(serial[0].1, serial[1].1);
        assert_eq!(serial[0].1, serial[2].1);
    }

    #[test]
    fn grid_builder_covers_the_cross_product() {
        let cells = strategy_rate_grid_with(
            &[StrategyKind::MaxEb.resolve(), StrategyKind::Fifo.resolve()],
            &[3.0, 6.0, 9.0],
            true,
            600,
            42,
        );
        assert_eq!(cells.len(), 6);
        assert!(cells
            .iter()
            .all(|c| c.config.topology == TopologySpec::Paper));
        assert!(cells
            .iter()
            .any(|c| c.label == "EB@rate3" || c.label == "EB@rate3.0"));
        assert!(cells
            .iter()
            .all(|c| c.config.workload.duration == Duration::from_secs(600)));
    }

    #[test]
    fn ebpc_weight_override() {
        let cfg = quick_config(StrategyKind::MaxEbpc, 3.0, true, 5).with_ebpc_weight(0.8);
        assert_eq!(cfg.scheduler.ebpc_weight, 0.8);
        let report = run(&cfg);
        assert_eq!(report.ebpc_weight, 0.8);
        assert_eq!(report.strategy, "EBPC");
    }
}
