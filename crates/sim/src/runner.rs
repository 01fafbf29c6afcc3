//! Parallel parameter sweeps over builders.
//!
//! A [`SweepCell`] is a label plus the [`SimulationBuilder`] that describes
//! its run, and [`sweep`] runs each cell through the builder's `try_run`,
//! so a cell's outcome is exactly what its builder's run returns. The
//! paper's figures are produced by sweeping a grid of (strategy, publishing
//! rate) or (strategy, EBPC weight) cells; each cell is an independent
//! simulation, so the sweep runs cells on scoped worker threads with one RNG
//! stream per cell.

use bdps_core::config::SchedulerConfig;
use bdps_core::strategy::StrategyHandle;
use bdps_net::link::LinkQuality;
use bdps_net::linkmodel::LinkModelKind;
use bdps_net::measure::EstimationError;
use bdps_overlay::topology::{LayeredMeshConfig, Topology};
use bdps_stats::rng::SimRng;
use bdps_types::error::Result;
use std::sync::Mutex;

use crate::builder::SimulationBuilder;
use crate::engine::{ForwardingMode, SimulationOutcome};
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

/// The plain data the engine builds a run from, as
/// [`SimulationBuilder::build_config`] materialises it (the builder also
/// holds the run's `drain_grace`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Topology specification.
    pub topology: TopologySpec,
    /// Workload (scenario, rate, duration, ...).
    pub workload: WorkloadConfig,
    /// Scheduler (strategy, r, ε).
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
    /// The link transfer-time model (constant delay by default — the
    /// paper's one-transfer-at-a-time sampled rate). Fair-share runs model
    /// congestion, so this one *changes results*.
    pub link_model: LinkModelKind,
    /// How publish-time matching scopes copies (exact by default — the
    /// `O(population)` global-index freeze). Aggregate forwarding preserves
    /// the delivery set but not traffic (see [`ForwardingMode`]).
    pub forwarding: ForwardingMode,
}

/// One cell of a sweep: a run plus an arbitrary label.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Free-form label carried through to the result (e.g. "rate=15").
    pub label: String,
    /// The run.
    pub builder: SimulationBuilder,
}

/// Runs every cell, using up to `threads` worker threads, and returns
/// `(label, outcome)` pairs in the order the cells were given.
///
/// A failing cell — a [`SimError`](crate::engine::SimError) or a panic —
/// does not take the sweep down with it mid-flight: every remaining cell
/// still runs to completion, and only then does `sweep` panic with a message
/// naming each failed cell (label and seed) and its error. There is no
/// silent partial result vector — either all cells succeeded or the call
/// panics with the full casualty list.
pub fn sweep(cells: &[SweepCell], threads: usize) -> Vec<(String, SimulationOutcome)> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    type Slot = Mutex<Option<std::result::Result<(String, SimulationOutcome), String>>>;
    let slots: Vec<Slot> = (0..cells.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1).min(cells.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let outcome = run_cell(&cells[i]);
                // Recover from poisoning rather than double-panic: the only
                // writer is this assignment, after which the value is
                // complete, so a poisoned lock still holds good data.
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
            });
        }
    });
    let mut results = Vec::with_capacity(cells.len());
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            Some(Ok(pair)) => results.push(pair),
            Some(Err(msg)) => failures.push((i, msg)),
            None => failures.push((i, "cell was never executed".to_owned())),
        }
    }
    if !failures.is_empty() {
        let detail: Vec<String> = failures
            .iter()
            .map(|(i, msg)| {
                let cell = &cells[*i];
                let seed = cell.builder.build_config().seed;
                format!("cell {:?} (seed {seed}): {msg}", cell.label)
            })
            .collect();
        panic!(
            "sweep: {} of {} cells failed — {}",
            failures.len(),
            cells.len(),
            detail.join("; ")
        );
    }
    results
}

/// Runs one sweep cell, converting its `SimError` or panic into the cell's
/// error string so the sweep can keep draining its queue.
fn run_cell(cell: &SweepCell) -> std::result::Result<(String, SimulationOutcome), String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cell.builder.try_run())) {
        Ok(Ok(outcome)) => Ok((cell.label.clone(), outcome)),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(crate::shard::panic_message(payload)),
    }
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
                builder,
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdps_core::config::StrategyKind;
    use bdps_types::time::Duration;

    fn quick(strategy: StrategyKind, rate: f64, ssd: bool, seed: u64) -> SimulationBuilder {
        let builder = SimulationBuilder::new().layered_mesh(LayeredMeshConfig::small());
        let builder = if ssd {
            builder.ssd(rate)
        } else {
            builder.psd(rate)
        };
        builder
            .duration(Duration::from_secs(180))
            .strategy(strategy)
            .seed(seed)
    }

    #[test]
    fn run_produces_consistent_report() {
        let builder = quick(StrategyKind::MaxEb, 6.0, false, 1);
        let outcome = builder.run();
        assert!(outcome.published > 0);
        let rate = outcome.tracker.delivery_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(outcome.message_number() >= outcome.published);
        // Deterministic.
        let again = builder.run();
        assert_eq!(outcome.replay_state(), again.replay_state());
    }

    #[test]
    fn sweep_runs_all_cells_in_order_and_matches_serial_runs() {
        let cells: Vec<SweepCell> = [StrategyKind::MaxEb, StrategyKind::Fifo]
            .iter()
            .map(|&s| SweepCell {
                label: s.label().to_string(),
                builder: quick(s, 6.0, true, 3),
            })
            .collect();
        let parallel = sweep(&cells, 4);
        let serial = sweep(&cells, 1);
        assert_eq!(parallel.len(), 2);
        assert_eq!(parallel[0].0, "EB");
        assert_eq!(parallel[1].0, "FIFO");
        for (p, s) in parallel.iter().zip(serial.iter()) {
            assert_eq!(p.0, s.0);
            assert_eq!(
                p.1.replay_state(),
                s.1.replay_state(),
                "parallel and serial sweeps must agree"
            );
        }
    }

    /// A cell whose topology spec cannot be materialised (its builder
    /// returns a `SimError`): the sweep must name the cell and its seed in
    /// the propagated panic, and every sibling cell must still have executed
    /// first.
    fn poisoned_cell(seed: u64) -> SweepCell {
        SweepCell {
            label: format!("bad-seed{seed}"),
            builder: quick(StrategyKind::MaxEb, 6.0, false, seed).layered_mesh(LayeredMeshConfig {
                layer_sizes: vec![],
                fan_in: vec![],
                publishers_per_first_layer_broker: 1,
                subscribers_per_edge_broker: 1,
            }),
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
                builder: quick(StrategyKind::MaxEb, 6.0, false, 11),
            },
            poisoned_cell(97),
            SweepCell {
                label: "good-b".into(),
                builder: quick(StrategyKind::Fifo, 6.0, false, 12),
            },
            poisoned_cell(98),
        ];
        for threads in [1, 3] {
            let msg = sweep_panic_message(&cells, threads);
            assert!(
                msg.contains("2 of 4 cells failed"),
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
        let configs: Vec<SimulationConfig> =
            cells.iter().map(|c| c.builder.build_config()).collect();
        assert!(configs.iter().all(|c| c.topology == TopologySpec::Paper));
        assert!(cells
            .iter()
            .any(|c| c.label == "EB@rate3" || c.label == "EB@rate3.0"));
        assert!(configs
            .iter()
            .all(|c| c.workload.duration == Duration::from_secs(600)));
    }
}
