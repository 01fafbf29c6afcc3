//! Layer probes: eleven functions the engine's hot paths are made of,
//! timed from outside on state built from the workload's own generated
//! inputs — the population `Simulation::subscriptions()` returns, the
//! topology the builder constructs, the workload's message generator and
//! scheduler configuration, and the queue / pending-event depths the run
//! itself reached.
//!
//! Each probe aims for 1000 calls but is time-boxed, because one
//! `matching_into` at 100k subscribers is milliseconds; the trace file
//! records the calls actually made beside the median and p99.

use std::hint::black_box;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use bdps_core::broker::BrokerState;
use bdps_filter::index::MatchIndex;
use bdps_filter::scope::{ScopeInterner, ScopeSet};
use bdps_overlay::routing::Routing;
use bdps_overlay::sparse::{PopulationHandle, SharedPopulation, SparseTable};
use bdps_sim::sched::{CalendarQueue, EventQueue, Scheduled};
use bdps_stats::normal::Normal;
use bdps_stats::rng::SimRng;
use bdps_types::id::{BrokerId, LinkId, MessageId, SubscriptionId};
use bdps_types::message::Message;
use bdps_types::time::{Duration, SimTime};

use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workloads::{topology_of, Cell};

const TARGET_CALLS: usize = 1000;
/// Samples a probe takes whatever they cost (a 100k routing compute is a
/// quarter second), and samples it keeps taking up to four budgets.
const FLOOR_SAMPLES: usize = 3;
const MIN_SAMPLES: usize = 16;
/// Wall budget of one probe once it has its minimum samples.
const BUDGET: std::time::Duration = std::time::Duration::from_millis(250);
/// Distinct generated messages the probes cycle through.
const MESSAGES: usize = 32;
/// Cap on the probed queue depth: each queued copy at 100k carries hundreds
/// of targets, and every sample clones the queue it pops from.
const MAX_QUEUE_DEPTH: usize = 64;
const MAX_PENDING: usize = 200_000;

/// Depths the run reached, which size the queue and scheduler probes.
#[derive(Debug, Clone, Copy)]
pub struct Depths {
    pub queue: usize,
    pub pending: usize,
}

/// One probe's timing, in the unit of its metric.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    pub metric: &'static str,
    pub median: f64,
    pub p99: f64,
    pub calls: usize,
}

pub struct ProbeResults(pub Vec<ProbeResult>);

impl ProbeResults {
    /// The per-layer metrics: each probe's median.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        self.0.iter().map(|p| (p.metric, p.median)).collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.0
                .iter()
                .map(|p| {
                    Json::obj([
                        ("metric", Json::str(p.metric)),
                        ("median", Json::Num(p.median)),
                        ("p99", Json::Num(p.p99)),
                        ("calls", Json::from(p.calls)),
                    ])
                })
                .collect(),
        )
    }
}

/// Times `op` until [`TARGET_CALLS`] calls or the budget: each sample runs
/// `setup` untimed, then `batch` timed calls. `ns_per_unit` converts the
/// per-call nanoseconds into the metric's unit (1 for ns, 1e3 for µs, …).
fn measure<S>(
    metric: &'static str,
    ns_per_unit: f64,
    batch: usize,
    mut setup: impl FnMut(usize) -> S,
    mut op: impl FnMut(&mut S, usize),
) -> ProbeResult {
    let started = Instant::now();
    let mut samples: Vec<u64> = Vec::new();
    while samples.len() < FLOOR_SAMPLES
        || (samples.len() < MIN_SAMPLES && started.elapsed() < 4 * BUDGET)
        || (samples.len() * batch < TARGET_CALLS && started.elapsed() < BUDGET)
    {
        let i = samples.len();
        let mut state = setup(i);
        let t = Instant::now();
        for j in 0..batch {
            op(&mut state, i * batch + j);
        }
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let per_call = |ns: f64| ns / batch as f64 / ns_per_unit;
    let as_f64: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    ProbeResult {
        metric,
        median: per_call(median(&as_f64)),
        p99: per_call(percentile(&mut samples, 99.0) as f64),
        calls: samples.len() * batch,
    }
}

/// Runs every probe on the inputs of `cell`.
pub fn run(cell: &Cell, depths: Depths) -> ProbeResults {
    let config = cell.builder.build_config();
    let topology = topology_of(&config.topology, config.seed);
    let graph = &topology.graph;
    let sim = cell.builder.build();
    let subscriptions = sim.subscriptions();
    let scheduler = sim.scheduler().clone();
    let workload = &config.workload;
    let mut rng = SimRng::seed_from(config.seed).split(0x009B_0BE5);
    let mut results = Vec::new();

    // Generated messages and, per message, the matching set the engine
    // would freeze as the copy's scope at publication.
    let (publisher, publisher_broker) = topology.publishers[0];
    let messages: Vec<Arc<Message>> = (0..MESSAGES)
        .map(|i| {
            let id = MessageId::new(i as u64);
            Arc::new(workload.generate_message(id, publisher, SimTime::ZERO, &mut rng))
        })
        .collect();
    let index =
        MatchIndex::from_subscriptions(subscriptions.iter().map(|(s, _)| (s.id, &s.filter)));
    let mut scratch: Vec<SubscriptionId> = Vec::new();
    results.push(measure(
        "filter.index.match_ns",
        1.0,
        1,
        |_| (),
        |_, i| {
            index.matching_into(&messages[i % MESSAGES].head, &mut scratch);
            black_box(scratch.len());
        },
    ));
    let match_sets: Vec<Vec<SubscriptionId>> =
        messages.iter().map(|m| index.matching(&m.head)).collect();

    let population = SharedPopulation::from_population(subscriptions);
    {
        let groups: Vec<_> = population.groups().map(|(_, group)| group).collect();
        let n = groups.len().max(1);
        results.push(measure(
            "filter.cover.probe_ns",
            1.0,
            n,
            |_| (),
            |_, i| {
                let head = &messages[i / n % MESSAGES].head;
                black_box(groups[i % n].summary_matches(head));
            },
        ));
    }

    // A fresh interner per sample: every call is the miss path on a
    // real-size scope (exact forwarding interns one new set per publish).
    results.push(measure(
        "filter.scope.intern_ns",
        1.0,
        1,
        |_| ScopeInterner::new(),
        |interner, i| {
            black_box(interner.intern(&match_sets[i % MESSAGES]));
        },
    ));

    results.push(measure(
        "overlay.routing.compute_ms",
        1e6,
        1,
        |_| (),
        |_, _| {
            black_box(Routing::compute_filtered(graph, |_| true));
        },
    ));

    // Alternately fail and restore one link of a cycling choice; every call
    // is one incremental route update.
    let links: Vec<LinkId> = graph.links().map(|l| l.id).collect();
    let mut routing = Routing::compute(graph);
    let mut down: Option<LinkId> = None;
    results.push(measure(
        "overlay.routing.delta_us",
        1e3,
        1,
        |_| (),
        |_, i| match down.take() {
            None => {
                let link = links[(i / 2 * 7) % links.len()];
                black_box(routing.update_for_link_change(graph, |l| l != link, &[link], &[]));
                down = Some(link);
            }
            Some(link) => {
                black_box(routing.update_for_link_change(graph, |_| true, &[], &[link]));
            }
        },
    ));
    if let Some(link) = down {
        routing.update_for_link_change(graph, |_| true, &[], &[link]);
    }

    let handle: PopulationHandle = Arc::new(RwLock::new(population));
    let edges: Vec<BrokerId> = graph.edge_brokers();
    let mut table = SparseTable::build(publisher_broker, &routing, &handle);
    results.push(measure(
        "overlay.sparse.sync_aggregate_us",
        1e3,
        1,
        |_| (),
        |_, i| {
            black_box(table.sync_aggregate(&routing, edges[i % edges.len()]));
        },
    ));

    // The publisher-side broker receives every generated message; a clone
    // per sample keeps its queues from growing across samples.
    let pristine = BrokerState::from_overlay(graph, publisher_broker, table, scheduler.clone());
    let scopes: Vec<ScopeSet> = {
        let mut interner = ScopeInterner::new();
        match_sets.iter().map(|ids| interner.intern(ids)).collect()
    };
    let arrival_time = SimTime::ZERO + Duration::from_millis_f64(2.0);
    results.push(measure(
        "core.broker.arrival_ns",
        1.0,
        1,
        |_| pristine.clone(),
        |broker, i| {
            let k = i % MESSAGES;
            black_box(broker.handle_arrival_scoped(
                Arc::clone(&messages[k]),
                arrival_time,
                Some(&scopes[k]),
            ));
        },
    ));

    // The deepest output queue after as many arrivals as the run's peak
    // queue depth; every sample pops once from a fresh copy under the
    // workload's own strategy.
    let depth = depths.queue.clamp(1, MAX_QUEUE_DEPTH);
    let mut loaded = pristine.clone();
    for k in 0..depth {
        let k = k % MESSAGES;
        loaded.handle_arrival_scoped(Arc::clone(&messages[k]), arrival_time, Some(&scopes[k]));
    }
    let queue = loaded
        .neighbors()
        .into_iter()
        .filter_map(|n| loaded.queue(n))
        .max_by_key(|q| q.len())
        .cloned();
    if let Some(queue) = queue {
        results.push(measure(
            "core.queue.pop_next_ns",
            1.0,
            1,
            |_| queue.clone(),
            |q, _| {
                black_box(q.pop_next(arrival_time, &scheduler));
            },
        ));
    }

    // The classic hold model: a calendar queue at the run's peak pending
    // depth, each call one pop plus one push a random increment later.
    let pending = depths.pending.clamp(MIN_SAMPLES, MAX_PENDING);
    let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
    let horizon_ms = 10_000.0;
    for seq in 0..pending as u64 {
        calendar.push(Scheduled {
            time: SimTime::ZERO + Duration::from_millis_f64(rng.uniform_range(0.0, horizon_ms)),
            seq,
            item: 0,
        });
    }
    let mean_gap = 1.0 / horizon_ms;
    results.push(measure(
        "sim.sched.hold_ns",
        1.0,
        64,
        |_| (),
        |_, _| {
            let event = calendar.pop().expect("the hold model keeps the queue full");
            calendar.push(Scheduled {
                time: event.time + Duration::from_millis_f64(rng.exponential(mean_gap)),
                ..event
            });
        },
    ));

    let model = config.link_model.create();
    let quality = graph.links().next().map(|l| l.quality.clone());
    if let Some(quality) = quality {
        results.push(measure(
            "net.linkmodel.sample_ns",
            1.0,
            64,
            |_| (),
            |_, _| {
                black_box(model.sample_transfer(&quality, workload.message_size_kb, &mut rng));
            },
        ));
    }

    let normal = Normal::new(75.0, 20.0);
    results.push(measure(
        "stats.normal.cdf_ns",
        1.0,
        64,
        |_| (),
        |_, i| {
            black_box(normal.cdf(black_box(15.0 + (i % 120) as f64)));
        },
    ));

    ProbeResults(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn measure_honours_the_call_target_and_scales_units() {
        let mut calls = 0usize;
        let result = measure("stats.normal.cdf_ns", 1e3, 10, |_| (), |_, _| calls += 1);
        assert_eq!(result.calls, calls);
        assert!(calls >= TARGET_CALLS.min(FLOOR_SAMPLES * 10));
        assert!(result.median >= 0.0 && result.p99 >= result.median);
    }

    #[test]
    fn every_probe_reports_a_catalogued_metric_on_a_paper_cell() {
        let inputs = Workload::PaperGrid.inputs(11);
        let results = run(
            &inputs.cells[0],
            Depths {
                queue: 8,
                pending: 64,
            },
        );
        assert_eq!(results.0.len(), 11);
        for probe in &results.0 {
            let def = crate::metrics::find(probe.metric).expect("catalogued");
            assert!(def.bound.is_none());
            assert!(probe.calls >= FLOOR_SAMPLES, "{}", probe.metric);
            assert!(probe.median.is_finite() && probe.median >= 0.0);
        }
        assert!(Json::parse(&results.to_json().to_string()).is_ok());
    }
}
