//! Runs one workload: repetitions, output checks, metrics.
//!
//! A repetition builds and runs every cell of the workload, cell by cell,
//! timing `builder.build()` (which includes `prepare()`) and the run
//! separately. Repetition 0 is a discarded warm-up that also fixes the
//! reference outcome of every cell; measured repetitions repeat until
//! `--seconds` of build + run wall have been spent. End-to-end timings come
//! from plain `Simulation::try_run` / `try_run_sharded`; with `--trace 1` an
//! extra repetition drives the same engine through [`crate::trace`], and the
//! layer probes run last.

use std::time::Instant;

use bdps_sim::prelude::*;

use crate::json::Json;
use crate::metrics::{self, SPAN_KINDS};
use crate::probes;
use crate::stats::{median, Summary5};
use crate::trace::{self, CellTrace, TraceSummary};
use crate::workloads::{Cell, CellResult, Inputs, Traffic, Workload};

/// Measured repetitions never exceed this, however short they are.
const MAX_REPS: usize = 40;
/// Raw spans written to the trace file (the aggregates cover all of them).
const MAX_SPANS_WRITTEN: usize = 20_000;

/// What must repeat exactly between repetitions of a cell, between its
/// traced and untraced run, and between sharded and sequential execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub events: u64,
    pub published: u64,
    pub on_time: u64,
    pub late: u64,
    pub interested: u64,
    pub earning: f64,
    pub transmissions: u64,
    pub message_number: u64,
    pub dropped: [u64; 3],
    pub finished_at_us: u64,
}

impl Digest {
    pub fn of(o: &SimulationOutcome) -> Digest {
        Digest {
            events: o.events_processed,
            published: o.published,
            on_time: o.tracker.total_on_time(),
            late: o.tracker.total_late(),
            interested: o.tracker.total_interested(),
            earning: o.tracker.total_earning().as_f64(),
            transmissions: o.transmissions,
            message_number: o.message_number(),
            dropped: [
                o.dropped_expired(),
                o.dropped_unlikely(),
                o.dropped_unsubscribed(),
            ],
            finished_at_us: o.finished_at.as_micros(),
        }
    }
}

/// The outcome counters the per-layer metrics are made of, summed (or
/// maxed) over a repetition's cells.
#[derive(Debug, Clone, Default)]
struct Counts {
    events: u64,
    peak_pending: u64,
    scope_interns: u64,
    scope_hits: u64,
    aggregate_entries: u64,
    expanded_at_edge: u64,
    entries_retargeted: u64,
    tables_rebuilt_full: u64,
    table_bytes: u64,
    fp_forwards: u64,
    transmissions: u64,
    completed_transfers: u64,
    enqueued: u64,
    requeued: u64,
    dropped: [u64; 3],
    on_time: u64,
    late: u64,
    earning: f64,
    duplicates: u64,
    /// On-time-weighted sums of the cells' delay quantiles (ms · pairs).
    delay_p50_weighted: f64,
    delay_p95_weighted: f64,
    max_util_pct: f64,
    busy_us: u64,
    flow_time_us: u64,
    peak_queue: u64,
}

impl Counts {
    fn add(&mut self, o: &SimulationOutcome) {
        self.events += o.events_processed;
        self.peak_pending = self.peak_pending.max(o.peak_pending_events);
        self.scope_interns += o.scope_interns;
        self.scope_hits += o.scope_intern_hits;
        self.aggregate_entries += o.aggregate_entries;
        self.expanded_at_edge += o.expanded_at_edge();
        self.entries_retargeted += o.entries_retargeted;
        self.tables_rebuilt_full += o.tables_rebuilt_full;
        self.table_bytes += o.table_bytes_estimate;
        self.fp_forwards += o.false_positive_forwards();
        self.transmissions += o.transmissions;
        self.completed_transfers += o.completed_transfers;
        self.enqueued += o.enqueued();
        self.requeued += o.requeued();
        self.dropped[0] += o.dropped_expired();
        self.dropped[1] += o.dropped_unlikely();
        self.dropped[2] += o.dropped_unsubscribed();
        let on_time = o.tracker.total_on_time();
        self.on_time += on_time;
        self.late += o.tracker.total_late();
        self.earning += o.tracker.total_earning().as_f64();
        self.duplicates += o.tracker.duplicate_deliveries();
        let mut delays = o.valid_delays_ms.clone();
        self.delay_p50_weighted += delays.try_quantile(0.5).unwrap_or(0.0) * on_time as f64;
        self.delay_p95_weighted += delays.try_quantile(0.95).unwrap_or(0.0) * on_time as f64;
        let span_us = o.finished_at.as_micros().max(1) as f64;
        for load in &o.link_loads {
            self.max_util_pct = self.max_util_pct.max(100.0 * load.busy_us as f64 / span_us);
            self.busy_us += load.busy_us;
            self.flow_time_us += load.flow_time_us;
            self.peak_queue = self.peak_queue.max(load.peak_queue);
        }
    }
}

/// Failed-operation accounting: every cell run and every workload-level
/// check is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn failed(&self) -> u64 {
        // One cell can fail several audits; it still is one failed operation
        // at most per attempted one.
        (self.failures.len() as u64).min(self.attempted)
    }
}

/// How a repetition executes its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Sharded(usize),
    Traced,
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    digests: Vec<Option<Digest>>,
    counts: Counts,
    traces: Vec<CellTrace>,
}

/// One cell, built and run: the two walls and what the run returned.
struct CellRun {
    build_s: f64,
    run_s: f64,
    result: Result<(SimulationOutcome, Option<CellTrace>), SimError>,
}

fn run_cell(cell: &Cell, mode: Mode, span_hint: usize) -> CellRun {
    let build_start = Instant::now();
    let sim = cell.builder.build();
    let build_s = build_start.elapsed().as_secs_f64();
    let run_start = Instant::now();
    let result = match mode {
        Mode::Plain => sim.try_run().map(|o| (o, None)),
        Mode::Sharded(n) => bdps_sim::try_run_sharded(sim, n).map(|o| (o, None)),
        Mode::Traced => trace::run_traced(sim, span_hint).map(|(o, t)| (o, Some(t))),
    };
    CellRun {
        build_s,
        run_s: run_start.elapsed().as_secs_f64(),
        result,
    }
}

/// One repetition over all cells. Audits every cell (no `SimError`,
/// conservation, no duplicates) and, when a `reference` is given, compares
/// each cell's digest with it.
fn repetition(
    cells: &[Cell],
    mode: Mode,
    what: &str,
    reference: Option<&[Option<Digest>]>,
    checks: &mut Checks,
) -> Rep {
    let mut rep = Rep {
        setup_s: 0.0,
        run_s: 0.0,
        digests: Vec::with_capacity(cells.len()),
        counts: Counts::default(),
        traces: Vec::new(),
    };
    for (i, cell) in cells.iter().enumerate() {
        // Pre-size the span buffer from the reference run so the traced loop
        // never reallocates: one scheduler span and one handler span per event.
        let span_hint = reference
            .and_then(|r| r[i].as_ref())
            .map_or(0, |d| 2 * d.events as usize + 2);
        let CellRun {
            build_s,
            run_s,
            result,
        } = run_cell(cell, mode, span_hint);
        rep.setup_s += build_s;
        rep.run_s += run_s;
        let mut problems = Vec::new();
        let digest = match result {
            Err(e) => {
                problems.push(format!("SimError: {e}"));
                None
            }
            Ok((outcome, cell_trace)) => {
                if let Err(v) = outcome.check_conservation() {
                    problems.push(v.to_string());
                }
                if let Err(v) = outcome.check_no_duplicates() {
                    problems.push(v.to_string());
                }
                rep.counts.add(&outcome);
                rep.traces.extend(cell_trace);
                Some(Digest::of(&outcome))
            }
        };
        if let (Some(reference), Some(digest)) = (reference, &digest) {
            if reference[i].as_ref() != Some(digest) {
                problems.push(format!(
                    "outcome differs from the reference repetition: {digest:?} vs {:?}",
                    reference[i]
                ));
            }
        }
        checks.check(problems.is_empty(), || {
            format!("{what} cell {}: {}", cell.label, problems.join("; "))
        });
        rep.digests.push(digest);
    }
    rep
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a finished run reports.
pub struct RunReport {
    pub checks: Checks,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The detail file's content.
    pub detail: Json,
}

impl RunReport {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value)| {
            let unit = metrics::find(name).expect("catalogued metric").unit;
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.checks.failures.is_empty())),
            ("attempted", Json::from(self.checks.attempted)),
            ("failed", Json::from(self.checks.failed())),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

fn summary_json(s: &Summary5) -> Json {
    Json::obj([
        ("n", Json::from(s.n)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

/// The timings the per-layer catalogue repeats beside the counts.
struct Timing {
    setup_median_s: f64,
    run_median_s: f64,
    /// Run wall of repetition 0, which is always the sequential loop.
    sequential_run_s: f64,
    sharded: bool,
}

/// The span metrics of a traced repetition: four numbers per event kind,
/// the scheduler step, the run span's self time, the tracing overhead
/// against the untraced median, and the wasted-pop ratio of the link model.
fn span_values(
    summary: &TraceSummary,
    counts: &Counts,
    traced_run_s: f64,
    untraced_run_s: f64,
) -> Vec<(&'static str, f64)> {
    let mut values = Vec::new();
    for (k, kind) in SPAN_KINDS.iter().enumerate() {
        let stats = &summary.kinds[k];
        // `scn_other` (rate changes, phase marks) has spans but no metrics.
        let name = |suffix: &str| {
            metrics::find(&format!("sim.engine.{kind}.{suffix}")).map(|def| def.name)
        };
        values.extend(
            [
                (name("count"), stats.count as f64),
                (name("self_ms"), stats.self_ns as f64 / 1e6),
                (name("share_pct"), summary.share_pct(k)),
                (name("p99_us"), stats.p99_ns as f64 / 1e3),
            ]
            .into_iter()
            .filter_map(|(name, value)| Some((name?, value))),
        );
    }
    let flow_pops = SPAN_KINDS
        .iter()
        .position(|k| *k == "flow_complete")
        .map_or(0, |k| summary.kinds[k].count);
    let stale_flow_pct = if flow_pops == 0 {
        0.0
    } else {
        100.0 * (1.0 - counts.completed_transfers as f64 / flow_pops as f64)
    };
    values.extend([
        (
            "sim.sched.take_frontier.self_ms",
            summary.kinds[trace::TAKE_FRONTIER].self_ns as f64 / 1e6,
        ),
        (
            "sim.sched.take_frontier.share_pct",
            summary.share_pct(trace::TAKE_FRONTIER),
        ),
        ("sim.engine.run.self_ms", summary.run_self_ns as f64 / 1e6),
        (
            "trace.overhead_pct",
            100.0 * (traced_run_s - untraced_run_s) / untraced_run_s,
        ),
        ("net.linkmodel.stale_flow_pct", stale_flow_pct),
    ]);
    values
}

/// The per-layer metrics every `--trace 1` run has, traced repetition or
/// not: build / shard timings and the exact outcome counts.
fn per_layer_values(counts: &Counts, timing: &Timing) -> Vec<(&'static str, f64)> {
    let on_time = counts.on_time.max(1) as f64;
    let sharded = |value: f64| if timing.sharded { value } else { 0.0 };
    vec![
        ("sim.builder.build_ms", timing.setup_median_s * 1e3),
        ("sim.shard.run_ms", sharded(timing.run_median_s * 1e3)),
        (
            "sim.shard.speedup_vs_seq",
            sharded(timing.sequential_run_s / timing.run_median_s),
        ),
        ("sim.engine.events", counts.events as f64),
        ("sim.sched.peak_pending", counts.peak_pending as f64),
        ("filter.scope.interns", counts.scope_interns as f64),
        (
            "filter.scope.hit_pct",
            100.0 * counts.scope_hits as f64 / counts.scope_interns.max(1) as f64,
        ),
        (
            "overlay.sparse.aggregate_entries",
            counts.aggregate_entries as f64,
        ),
        (
            "overlay.sparse.expanded_at_edge",
            counts.expanded_at_edge as f64,
        ),
        (
            "overlay.subtable.entries_retargeted",
            counts.entries_retargeted as f64,
        ),
        (
            "overlay.subtable.tables_rebuilt_full",
            counts.tables_rebuilt_full as f64,
        ),
        ("overlay.table_mb", counts.table_bytes as f64 / 1e6),
        (
            "core.broker.fp_forward_pct",
            100.0 * counts.fp_forwards as f64 / counts.transmissions.max(1) as f64,
        ),
        ("core.broker.enqueued", counts.enqueued as f64),
        ("core.broker.requeued", counts.requeued as f64),
        ("core.queue.dropped_expired", counts.dropped[0] as f64),
        ("core.queue.dropped_unlikely", counts.dropped[1] as f64),
        ("core.queue.dropped_unsubscribed", counts.dropped[2] as f64),
        ("core.objective.late_pairs", counts.late as f64),
        (
            "core.objective.delay_p50_ms",
            counts.delay_p50_weighted / on_time,
        ),
        (
            "core.objective.delay_p95_ms",
            counts.delay_p95_weighted / on_time,
        ),
        ("core.objective.duplicates", counts.duplicates as f64),
        ("net.link.transmissions", counts.transmissions as f64),
        ("net.link.max_util_pct", counts.max_util_pct),
        (
            "net.link.mean_flows",
            counts.flow_time_us as f64 / counts.busy_us.max(1) as f64,
        ),
        ("net.link.peak_queue", counts.peak_queue as f64),
    ]
}

/// Runs `workload` on the inputs `seed` generates, measuring for about
/// `seconds`, and returns the report (the caller prints and stores it).
pub fn run_workload(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunReport {
    let Inputs { cells, scheduled } = workload.inputs(seed);
    let mut checks = Checks::default();
    let measured_mode = match workload.shards() {
        1 => Mode::Plain,
        n => Mode::Sharded(n),
    };

    // Repetition 0: warm-up and reference. Always the sequential loop, so
    // the sharded workload's repetitions are checked against sequential
    // execution of the same inputs.
    let warmup = repetition(&cells, Mode::Plain, "warm-up", None, &mut checks);
    let reference = warmup.digests.clone();

    // A traced run spends half its budget on untraced repetitions (the
    // baseline of `trace.overhead_pct`), then traces once and probes.
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut reps: Vec<Rep> = Vec::new();
    let mut spent = 0.0;
    while reps.is_empty() || (spent < budget && reps.len() < MAX_REPS) {
        let what = format!("repetition {}", reps.len() + 1);
        let rep = repetition(&cells, measured_mode, &what, Some(&reference), &mut checks);
        spent += rep.setup_s + rep.run_s;
        reps.push(rep);
    }

    let traced = (trace && measured_mode == Mode::Plain).then(|| {
        repetition(
            &cells,
            Mode::Traced,
            "traced",
            Some(&reference),
            &mut checks,
        )
    });
    let summary = traced.as_ref().map(|rep| TraceSummary::of(&rep.traces));

    // Workload-level checks: traffic floors and the paper's orderings.
    let last = reps.last().expect("at least one measured repetition");
    let cell_results: Vec<CellResult> = cells
        .iter()
        .zip(&last.digests)
        .filter_map(|(cell, digest)| {
            digest.as_ref().map(|d| CellResult {
                tag: cell.tag,
                on_time: d.on_time,
            })
        })
        .collect();
    let traffic = Traffic {
        events: last.counts.events,
        transmissions: last.counts.transmissions,
        scheduled,
        span_counts: summary.as_ref().map(TraceSummary::event_counts),
    };
    let shape = workload.shape_failures(&cell_results, &traffic);
    checks.check(shape.is_empty(), || shape.join("; "));

    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let run_median = median(&run);
    let sim_secs: u64 = cells.iter().map(|c| c.sim_secs).sum();
    let counts = &last.counts;

    let timing = Timing {
        setup_median_s: median(&setup),
        run_median_s: run_median,
        sequential_run_s: warmup.run_s,
        sharded: measured_mode != Mode::Plain,
    };
    let mut probe_detail = None;
    let values = if trace {
        let mut values = per_layer_values(counts, &timing);
        if let (Some(rep), Some(summary)) = (&traced, &summary) {
            values.extend(span_values(summary, counts, rep.run_s, run_median));
        }
        let depths = probes::Depths {
            queue: counts.peak_queue as usize,
            pending: counts.peak_pending as usize,
        };
        let probed = probes::run(&cells[0], depths);
        values.extend(probed.metrics());
        probe_detail = Some(probed.to_json());
        values
    } else {
        let on_time = counts.on_time.max(1) as f64;
        vec![
            ("setup_s", timing.setup_median_s),
            ("wall_us_per_sim_sec", run_median * 1e6 / sim_secs as f64),
            ("wall_us_per_on_time_pair", run_median * 1e6 / on_time),
            ("on_time_pairs", counts.on_time as f64),
            ("earning_k", counts.earning / 1000.0),
            (
                "transmissions_per_on_time_pair",
                counts.transmissions as f64 / on_time,
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };

    // `harness.failed_ops_pct` needs the final tally, so it goes in last;
    // then every catalogued metric of this mode is present exactly once
    // (spans the sharded workload cannot record read 0).
    let catalogue = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for (name, _) in &values {
        assert!(
            catalogue.iter().any(|def| def.name == *name),
            "{name} is reported but not catalogued"
        );
    }
    let failed_pct = 100.0 * checks.failed() as f64 / checks.attempted.max(1) as f64;
    let metrics: Vec<(&'static str, f64)> = catalogue
        .iter()
        .map(|def| {
            let value = match def.name {
                "harness.failed_ops_pct" => failed_pct,
                name => values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            };
            (def.name, value)
        })
        .collect();

    let mut detail = vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::from(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("threads", Json::from(workload.shards())),
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cells", Json::from(cells.len())),
        ("sim_secs", Json::from(sim_secs)),
        ("measured_repetitions", Json::from(reps.len())),
        ("setup_s", summary_json(&Summary5::of(&setup))),
        ("run_s", summary_json(&Summary5::of(&run))),
        ("warmup_run_s", Json::Num(warmup.run_s)),
        ("attempted", Json::from(checks.attempted)),
        ("failed", Json::from(checks.failed())),
        (
            "failures",
            Json::Arr(checks.failures.iter().map(Json::str).collect()),
        ),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(n, v)| (*n, Json::Num(*v)))),
        ),
    ];
    if let (Some(rep), Some(summary)) = (&traced, &summary) {
        detail.push(("top_span", Json::str(summary.top_kind())));
        detail.push(("spans", spans_json(&cells, &rep.traces)));
    }
    detail.extend(probe_detail.map(|p| ("probes", p)));
    RunReport {
        checks,
        metrics,
        detail: Json::obj(detail),
    }
}

/// The traced cells' spans for the trace file: per cell its `run` span and
/// the leaves under it (`[kind, start_ns, dur_ns]`, parent = the cell's run
/// span, cell id = position), capped at [`MAX_SPANS_WRITTEN`] overall.
fn spans_json(cells: &[Cell], traces: &[CellTrace]) -> Json {
    let mut budget = MAX_SPANS_WRITTEN;
    let cells_json = cells.iter().zip(traces).enumerate().map(|(id, (cell, t))| {
        let take = t.spans.len().min(budget);
        budget -= take;
        let leaves = t.spans[..take].iter().map(|s| {
            Json::Arr(vec![
                Json::str(trace::kind_name(s.kind as usize)),
                Json::from(s.start_ns),
                Json::from(s.dur_ns),
            ])
        });
        Json::obj([
            ("cell", Json::from(id)),
            ("label", Json::str(cell.label.as_str())),
            ("run_ns", Json::from(t.run_ns)),
            ("run_self_ns", Json::from(t.run_self_ns())),
            ("spans_total", Json::from(t.spans.len())),
            ("spans", Json::Arr(leaves.collect())),
        ])
    });
    Json::Arr(cells_json.collect())
}
