//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction, in the order `BENCHMARK.json` lists them. A unit test pins the
//! two against each other.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, reported with `--trace 0`.
///
/// Bounds are sized from measured spreads (interquartile range over the
/// median, ten seeds; see `results/`), each at about three times the widest
/// spread any workload showed:
///
/// * the two wall metrics and `setup_s` take the contract's maximum because
///   this box's speed drifts over seconds to minutes — ten runs of
///   near-identical inputs spread 4–18 % whatever happens inside one run;
/// * the three count metrics repeat exactly for a fixed seed (`compare`
///   checks that seed by seed when both files hold the same seeds); their
///   bounds exist because the driver compares medians over *different*
///   seeds, and `paper_grid` draws topology, population and message stream
///   from the seed, which moves its totals by 2–3 %;
/// * `peak_rss_mb` is steady to 1–4 % sequentially, 4–6 % under the
///   two-worker sharded executor.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_us_per_sim_sec", "us/s", Lower, 0.25),
    e2e("wall_us_per_on_time_pair", "us", Lower, 0.25),
    e2e("on_time_pairs", "count", Higher, 0.10),
    e2e("earning_k", "k", Higher, 0.12),
    e2e("transmissions_per_on_time_pair", "ratio", Lower, 0.10),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// The event kinds a traced run attributes wall time to: the five
/// `EventKind` variants with `Scenario` split by `ScenarioAction`.
pub const SPAN_KINDS: &[&str] = &[
    "publish",
    "process",
    "send_complete",
    "flow_complete",
    "scn_join",
    "scn_leave",
    "scn_link_down",
    "scn_link_up",
    "scn_other",
];

/// Single-layer numbers, reported with `--trace 1`. Order: trace spans,
/// exact outcome counts, layer probes, harness self-checks.
pub const PER_LAYER: &[MetricDef] = &[
    // --- trace spans (frontier-stepped run) ---
    layer("sim.engine.publish.count", "count", Lower),
    layer("sim.engine.publish.self_ms", "ms", Lower),
    layer("sim.engine.publish.share_pct", "%", Lower),
    layer("sim.engine.publish.p99_us", "us", Lower),
    layer("sim.engine.process.count", "count", Lower),
    layer("sim.engine.process.self_ms", "ms", Lower),
    layer("sim.engine.process.share_pct", "%", Lower),
    layer("sim.engine.process.p99_us", "us", Lower),
    layer("sim.engine.send_complete.count", "count", Lower),
    layer("sim.engine.send_complete.self_ms", "ms", Lower),
    layer("sim.engine.send_complete.share_pct", "%", Lower),
    layer("sim.engine.send_complete.p99_us", "us", Lower),
    layer("sim.engine.flow_complete.count", "count", Lower),
    layer("sim.engine.flow_complete.self_ms", "ms", Lower),
    layer("sim.engine.flow_complete.share_pct", "%", Lower),
    layer("sim.engine.flow_complete.p99_us", "us", Lower),
    layer("sim.engine.scn_join.count", "count", Lower),
    layer("sim.engine.scn_join.self_ms", "ms", Lower),
    layer("sim.engine.scn_join.share_pct", "%", Lower),
    layer("sim.engine.scn_join.p99_us", "us", Lower),
    layer("sim.engine.scn_leave.count", "count", Lower),
    layer("sim.engine.scn_leave.self_ms", "ms", Lower),
    layer("sim.engine.scn_leave.share_pct", "%", Lower),
    layer("sim.engine.scn_leave.p99_us", "us", Lower),
    layer("sim.engine.scn_link_down.count", "count", Lower),
    layer("sim.engine.scn_link_down.self_ms", "ms", Lower),
    layer("sim.engine.scn_link_down.share_pct", "%", Lower),
    layer("sim.engine.scn_link_down.p99_us", "us", Lower),
    layer("sim.engine.scn_link_up.count", "count", Lower),
    layer("sim.engine.scn_link_up.self_ms", "ms", Lower),
    layer("sim.engine.scn_link_up.share_pct", "%", Lower),
    layer("sim.engine.scn_link_up.p99_us", "us", Lower),
    layer("sim.sched.take_frontier.self_ms", "ms", Lower),
    layer("sim.sched.take_frontier.share_pct", "%", Lower),
    layer("sim.engine.run.self_ms", "ms", Lower),
    layer("sim.builder.build_ms", "ms", Lower),
    layer("sim.shard.run_ms", "ms", Lower),
    layer("sim.shard.speedup_vs_seq", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    // --- exact outcome counts (repeat exactly for a fixed seed) ---
    layer("sim.engine.events", "count", Lower),
    layer("sim.sched.peak_pending", "count", Lower),
    layer("filter.scope.interns", "count", Lower),
    layer("filter.scope.hit_pct", "%", Higher),
    layer("overlay.sparse.aggregate_entries", "count", Lower),
    layer("overlay.sparse.expanded_at_edge", "count", Higher),
    layer("overlay.subtable.entries_retargeted", "count", Lower),
    layer("overlay.subtable.tables_rebuilt_full", "count", Lower),
    layer("overlay.table_mb", "MB", Lower),
    layer("core.broker.fp_forward_pct", "%", Lower),
    layer("core.broker.enqueued", "count", Lower),
    layer("core.broker.requeued", "count", Lower),
    layer("core.queue.dropped_expired", "count", Lower),
    layer("core.queue.dropped_unlikely", "count", Lower),
    layer("core.queue.dropped_unsubscribed", "count", Lower),
    layer("core.objective.late_pairs", "count", Lower),
    layer("core.objective.delay_p50_ms", "ms", Lower),
    layer("core.objective.delay_p95_ms", "ms", Lower),
    layer("core.objective.duplicates", "count", Lower),
    layer("net.link.transmissions", "count", Lower),
    layer("net.link.max_util_pct", "%", Lower),
    layer("net.link.mean_flows", "ratio", Lower),
    layer("net.link.peak_queue", "count", Lower),
    layer("net.linkmodel.stale_flow_pct", "%", Lower),
    // --- layer probes (median per call, timed from outside) ---
    layer("filter.index.match_ns", "ns", Lower),
    layer("filter.cover.probe_ns", "ns", Lower),
    layer("filter.scope.intern_ns", "ns", Lower),
    layer("overlay.routing.compute_ms", "ms", Lower),
    layer("overlay.routing.delta_us", "us", Lower),
    layer("overlay.sparse.sync_aggregate_us", "us", Lower),
    layer("core.queue.pop_next_ns", "ns", Lower),
    layer("core.broker.arrival_ns", "ns", Lower),
    layer("sim.sched.hold_ns", "ns", Lower),
    layer("net.linkmodel.sample_ns", "ns", Lower),
    layer("stats.normal.cdf_ns", "ns", Lower),
    // --- harness self-check (always 0 on a correct program, so it cannot be
    // an end-to-end metric under the driver's never-zero rule) ---
    layer("harness.failed_ops_pct", "%", Lower),
];

/// Whether a metric is a count the program makes, which repeats exactly for
/// a fixed seed: the three end-to-end counts, every span `.count`, and the
/// outcome-count block of the per-layer catalogue.
pub fn repeats_exactly(name: &str) -> bool {
    let position = |n: &str| PER_LAYER.iter().position(|m| m.name == n);
    let outcome_counts = position("sim.engine.events")..=position("net.link.peak_queue");
    matches!(
        name,
        "on_time_pairs" | "earning_k" | "transmissions_per_on_time_pair"
    ) || name.ends_with(".count")
        || position(name).is_some_and(|p| outcome_counts.contains(&Some(p)))
}

/// Looks a metric up in either catalogue.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s takes the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn exact_metrics_are_the_counts_not_the_timings() {
        for name in [
            "on_time_pairs",
            "sim.engine.publish.count",
            "sim.engine.events",
            "core.objective.delay_p95_ms",
            "net.link.peak_queue",
        ] {
            assert!(repeats_exactly(name), "{name}");
        }
        for name in [
            "setup_s",
            "peak_rss_mb",
            "sim.engine.publish.self_ms",
            "trace.overhead_pct",
            "net.linkmodel.stale_flow_pct",
            "filter.index.match_ns",
            "no.such.metric",
        ] {
            assert!(!repeats_exactly(name), "{name}");
        }
    }

    #[test]
    fn every_span_kind_but_the_catch_all_has_its_four_metrics() {
        for kind in SPAN_KINDS.iter().filter(|k| **k != "scn_other") {
            for suffix in ["count", "self_ms", "share_pct", "p99_us"] {
                let name = format!("sim.engine.{kind}.{suffix}");
                assert!(find(&name).is_some(), "missing {name}");
            }
        }
    }
}
