//! `bdps-benchmark compare <parent.json> <change.json>`: applies every
//! end-to-end metric's bound to two suite files (see `suite` in `main.rs`).
//!
//! One row per (workload, metric), read by the rules of the
//! choosing-metrics guide: the change's median may be worse than the
//! parent's by at most the metric's bound; where the run-to-run spread
//! (interquartile range over the median, on either side) is wider than the
//! bound the row is *unresolved*, unless every run of the change reads
//! better than every run of the parent. Count metrics additionally compare
//! exactly, seed by seed, when both files hold the same seeds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{repeats_exactly, Better, MetricDef, END_TO_END};
use crate::stats::{median, spread};

/// One suite file: `workload -> metric -> [(seed, value)]` for its untraced
/// runs, `(workload, seed) -> metric -> value` for the exact counts of its
/// traced runs, and the failed operations per workload over all runs.
#[derive(Debug, Default)]
pub struct SuiteData {
    pub values: BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>,
    pub layer_counts: BTreeMap<(String, u64), BTreeMap<String, f64>>,
    pub failed: BTreeMap<String, u64>,
}

impl SuiteData {
    pub fn from_json(doc: &Json) -> Result<SuiteData, String> {
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("suite file has no `runs` array")?;
        let mut data = SuiteData::default();
        for run in runs {
            let field = |key: &str| run.get(key).ok_or(format!("run without `{key}`"));
            let workload = field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?;
            let seed = field("seed")?.as_f64().ok_or("`seed` is not a number")? as u64;
            let failed = field("failed")?
                .as_f64()
                .ok_or("`failed` is not a number")? as u64;
            *data.failed.entry(workload.to_string()).or_default() += failed;
            let traced = field("trace")?.as_f64() != Some(0.0);
            let metrics = field("metrics")?
                .as_obj()
                .ok_or("`metrics` is not an object")?;
            for (name, value) in metrics {
                let value = value
                    .as_f64()
                    .ok_or(format!("metric {name} is not a number"))?;
                if !traced {
                    let per_metric = data.values.entry(workload.to_string()).or_default();
                    per_metric
                        .entry(name.clone())
                        .or_default()
                        .push((seed, value));
                } else if repeats_exactly(name) {
                    let counts = data.layer_counts.entry((workload.to_string(), seed));
                    counts.or_default().insert(name.clone(), value);
                }
            }
        }
        Ok(data)
    }
}

/// How one (workload, metric) row reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Signed change of the median as a share of the parent's, positive =
/// worse, whichever way the metric improves.
fn worsening(def: &MetricDef, parent_median: f64, change_median: f64) -> f64 {
    if parent_median == 0.0 {
        return 0.0;
    }
    let delta = (change_median - parent_median) / parent_median.abs();
    match def.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Classifies one row from the two sides' values.
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let worse_by = worsening(def, median(parent), median(change));
    let noise = spread(parent).max(spread(change));
    let better = |c: f64, p: f64| match def.better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let dominates = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if dominates {
        Verdict::Better
    } else if noise > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > noise && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn values(pairs: &[(u64, f64)]) -> Vec<f64> {
    pairs.iter().map(|(_, v)| *v).collect()
}

/// Seeds on which an exact metric differs between the files, or `None`
/// when the files do not hold the same seeds.
fn exact_mismatches(parent: &[(u64, f64)], change: &[(u64, f64)]) -> Option<Vec<u64>> {
    let by_seed = |pairs: &[(u64, f64)]| pairs.iter().copied().collect::<BTreeMap<u64, f64>>();
    let (p, c) = (by_seed(parent), by_seed(change));
    if p.len() != parent.len() || !p.keys().eq(c.keys()) {
        return None;
    }
    Some(
        p.iter()
            .filter(|(seed, v)| c[seed].to_bits() != v.to_bits())
            .map(|(seed, _)| *seed)
            .collect(),
    )
}

/// The comparison table and whether any row reads worse (or any run failed
/// operations).
pub fn compare(parent: &SuiteData, change: &SuiteData) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<26} {:<31} {:>13} {:>13} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "parent med", "change med", "worse%", "spread%", "bound%"
    );
    for (workload, parent_metrics) in &parent.values {
        let Some(change_metrics) = change.values.get(workload) else {
            let _ = writeln!(out, "{workload:<26} missing from the change file");
            regressed = true;
            continue;
        };
        for def in END_TO_END {
            let (Some(p), Some(c)) = (parent_metrics.get(def.name), change_metrics.get(def.name))
            else {
                let _ = writeln!(out, "{workload:<26} {:<31} missing", def.name);
                regressed = true;
                continue;
            };
            let (pv, cv) = (values(p), values(c));
            let row = verdict(def, &pv, &cv);
            regressed |= row == Verdict::Worse;
            let mut note = String::new();
            if repeats_exactly(def.name) {
                match exact_mismatches(p, c) {
                    Some(seeds) if seeds.is_empty() => note = "; exact: identical".into(),
                    Some(seeds) => note = format!("; exact: differs on seeds {seeds:?}"),
                    None => {}
                }
            }
            let _ = writeln!(
                out,
                "{workload:<26} {:<31} {:>13.4} {:>13.4} {:>+8.2} {:>7.2} {:>6.1}  {}{note}",
                def.name,
                median(&pv),
                median(&cv),
                100.0 * worsening(def, median(&pv), median(&cv)),
                100.0 * spread(&pv).max(spread(&cv)),
                100.0 * def.bound.unwrap_or(0.0),
                row.label(),
            );
        }
    }
    // Traced runs of the same workload and seed: every count the program
    // makes (span counts, outcome counts) must be identical.
    for ((workload, seed), p) in &parent.layer_counts {
        let Some(c) = change.layer_counts.get(&(workload.clone(), *seed)) else {
            continue;
        };
        let differing: Vec<&str> = p
            .iter()
            .filter(|(name, v)| c.get(*name).map(|x| x.to_bits()) != Some(v.to_bits()))
            .map(|(name, _)| name.as_str())
            .collect();
        let _ = match differing.as_slice() {
            [] => writeln!(
                out,
                "{workload:<26} traced, seed {seed}: {} per-layer counts identical",
                p.len()
            ),
            names => writeln!(
                out,
                "{workload:<26} traced, seed {seed}: per-layer counts differ: {}",
                names.join(", ")
            ),
        };
    }
    for (side, data) in [("parent", parent), ("change", change)] {
        for (workload, failed) in &data.failed {
            if *failed > 0 {
                let _ = writeln!(
                    out,
                    "{side}: {workload} reported {failed} failed operations"
                );
                regressed = true;
            }
        }
    }

    // The speed-vs-objective trade of aggregate forwarding, on one row per
    // side: wall per on-time pair and on-time pairs, exact vs aggregate.
    let pareto = |data: &SuiteData| -> Option<String> {
        let med = |workload: &str, metric: &str| {
            Some(median(&values(data.values.get(workload)?.get(metric)?)))
        };
        let (e, a) = ("churn_100k_exact", "churn_100k_aggregate");
        let (we, wa) = (
            med(e, "wall_us_per_on_time_pair")?,
            med(a, "wall_us_per_on_time_pair")?,
        );
        let (oe, oa) = (med(e, "on_time_pairs")?, med(a, "on_time_pairs")?);
        Some(format!(
            "exact {we:.3} us/pair, {oe:.0} pairs | aggregate {wa:.3} us/pair, {oa:.0} pairs | \
             aggregate/exact: {:.2}x wall per pair, {:.2}x on-time pairs",
            wa / we,
            oa / oe
        ))
    };
    for (side, data) in [("parent", parent), ("change", change)] {
        if let Some(row) = pareto(data) {
            let _ = writeln!(out, "pareto {side}: {row}");
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    /// `(workload, seed, [(metric, value)])`.
    type Row<'a> = (&'a str, u64, &'a [(&'a str, f64)]);

    fn suite(rows: &[Row]) -> SuiteData {
        suite_traced(rows, 0)
    }

    fn suite_traced(rows: &[Row], trace: u64) -> SuiteData {
        let runs = rows.iter().map(|(workload, seed, metrics)| {
            Json::obj([
                ("workload", Json::str(*workload)),
                ("seed", Json::from(*seed)),
                ("trace", Json::from(trace)),
                ("correct", Json::Bool(true)),
                ("attempted", Json::from(10u64)),
                ("failed", Json::from(0u64)),
                (
                    "metrics",
                    Json::obj(metrics.iter().map(|(n, v)| (*n, Json::Num(*v)))),
                ),
            ])
        });
        let doc = Json::obj([("runs", Json::Arr(runs.collect()))]);
        SuiteData::from_json(&Json::parse(&doc.to_string()).unwrap()).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let wall = find("wall_us_per_sim_sec").unwrap(); // lower is better, 15 %
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(wall, &steady, &steady), Verdict::WithinBound);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(wall, &steady, &slower), Verdict::Worse);
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.5).collect();
        assert_eq!(verdict(wall, &steady, &faster), Verdict::Better);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(verdict(wall, &noisy, &steady), Verdict::Unresolved);

        let pairs = find("on_time_pairs").unwrap(); // higher is better
        let fewer: Vec<f64> = steady.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(pairs, &steady, &fewer), Verdict::Worse);
        let more: Vec<f64> = steady.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict(pairs, &steady, &more), Verdict::Better);
    }

    #[test]
    fn table_has_a_row_per_metric_flags_regressions_and_prints_the_pareto_row() {
        let metrics = |scale: f64, pairs: f64| -> Vec<(&'static str, f64)> {
            END_TO_END
                .iter()
                .map(|m| match m.name {
                    "on_time_pairs" => (m.name, pairs),
                    _ => (m.name, 10.0 * scale),
                })
                .collect()
        };
        let (fast, slow) = (metrics(1.0, 700.0), metrics(2.0, 700.0));
        let agg = metrics(0.2, 200.0);
        let parent = suite(&[
            ("churn_100k_exact", 1, &fast),
            ("churn_100k_exact", 2, &fast),
            ("churn_100k_aggregate", 1, &agg),
        ]);
        let same = suite(&[
            ("churn_100k_exact", 1, &fast),
            ("churn_100k_exact", 2, &fast),
            ("churn_100k_aggregate", 1, &agg),
        ]);
        let (table, regressed) = compare(&parent, &same);
        assert!(!regressed, "{table}");
        assert_eq!(table.matches("within bound").count(), 2 * END_TO_END.len());
        assert!(table.contains("exact: identical"));
        assert!(table.contains("pareto parent: exact 10.000 us/pair, 700 pairs"));
        assert!(table.contains("0.29x on-time pairs"));

        let worse = suite(&[
            ("churn_100k_exact", 1, &slow),
            ("churn_100k_exact", 2, &slow),
            ("churn_100k_aggregate", 1, &agg),
        ]);
        let (table, regressed) = compare(&parent, &worse);
        assert!(regressed);
        assert!(table.contains("worse"), "{table}");
        assert!(table.contains("exact: differs on seeds [1, 2]"));
    }

    #[test]
    fn traced_runs_compare_their_counts_and_ignore_their_timings() {
        let run = |events: f64, self_ms: f64| -> Vec<(&'static str, f64)> {
            vec![
                ("sim.engine.events", events),
                ("sim.engine.publish.count", 39.0),
                ("sim.engine.publish.self_ms", self_ms),
            ]
        };
        let parent = suite_traced(&[("paper_grid", 1, &run(1000.0, 3.0))], 1);
        assert_eq!(parent.layer_counts[&("paper_grid".into(), 1)].len(), 2);
        assert!(parent.values.is_empty());
        let same = suite_traced(&[("paper_grid", 1, &run(1000.0, 9.0))], 1);
        let (table, _) = compare(&parent, &same);
        assert!(table.contains("2 per-layer counts identical"), "{table}");
        let moved = suite_traced(&[("paper_grid", 1, &run(1001.0, 3.0))], 1);
        let (table, _) = compare(&parent, &moved);
        assert!(
            table.contains("per-layer counts differ: sim.engine.events"),
            "{table}"
        );
    }

    #[test]
    fn failed_operations_and_missing_workloads_are_regressions() {
        let m: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        let parent = suite(&[("paper_grid", 1, &m)]);
        let (_, regressed) = compare(&parent, &SuiteData::default());
        assert!(regressed);
        let mut failing = suite(&[("paper_grid", 1, &m)]);
        failing.failed.insert("paper_grid".into(), 2);
        let (table, regressed) = compare(&parent, &failing);
        assert!(regressed);
        assert!(table.contains("reported 2 failed operations"));
    }
}
