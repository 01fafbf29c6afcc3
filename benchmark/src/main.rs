//! `bdps-benchmark`: the repository's benchmark.
//!
//! ```text
//! bdps-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! bdps-benchmark suite [--seeds <n>] [--first-seed <n>] [--seconds <s>] --out <file>
//! bdps-benchmark compare <parent.json> <change.json>
//! bdps-benchmark manifest
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one process, the result object on the last line of standard output and
//! a detail file (timing quartiles, failures, spans, probes) under `--out`.
//! `suite` runs every workload once per seed, each in a child process, and
//! collects the result lines into one file; `compare` applies the bounds to
//! two such files; `manifest` prints the `BENCHMARK.json` this code expects.

mod compare;
mod harness;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use workloads::{Workload, FRAME_SEED};

/// How long one run measures, as `BENCHMARK.json` states it.
const RUN_SECONDS: u64 = 12;
/// Where detail files go unless `--out` says otherwise: inside the
/// checkout, ignored by git.
const DEFAULT_OUT: &str = ".bench_out";

/// The `BENCHMARK.json` this binary implements.
fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        pairs.extend(m.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark/")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// One-value-per-line rendering of [`manifest`], so the committed file
/// diffs by metric.
fn manifest_text() -> String {
    let Json::Obj(pairs) = manifest() else {
        unreachable!("the manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{comma}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            value => out.push_str(&format!("  \"{key}\": {value}{comma}\n")),
        }
    }
    out.push_str("}\n");
    out
}

/// `--key value` pairs after the subcommand; unknown keys are errors.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .filter(|n| known.contains(n))
                .ok_or(format!(
                    "unknown argument {key:?} (known: --{})",
                    known.join(", --")
                ))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace", "out"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seed: u64 = flags.number("seed", FRAME_SEED)?;
    let seconds: f64 = flags.number("seconds", RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let trace = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let out_dir = flags.get("out").unwrap_or(DEFAULT_OUT);

    let report = harness::run_workload(workload, seed, seconds, trace);
    for failure in &report.checks.failures {
        eprintln!("FAILED: {failure}");
    }
    let detail_path = format!(
        "{out_dir}/{}.seed{seed}.trace{}.json",
        workload.name(),
        u8::from(trace)
    );
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&detail_path, format!("{}\n", report.detail)))
        .map_err(|e| format!("cannot write {detail_path}: {e}"))?;
    for (name, value) in &report.metrics {
        let unit = metrics::find(name).expect("catalogued metric").unit;
        println!("{name} = {value} {unit}");
    }
    println!("{}", report.result_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload once per seed (untraced) and once traced on the
/// first seed, one child process per run, and writes the collected result
/// lines to `--out`.
fn suite(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["seeds", "first-seed", "seconds", "out", "detail-out"],
    )?;
    let seeds: u64 = flags.number("seeds", 10)?;
    let first: u64 = flags.number("first-seed", 1)?;
    let seconds: u64 = flags.number("seconds", RUN_SECONDS)?;
    let out = flags.get("out").ok_or("suite needs --out <file>")?;
    let detail_out = flags.get("detail-out").unwrap_or(DEFAULT_OUT);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        let plan = (first..first + seeds)
            .map(|seed| (seed, 0))
            .chain([(first, 1)]);
        for (seed, trace) in plan {
            let started = std::time::Instant::now();
            let output = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .args(["--out", detail_out])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let result = Json::parse(line)
                .map_err(|e| format!("{} seed {seed}: no result line ({e})", workload.name()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed}: {}",
                    workload.name(),
                    output.status
                ));
            }
            let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
            let flat = result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or(&[])
                .iter()
                .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Json::Null)));
            eprintln!(
                "{} seed {seed} trace {trace}: {:.1} s, failed {}",
                workload.name(),
                started.elapsed().as_secs_f64(),
                field("failed")
            );
            runs.push(Json::obj([
                ("workload", Json::str(workload.name())),
                ("seed", Json::from(seed)),
                ("trace", Json::from(trace as u64)),
                ("correct", field("correct")),
                ("attempted", field("attempted")),
                ("failed", field("failed")),
                ("metrics", Json::obj(flat)),
            ]));
        }
    }
    let mut text = String::from("{\"benchmark\": \"bdps-benchmark\", \"runs\": [\n");
    for (i, run) in runs.iter().enumerate() {
        text.push_str(&format!(
            "{run}{}\n",
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    text.push_str("]}\n");
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: bdps-benchmark compare <parent.json> <change.json>".into());
    };
    let load = |path: &String| -> Result<compare::SuiteData, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::SuiteData::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&load(parent)?, &load(change)?);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("suite") => suite(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest_text());
            Ok(ExitCode::SUCCESS)
        }
        _ => run(&args),
    };
    result.unwrap_or_else(|message| {
        eprintln!("bdps-benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root is exactly what this binary
    /// implements: same command, workloads, metrics, units and bounds.
    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `bdps-benchmark manifest`"
        );
        assert_eq!(Json::parse(&manifest_text()).unwrap(), manifest());
    }

    #[test]
    fn manifest_names_six_workloads_and_fits_the_contract() {
        let m = manifest();
        let names = |key: &str| -> Vec<String> {
            m.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|x| x.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            [
                "paper_grid",
                "churn_100k_exact",
                "churn_100k_aggregate",
                "linkstorm_100k_aggregate",
                "flashcrowd_fairshare",
                "churn_100k_shards2"
            ]
        );
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        let command = m.get("command").and_then(Json::as_arr).unwrap();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| c
            .as_str()
            .is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));
        let seconds = m.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn flags_reject_unknown_keys_and_missing_values() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let flags = Flags::parse(&args("--seed 7 --trace 1"), &["seed", "trace"]).unwrap();
        assert_eq!(flags.number("seed", 0u64), Ok(7));
        assert_eq!(flags.get("trace"), Some("1"));
        assert!(Flags::parse(&args("--sed 7"), &["seed"]).is_err());
        assert!(Flags::parse(&args("--seed"), &["seed"]).is_err());
        assert!(flags.number::<u64>("trace", 0).is_ok());
        let bad = Flags::parse(&args("--seed x"), &["seed"]).unwrap();
        assert!(bad.number("seed", 0u64).is_err());
    }
}
