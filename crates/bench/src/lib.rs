//! # bdps-bench
//!
//! The experiment harness reproducing the paper's evaluation section.
//!
//! Each figure of the paper has a binary that regenerates its series:
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `fig4` | Fig. 4(a) SSD earning vs `r`, Fig. 4(b) PSD delivery rate vs `r` |
//! | `fig5` | Fig. 5(a) SSD earning vs rate, Fig. 5(b) SSD message number vs rate |
//! | `fig6` | Fig. 6(a) PSD delivery rate vs rate, Fig. 6(b) PSD message number vs rate |
//! | `show_topology` | Fig. 3 (the simulated 32-broker network) |
//! | `ablation_epsilon` | effect of the invalid-detection threshold ε |
//! | `ablation_estimation` | effect of bandwidth-estimation error |
//! | `ablation_scheddelay` | multi-seed variance of the headline comparison |
//! | `dynamics` | beyond the paper: strategies under churn, bursts, link failures |
//!
//! By default the binaries run a shortened publication period so that the
//! whole suite finishes in minutes; pass `--full` for the paper's 2-hour
//! runs. The comparison binaries (`fig5`, `fig6`, `ablation_scheddelay`,
//! `dynamics`) accept `--strategies <a,b,c>` with names resolved through
//! [`StrategyHandle::from_name`] (`fifo`, `rl`, `eb`, `pc`, `ebpc`,
//! `composite`, their aliases or display labels); `--scenarios` and
//! `--link-model` belong to `dynamics` alone. A flag a binary does not read
//! is an error, not a no-op, and so is a selection flag given an empty list.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bdps_core::config::StrategyKind;
use bdps_core::strategy::StrategyHandle;
use bdps_net::linkmodel::LinkModelKind;
use bdps_sim::engine::SimulationOutcome;
use bdps_sim::report::render_markdown_table;
use bdps_sim::runner::{sweep, SweepCell};
use bdps_sim::scenario::DynamicScenario;
use bdps_types::error::BdpsError;

/// Resolves every name through `from_name`; an unknown name prints the
/// `known` ones and exits with status 2.
fn resolve_or_exit<T>(
    what: &str,
    names: &[impl AsRef<str>],
    from_name: fn(&str) -> Option<T>,
    known: &[&str],
) -> Vec<T> {
    names
        .iter()
        .map(|name| {
            let name = name.as_ref();
            from_name(name).unwrap_or_else(|| {
                eprintln!("{}", BdpsError::unknown_name(what, name, known));
                std::process::exit(2);
            })
        })
        .collect()
}

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Publication period in seconds (the paper uses 7200 s).
    pub duration_secs: u64,
    /// Root RNG seed.
    pub seed: u64,
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Strategy names selected with `--strategies` (resolved through
    /// [`StrategyHandle::from_name`]); empty means the flag was not given:
    /// "use the binary's paper default".
    pub strategies: Vec<String>,
    /// Dynamic-scenario names selected with `--scenarios` (resolved through
    /// [`DynamicScenario::from_name`]); empty means "use the binary's
    /// default set".
    pub scenarios: Vec<String>,
    /// Link-model names selected with `--link-model` (resolved through
    /// [`LinkModelKind::from_name`]); empty means "use the binary's default"
    /// (usually the paper's constant-delay model).
    pub link_models: Vec<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            duration_secs: 1_200,
            seed: 20060816,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            strategies: Vec::new(),
            scenarios: Vec::new(),
            link_models: Vec::new(),
        }
    }
}

/// Cursor over a binary's argument list, shared by every experiment binary
/// so flag handling (and flag *rejection*) stays uniform.
#[derive(Debug)]
pub struct ArgParser {
    args: Vec<String>,
    pos: usize,
}

impl ArgParser {
    /// A parser over the process arguments (program name skipped).
    pub fn from_env() -> Self {
        ArgParser::new(std::env::args().skip(1).collect())
    }

    /// A parser over an explicit argument list.
    pub fn new(args: Vec<String>) -> Self {
        ArgParser { args, pos: 0 }
    }

    /// The next flag, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        let arg = self.args.get(self.pos)?.clone();
        self.pos += 1;
        Some(arg)
    }

    /// The value following a flag, or a diagnostic naming the flag.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        let value = self
            .args
            .get(self.pos)
            .ok_or_else(|| format!("{flag} requires a value"))?
            .clone();
        self.pos += 1;
        Ok(value)
    }

    /// Like [`value`](Self::value), parsed into any `FromStr` type.
    pub fn parse_value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} got invalid value {raw:?}"))
    }

    /// A comma-separated list value (`a,b,c`), trimmed, empties dropped. A
    /// list with nothing left (`,` or an empty string) is a diagnostic
    /// saying the flag needs at least one `what`.
    pub fn list_value(&mut self, flag: &str, what: &str) -> Result<Vec<String>, String> {
        let list: Vec<String> = self
            .value(flag)?
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if list.is_empty() {
            return Err(format!("{flag} needs at least one {what}"));
        }
        Ok(list)
    }
}

/// One of the shared selection flags. A binary names the ones it reads; the
/// others are unknown flags to it, exactly like a typo — a figure binary
/// that accepted `--link-model` and then ran the paper's links would have
/// quietly run its defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// `--strategies <a,b,c>`, read back with
    /// [`strategies_or`](ExperimentOptions::strategies_or).
    Strategies,
    /// `--scenarios <a,b,c>`, read back with
    /// [`scenarios_or`](ExperimentOptions::scenarios_or).
    Scenarios,
    /// `--link-model <a,b>`, read back with
    /// [`link_models_or`](ExperimentOptions::link_models_or).
    LinkModels,
}

impl Selection {
    fn usage(self) -> &'static str {
        match self {
            Selection::Strategies => "--strategies <a,b,c>",
            Selection::Scenarios => "--scenarios <a,b,c>",
            Selection::LinkModels => "--link-model <a,b>",
        }
    }
}

/// The flags every experiment binary accepts.
const RUN_FLAGS_HELP: &str = "--full | --duration <secs> | --seed <n> | --threads <n>";

/// The shared flags a binary reading `selections` accepts, for its usage and
/// unknown-flag messages (built from the same list [`ExperimentOptions::apply`]
/// consults, so the message cannot name a flag the binary ignores).
pub fn flags_help(selections: &[Selection]) -> String {
    selections
        .iter()
        .fold(RUN_FLAGS_HELP.to_string(), |help, s| {
            help + " | " + s.usage()
        })
}

impl ExperimentOptions {
    /// Parses the process arguments: the run-size flags (`--full`,
    /// `--duration <secs>`, `--seed <n>`, `--threads <n>`) plus the
    /// `selections` this binary reads. Any other flag is a **hard error**
    /// (exit 2) listing the accepted ones — a typo like `--scenario` used to
    /// be silently ignored, which meant a bench quietly ran its defaults.
    pub fn from_args(selections: &[Selection]) -> Self {
        Self::parse(ArgParser::from_env(), selections).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    }

    /// [`from_args`](Self::from_args) over an explicit parser, returning the
    /// diagnostic instead of exiting.
    fn parse(mut parser: ArgParser, selections: &[Selection]) -> Result<Self, String> {
        let mut opts = ExperimentOptions::default();
        while let Some(flag) = parser.next_flag() {
            if !opts.apply(&flag, &mut parser, selections)? {
                return Err(format!(
                    "unknown flag {flag:?}; known: {}",
                    flags_help(selections)
                ));
            }
        }
        Ok(opts)
    }

    /// Tries to consume one shared flag; returns `Ok(false)` when the flag
    /// is neither a run-size flag nor one of `selections` (so the binary can
    /// try its own flags before rejecting). Binary-specific parsers call
    /// this first and fall through to their own `match`.
    pub fn apply(
        &mut self,
        flag: &str,
        parser: &mut ArgParser,
        selections: &[Selection],
    ) -> Result<bool, String> {
        let reads = |selection| selections.contains(&selection);
        match flag {
            "--full" => self.duration_secs = 7_200,
            "--duration" => self.duration_secs = parser.parse_value(flag)?,
            "--seed" => self.seed = parser.parse_value(flag)?,
            "--threads" => self.threads = parser.parse_value(flag)?,
            "--strategies" if reads(Selection::Strategies) => {
                self.strategies = parser.list_value(flag, "strategy")?
            }
            "--scenarios" if reads(Selection::Scenarios) => {
                self.scenarios = parser.list_value(flag, "scenario")?
            }
            "--link-model" if reads(Selection::LinkModels) => {
                self.link_models = parser.list_value(flag, "link model")?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The strategies a comparison binary should run: the names given with
    /// `--strategies`, resolved through [`StrategyHandle::from_name`], or
    /// `default` when the flag was not given. Exits with a diagnostic on an
    /// unknown name, listing the known ones.
    pub fn strategies_or(&self, default: &[StrategyKind]) -> Vec<StrategyHandle> {
        if self.strategies.is_empty() {
            return default.iter().map(|s| s.resolve()).collect();
        }
        resolve_or_exit(
            "strategy",
            &self.strategies,
            StrategyHandle::from_name,
            &StrategyHandle::NAMES,
        )
    }

    /// The dynamic scenarios a binary should run: the names given with
    /// `--scenarios`, resolved through [`DynamicScenario::from_name`], or
    /// `default` when the flag was not given. Exits with a diagnostic on an
    /// unknown name.
    pub fn scenarios_or(&self, default: &[&str]) -> Vec<DynamicScenario> {
        let selected: Vec<&str> = self.scenarios.iter().map(String::as_str).collect();
        let names = if selected.is_empty() {
            default
        } else {
            &selected
        };
        resolve_or_exit(
            "scenario",
            names,
            DynamicScenario::from_name,
            &DynamicScenario::NAMES,
        )
    }

    /// The link models a binary should run: the names given with
    /// `--link-model`, resolved through [`LinkModelKind::from_name`], or
    /// `default` when the flag was not given. Exits with a diagnostic on an
    /// unknown name, listing the known ones — never silently defaults.
    pub fn link_models_or(&self, default: &[LinkModelKind]) -> Vec<LinkModelKind> {
        if self.link_models.is_empty() {
            return default.to_vec();
        }
        resolve_or_exit(
            "link model",
            &self.link_models,
            LinkModelKind::from_name,
            &LinkModelKind::NAMES,
        )
    }

    /// A banner describing the run parameters.
    pub fn banner(&self, title: &str) -> String {
        format!(
            "# {title}\n\npublication period: {} s (paper: 7200 s), seed: {}, threads: {}\n",
            self.duration_secs, self.seed, self.threads
        )
    }
}

/// The publishing rates used on the x-axis of Figs. 5 and 6.
pub const PAPER_RATES: [f64; 6] = [1.0, 3.0, 6.0, 9.0, 12.0, 15.0];

/// The strategies compared in Figs. 5 and 6.
pub const PAPER_STRATEGIES: [StrategyKind; 4] = [
    StrategyKind::MaxEb,
    StrategyKind::MaxPc,
    StrategyKind::Fifo,
    StrategyKind::RemainingLifetime,
];

/// Runs a set of cells and returns the outcomes keyed by label.
pub fn run_cells(
    cells: &[SweepCell],
    opts: &ExperimentOptions,
) -> Vec<(String, SimulationOutcome)> {
    sweep(cells, opts.threads)
}

/// Renders a per-strategy series table: one row per x value, one column per strategy.
pub fn series_table(
    x_header: &str,
    x_values: &[String],
    strategy_labels: &[&str],
    value_of: impl Fn(usize, &str) -> String,
) -> String {
    let mut headers = vec![x_header];
    headers.extend_from_slice(strategy_labels);
    let rows: Vec<Vec<String>> = x_values
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let mut row = vec![x.clone()];
            for s in strategy_labels {
                row.push(value_of(i, s));
            }
            row
        })
        .collect();
    render_markdown_table(&headers, &rows)
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let o = ExperimentOptions::default();
        assert!(o.duration_secs >= 600);
        assert!(o.threads >= 1);
        assert!(o.banner("Fig. 5").contains("Fig. 5"));
        assert!(o.strategies.is_empty());
    }

    #[test]
    fn strategy_selection_defaults_and_resolves() {
        let defaults = ExperimentOptions::default().strategies_or(&PAPER_STRATEGIES);
        assert_eq!(defaults.len(), PAPER_STRATEGIES.len());
        assert_eq!(defaults[0].label(), "EB");
        let picked = ExperimentOptions {
            strategies: vec!["fifo".into(), "composite".into()],
            ..ExperimentOptions::default()
        }
        .strategies_or(&PAPER_STRATEGIES);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].label(), "FIFO");
        assert_eq!(picked[1].label(), "COMPOSITE");
    }

    #[test]
    fn scenario_selection_defaults_and_resolves() {
        let defaults = ExperimentOptions::default().scenarios_or(&["static", "chaos"]);
        assert_eq!(defaults.len(), 2);
        assert_eq!(defaults[0].name, "static");
        assert_eq!(defaults[1].name, "chaos");
        let picked = ExperimentOptions {
            scenarios: vec!["churn".into(), "flash-crowd".into()],
            ..ExperimentOptions::default()
        }
        .scenarios_or(&["static"]);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].name, "churn");
        assert_eq!(picked[1].name, "flash-crowd");
    }

    #[test]
    fn link_model_selection_defaults_and_resolves() {
        let defaults = ExperimentOptions::default().link_models_or(&[LinkModelKind::Constant]);
        assert_eq!(defaults, vec![LinkModelKind::Constant]);
        let picked = ExperimentOptions {
            link_models: vec!["fair-share".into(), "constant".into()],
            ..ExperimentOptions::default()
        }
        .link_models_or(&[LinkModelKind::Constant]);
        assert_eq!(
            picked,
            vec![LinkModelKind::FairShare, LinkModelKind::Constant]
        );
    }

    #[test]
    fn series_table_layout() {
        let t = series_table(
            "rate",
            &["3".into(), "6".into()],
            &["EB", "FIFO"],
            |i, s| format!("{i}-{s}"),
        );
        assert!(t.contains("| rate | EB | FIFO |"));
        assert!(t.contains("| 3 | 0-EB | 0-FIFO |"));
        assert!(t.contains("| 6 | 1-EB | 1-FIFO |"));
    }

    const ALL: [Selection; 3] = [
        Selection::Strategies,
        Selection::Scenarios,
        Selection::LinkModels,
    ];

    fn parse(args: &[&str], selections: &[Selection]) -> Result<ExperimentOptions, String> {
        let args = args.iter().map(|s| s.to_string()).collect();
        ExperimentOptions::parse(ArgParser::new(args), selections)
    }

    #[test]
    fn shared_flags_parse_and_unknown_flags_are_rejected() {
        let opts = parse(
            &[
                "--duration",
                "240",
                "--seed",
                "7",
                "--scenarios",
                "churn, chaos,",
                "--strategies",
                "eb,fifo",
                "--link-model",
                "fair-share,constant",
            ],
            &ALL,
        )
        .unwrap();
        assert_eq!(opts.duration_secs, 240);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.scenarios, vec!["churn", "chaos"]);
        assert_eq!(opts.strategies, vec!["eb", "fifo"]);
        assert_eq!(opts.link_models, vec!["fair-share", "constant"]);

        // The historical silent-skip bug: a singular "--scenario" typo must
        // be an error, not an ignored token.
        let err = parse(&["--scenario", "churn"], &ALL).unwrap_err();
        assert!(err.contains("--scenario"), "{err}");
        // Missing and malformed values are diagnosed by flag name.
        let err = parse(&["--seed"], &ALL).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
        let err = parse(&["--duration", "soon"], &ALL).unwrap_err();
        assert!(err.contains("--duration"), "{err}");
    }

    #[test]
    fn an_empty_selection_list_is_an_error_not_the_defaults() {
        // `dynamics --strategies , --link-model ,` used to run every default
        // strategy on the constant model.
        for (flag, what) in [
            ("--strategies", "strategy"),
            ("--scenarios", "scenario"),
            ("--link-model", "link model"),
        ] {
            for empty in [",", "", " , "] {
                let err = parse(&["--seed", "3", flag, empty], &ALL).unwrap_err();
                assert_eq!(err, format!("{flag} needs at least one {what}"));
            }
        }
    }

    #[test]
    fn a_selection_flag_the_binary_does_not_read_is_an_unknown_flag() {
        // `fig5 --link-model fair-share --scenarios blackout` used to print
        // the constant-delay static figure without a word.
        let fig5 = [Selection::Strategies];
        let err = parse(&["--link-model", "fair-share"], &fig5).unwrap_err();
        assert!(
            err.contains("unknown flag \"--link-model\""),
            "the rejected flag is named: {err}"
        );
        assert!(
            err.contains("--strategies <a,b,c>") && !err.contains("--scenarios"),
            "the message lists what this binary reads, and only that: {err}"
        );
        assert!(parse(&["--scenarios", "blackout"], &fig5).is_err());
        assert!(parse(&["--strategies", "eb", "--seed", "3"], &fig5).is_ok());
        // fig4 and the ε / estimation ablations fix their own strategies.
        let err = parse(&["--strategies", "eb"], &[]).unwrap_err();
        assert!(err.ends_with(RUN_FLAGS_HELP), "{err}");
        assert_eq!(parse(&["--full"], &[]).unwrap().duration_secs, 7_200);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(PAPER_RATES.len(), 6);
        assert_eq!(PAPER_STRATEGIES.len(), 4);
    }
}
