//! Experiment parameters.
//!
//! The paper's setting (§5.1) is a 10,000-node network, 50 stabilization
//! cycles, gossip fanout 4 and 1,000 measured broadcasts. That takes a
//! while on one laptop core, so every experiment also runs at scaled-down
//! presets whose *shape* matches the paper (`--quick`, the default, and
//! `--smoke`); the scale is printed with the results and embedded in every
//! artifact. [`Params::apply_args`] is the one parser of these flags for
//! every `hpv-bench` experiment.

use hyparview_sim::{protocols::ProtocolKind, ProtocolConfigs, Scenario};
use std::str::FromStr;

/// Shared knobs for all experiments.
#[derive(Debug, Clone)]
pub struct Params {
    /// Network size (paper: 10,000).
    pub n: usize,
    /// Master seed.
    pub seed: u64,
    /// Gossip fanout (paper: 4).
    pub fanout: usize,
    /// Membership cycles run before any measurement (paper: 50).
    pub stabilization_cycles: usize,
    /// Broadcasts measured per data point (paper: 1,000 for Fig 2).
    pub messages: usize,
    /// Independent runs aggregated per data point.
    pub runs: usize,
    /// Worker threads for the parallel seed sweep (`--jobs`, default 1).
    /// Runs are pure functions of their seed and partials merge in seed
    /// order, so results are byte-identical at any job count — this knob
    /// only buys wall-clock time. Deliberately *not* part of
    /// [`Params::describe`]: the description is embedded in the JSON
    /// artifacts, which must not vary with execution parallelism.
    pub jobs: usize,
    /// Protocol configurations.
    pub configs: ProtocolConfigs,
}

impl Params {
    /// The paper's full-scale setting.
    pub fn paper() -> Self {
        Params {
            n: 10_000,
            seed: 0x4D5_F00D,
            fanout: 4,
            stabilization_cycles: 50,
            messages: 1_000,
            runs: 1,
            jobs: 1,
            configs: ProtocolConfigs::paper(),
        }
    }

    /// A laptop-friendly setting (n = 1,000) preserving every ratio that
    /// matters: fanout 4, HyParView 5/30 views, Cyclon view 35, Scamp c 4.
    pub fn quick() -> Self {
        Params { n: 1_000, messages: 200, stabilization_cycles: 30, ..Params::paper() }
    }

    /// A tiny smoke-test setting for CI and unit tests.
    pub fn smoke() -> Self {
        Params { n: 200, messages: 40, stabilization_cycles: 10, ..Params::paper() }
    }

    /// Sets the network size.
    pub fn with_n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of measured broadcasts.
    pub fn with_messages(mut self, messages: usize) -> Self {
        self.messages = messages;
        self
    }

    /// Sets the gossip fanout.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout;
        self
    }

    /// Sets the number of aggregated runs.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Sets the parallel-sweep worker count (results are identical at any
    /// value; see [`Params::jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the stabilization cycle count.
    pub fn with_stabilization(mut self, cycles: usize) -> Self {
        self.stabilization_cycles = cycles;
        self
    }

    /// The scenario corresponding to these parameters for run index `run`
    /// (each run perturbs the seed deterministically).
    pub fn scenario(&self, run: usize) -> Scenario {
        Scenario::new(self.n, self.seed.wrapping_add(run as u64 * 0x9E37_79B9))
            .with_fanout(self.fanout)
            .with_stabilization_cycles(self.stabilization_cycles)
    }

    /// Applies a scale preset while keeping configs and execution knobs.
    fn preset(self, scale: Params) -> Params {
        Params { configs: self.configs, jobs: self.jobs, ..scale }
    }

    /// Parses CLI arguments of the form `--n 2000 --messages 100 --seed 7
    /// --runs 3 --jobs 4 --fanout 4 --stabilization 50 --paper --quick`,
    /// applied on top of `self`. Counts go through the `with_*` setters, so
    /// `--runs 0` and `--jobs 0` clamp to 1 exactly as in code.
    ///
    /// Arguments that are not one of these flags come back, in order, for
    /// the caller to interpret.
    ///
    /// # Errors
    ///
    /// A flag given as the last argument with no value, or a value that is
    /// not a non-negative integer.
    pub fn apply_args(
        mut self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut rest = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let args = &mut args;
            self = match arg.as_str() {
                // Presets reset the scale knobs but keep configs and the
                // execution knobs (jobs): `--jobs 4 --smoke` and
                // `--smoke --jobs 4` must agree.
                "--paper" => self.preset(Params::paper()),
                "--quick" => self.preset(Params::quick()),
                "--smoke" => self.preset(Params::smoke()),
                "--n" => self.with_n(flag_value(args, &arg)?),
                "--messages" => self.with_messages(flag_value(args, &arg)?),
                "--seed" => self.with_seed(flag_value(args, &arg)?),
                "--runs" => self.with_runs(flag_value(args, &arg)?),
                "--jobs" => self.with_jobs(flag_value(args, &arg)?),
                "--fanout" => self.with_fanout(flag_value(args, &arg)?),
                "--stabilization" => self.with_stabilization(flag_value(args, &arg)?),
                _ => {
                    rest.push(arg);
                    self
                }
            };
        }
        Ok((self, rest))
    }

    /// One-line description of the scale, printed with every experiment.
    pub fn describe(&self) -> String {
        format!(
            "n = {}, fanout = {}, stabilization = {} cycles, messages = {}, runs = {}, seed = {:#x}",
            self.n, self.fanout, self.stabilization_cycles, self.messages, self.runs, self.seed
        )
    }
}

/// The value after `flag`, parsed.
///
/// # Errors
///
/// `flag` was the last argument, or its value does not parse as `T`.
pub(crate) fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map_err(|_| format!("{flag} expects a number, got {value:?}"))
}

impl Default for Params {
    fn default() -> Self {
        Params::quick()
    }
}

/// The failure percentages of Figure 2 (10%–95%).
pub const FIG2_FAILURES: [f64; 11] =
    [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95];

/// The failure percentages of Figure 3's panels.
pub const FIG3_FAILURES: [f64; 6] = [0.20, 0.40, 0.60, 0.70, 0.80, 0.95];

/// The fanout range of Figure 1.
pub const FIG1_FANOUTS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// All four protocols in display order.
pub const ALL_PROTOCOLS: [ProtocolKind; 4] = ProtocolKind::ALL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_match_section_5_1() {
        let p = Params::paper();
        assert_eq!(p.n, 10_000);
        assert_eq!(p.fanout, 4);
        assert_eq!(p.stabilization_cycles, 50);
        assert_eq!(p.messages, 1_000);
    }

    fn apply(args: &[&str]) -> Result<(Params, Vec<String>), String> {
        Params::quick().apply_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn apply_args_parses_known_flags() {
        let args = ["--n", "500", "--messages", "10", "--seed", "9", "--extra", "--fanout", "5"];
        let (p, rest) = apply(&args).unwrap();
        assert_eq!((p.n, p.messages, p.seed, p.fanout), (500, 10, 9, 5));
        assert_eq!(rest, vec!["--extra".to_string()]);
        let (p, _) = apply(&["--stabilization", "7", "--runs", "3"]).unwrap();
        assert_eq!((p.stabilization_cycles, p.runs), (7, 3));
    }

    #[test]
    fn apply_args_presets() {
        let (p, _) = apply(&["--paper"]).unwrap();
        assert_eq!(p.n, 10_000);
        let (p, _) = p.apply_args(["--smoke".to_string()]).unwrap();
        assert_eq!(p.n, 200);
    }

    #[test]
    fn jobs_survive_presets_in_either_order() {
        let flags = |args: &[&str]| {
            let (p, _) = apply(args).unwrap();
            (p.n, p.jobs)
        };
        assert_eq!(flags(&["--jobs", "4", "--smoke"]), (200, 4));
        assert_eq!(flags(&["--smoke", "--jobs", "4"]), (200, 4));
        assert_eq!(flags(&["--jobs", "0"]).1, 1, "--jobs 0 clamps to 1");
    }

    #[test]
    fn runs_zero_clamps_like_with_runs() {
        // A zero run count would divide every per-cell mean by zero.
        assert_eq!(apply(&["--runs", "0"]).unwrap().0.runs, 1);
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        for flag in
            ["--n", "--messages", "--seed", "--runs", "--jobs", "--fanout", "--stabilization"]
        {
            let err = apply(&["--smoke", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn a_value_that_is_not_an_integer_is_an_error() {
        assert_eq!(apply(&["--n", "lots"]).unwrap_err(), r#"--n expects a number, got "lots""#);
        assert!(apply(&["--seed", "-1"]).is_err());
        assert!(apply(&["--runs", "1.5"]).is_err());
    }

    #[test]
    fn unknown_arguments_come_back_in_order() {
        let (p, rest) = apply(&["--smok", "--n", "50", "fig2", "--json", "x.json"]).unwrap();
        assert_eq!(p.n, 50, "an unknown flag does not swallow the next one");
        assert_eq!(rest, ["--smok", "fig2", "--json", "x.json"]);
    }

    #[test]
    fn describe_omits_jobs() {
        // The description is embedded in artifacts, which must stay
        // byte-identical across --jobs settings.
        let d = Params::smoke().with_jobs(8).describe();
        assert!(!d.contains("jobs"), "{d}");
        assert_eq!(d, Params::smoke().describe());
    }

    #[test]
    fn scenario_seed_varies_per_run() {
        let p = Params::smoke();
        assert_ne!(p.scenario(0).seed, p.scenario(1).seed);
        assert_eq!(p.scenario(2).seed, p.scenario(2).seed);
    }

    #[test]
    fn describe_mentions_scale() {
        let d = Params::smoke().describe();
        assert!(d.contains("n = 200"));
    }
}
