//! Experiment parameters.
//!
//! The paper's setting (§5.1) is a 10,000-node network, 50 stabilization
//! cycles, gossip fanout 4 and 1,000 measured broadcasts. That takes a
//! while on one laptop core, so every experiment binary also supports a
//! scaled-down preset whose *shape* matches the paper; the scale is always
//! printed with the results.

use hyparview_sim::{protocols::ProtocolKind, ProtocolConfigs, Scenario};

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
    /// applied on top of `self`.
    ///
    /// Unknown arguments are returned for the caller to interpret.
    pub fn apply_args<It: Iterator<Item = String>>(mut self, args: It) -> (Self, Vec<String>) {
        let mut rest = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let take_value = |args: &mut std::iter::Peekable<It>| -> Option<String> { args.next() };
            match arg.as_str() {
                // Presets reset the scale knobs but keep configs and the
                // execution knobs (jobs, queue): `--jobs 4 --smoke` and
                // `--smoke --jobs 4` must agree.
                "--paper" => self = self.preset(Params::paper()),
                "--quick" => self = self.preset(Params::quick()),
                "--smoke" => self = self.preset(Params::smoke()),
                "--n" => {
                    if let Some(v) = take_value(&mut args) {
                        self.n = v.parse().expect("--n expects an integer");
                    }
                }
                "--messages" => {
                    if let Some(v) = take_value(&mut args) {
                        self.messages = v.parse().expect("--messages expects an integer");
                    }
                }
                "--seed" => {
                    if let Some(v) = take_value(&mut args) {
                        self.seed = v.parse().expect("--seed expects an integer");
                    }
                }
                "--runs" => {
                    if let Some(v) = take_value(&mut args) {
                        self.runs = v.parse().expect("--runs expects an integer");
                    }
                }
                "--jobs" => {
                    if let Some(v) = take_value(&mut args) {
                        self.jobs = v.parse::<usize>().expect("--jobs expects an integer").max(1);
                    }
                }
                "--fanout" => {
                    if let Some(v) = take_value(&mut args) {
                        self.fanout = v.parse().expect("--fanout expects an integer");
                    }
                }
                "--stabilization" => {
                    if let Some(v) = take_value(&mut args) {
                        self.stabilization_cycles =
                            v.parse().expect("--stabilization expects an integer");
                    }
                }
                other => rest.push(other.to_owned()),
            }
        }
        (self, rest)
    }

    /// One-line description of the scale, printed with every experiment.
    pub fn describe(&self) -> String {
        format!(
            "n = {}, fanout = {}, stabilization = {} cycles, messages = {}, runs = {}, seed = {:#x}",
            self.n, self.fanout, self.stabilization_cycles, self.messages, self.runs, self.seed
        )
    }
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

    #[test]
    fn apply_args_parses_known_flags() {
        let args = ["--n", "500", "--messages", "10", "--seed", "9", "--extra"]
            .iter()
            .map(|s| s.to_string());
        let (p, rest) = Params::quick().apply_args(args);
        assert_eq!(p.n, 500);
        assert_eq!(p.messages, 10);
        assert_eq!(p.seed, 9);
        assert_eq!(rest, vec!["--extra".to_string()]);
    }

    #[test]
    fn apply_args_presets() {
        let (p, _) = Params::quick().apply_args(["--paper".to_string()].into_iter());
        assert_eq!(p.n, 10_000);
        let (p, _) = p.apply_args(["--smoke".to_string()].into_iter());
        assert_eq!(p.n, 200);
    }

    #[test]
    fn jobs_survive_presets_in_either_order() {
        let flags = |args: &[&str]| {
            let (p, _) = Params::quick().apply_args(args.iter().map(|s| s.to_string()));
            (p.n, p.jobs)
        };
        assert_eq!(flags(&["--jobs", "4", "--smoke"]), (200, 4));
        assert_eq!(flags(&["--smoke", "--jobs", "4"]), (200, 4));
        assert_eq!(flags(&["--jobs", "0"]).1, 1, "--jobs 0 clamps to 1");
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
