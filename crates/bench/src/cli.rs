//! The `hpv-bench` command line, parsed once for every experiment.
//!
//! ```text
//! hpv-bench <experiment> [--paper | --quick | --smoke] [--n N] [--messages N]
//!           [--seed N] [--runs N] [--jobs N] [--fanout N] [--stabilization N]
//!           [--json PATH] [--assert] [experiment flags]
//! hpv-bench diff <baseline> <current> [--threshold 0.10]
//! ```
//!
//! [`parse`] resolves the experiment name against the name table in
//! `report.rs`, the shared scale flags through [`Params::apply_args`], and
//! the rest into `--json`, `--assert` and [`Flags`]. Every flag needs its
//! value and every unknown name is an error, so a typo never runs a
//! different experiment than the one asked for.

use crate::params::{flag_value, Params};
use crate::report::EXPERIMENTS;
use hyparview_obsv::Registry;

/// An experiment: runs at `Params`, takes the [`Flags`] it reads, and hands
/// back what `main` prints, writes and checks.
pub type Run = fn(&Params, &mut Flags) -> Outcome;

/// The flags only some experiments read. An experiment `take`s the ones it
/// uses and supplies its own default; any still set after the run was given
/// to an experiment that has no such flag.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Flags {
    /// `--warmup N`: broadcasts that shape the tree before measuring.
    pub warmup: Option<usize>,
    /// `--failure F`: the fraction of nodes crashed.
    pub failure: Option<f64>,
    /// `--heal-cycles N`: membership cycles between failure and healing.
    pub heal_cycles: Option<usize>,
    /// `--part-messages N`: broadcasts measured while partitioned.
    pub part_messages: Option<usize>,
    /// `--heal-attempts N`: broadcasts tried after the heal.
    pub heal_attempts: Option<usize>,
    /// `--horizon N`: membership cycles an attack is given.
    pub horizon: Option<usize>,
}

impl Flags {
    /// The names of the flags still set.
    pub fn unused(&self) -> Vec<&'static str> {
        [
            ("--warmup", self.warmup.is_some()),
            ("--failure", self.failure.is_some()),
            ("--heal-cycles", self.heal_cycles.is_some()),
            ("--part-messages", self.part_messages.is_some()),
            ("--heal-attempts", self.heal_attempts.is_some()),
            ("--horizon", self.horizon.is_some()),
        ]
        .into_iter()
        .filter_map(|(name, set)| set.then_some(name))
        .collect()
    }
}

/// What an experiment hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The report printed to stdout: header, tables, headline.
    pub report: String,
    /// The results artifact, written to `--json PATH`.
    pub json: Option<String>,
    /// The cells' registries merged, written next to the results artifact
    /// as `*.metrics.json`.
    pub metrics: Option<Registry>,
    /// Headline checks that failed; under `--assert` any one exits 1.
    pub failures: Vec<String>,
}

impl Outcome {
    /// An outcome that only prints `lines`.
    pub fn new(lines: Vec<String>) -> Outcome {
        Outcome { report: lines.join("\n"), ..Outcome::default() }
    }
}

/// One parsed command line.
#[derive(Debug)]
pub struct Invocation {
    /// The experiment's name.
    pub name: &'static str,
    /// The experiment.
    pub run: Run,
    /// The scale it runs at.
    pub params: Params,
    /// Its experiment flags.
    pub flags: Flags,
    /// `--json PATH`: where the results artifact goes.
    pub json: Option<String>,
    /// `--assert`: exit 1 when a headline check fails.
    pub assert: bool,
}

/// Parses `<experiment> [flags]`.
///
/// # Errors
///
/// An unknown experiment or flag, a flag without its value, or a value that
/// does not parse.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let (name, rest) = args.split_first().ok_or("missing the experiment name")?;
    let &(name, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| known == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let (params, rest) = Params::default().apply_args(rest.iter().cloned())?;
    let mut invocation =
        Invocation { name, run, params, flags: Flags::default(), json: None, assert: false };
    let flags = &mut invocation.flags;
    let mut rest = rest.into_iter();
    while let Some(flag) = rest.next() {
        let rest = &mut rest;
        match flag.as_str() {
            "--assert" => invocation.assert = true,
            "--json" => invocation.json = Some(flag_value(rest, &flag)?),
            "--warmup" => flags.warmup = Some(flag_value(rest, &flag)?),
            "--failure" => flags.failure = Some(flag_value(rest, &flag)?),
            "--heal-cycles" => flags.heal_cycles = Some(flag_value(rest, &flag)?),
            "--part-messages" => flags.part_messages = Some(flag_value(rest, &flag)?),
            "--heal-attempts" => flags.heal_attempts = Some(flag_value(rest, &flag)?),
            "--horizon" => flags.horizon = Some(flag_value(rest, &flag)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(invocation)
}

/// The usage text, listing every experiment.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: hpv-bench <experiment> [--paper | --quick | --smoke] [--n N] [--messages N] \
         [--seed N] [--runs N] [--jobs N] [--fanout N] [--stabilization N] [--json PATH] \
         [--assert] [--warmup N] [--failure F] [--heal-cycles N] [--part-messages N] \
         [--heal-attempts N] [--horizon N]\n       \
         hpv-bench diff <baseline> <current> [--threshold 0.10]\n\
         experiments: {}",
        names.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_name_scale_output_and_experiment_flags() {
        let inv = parse(&args(
            "plumtree_adaptive --smoke --jobs 2 --json out.json --assert --failure 0.5 --warmup 3",
        ))
        .unwrap();
        assert_eq!(inv.name, "plumtree_adaptive");
        assert_eq!((inv.params.n, inv.params.jobs), (200, 2));
        assert_eq!(inv.json.as_deref(), Some("out.json"));
        assert!(inv.assert);
        assert_eq!(
            inv.flags,
            Flags { failure: Some(0.5), warmup: Some(3), ..Flags::default() },
            "flags parse in any order"
        );
        assert_eq!(inv.flags.unused(), ["--warmup", "--failure"]);
    }

    #[test]
    fn defaults_are_the_quick_preset_with_no_output() {
        let inv = parse(&args("fig4_healing")).unwrap();
        assert_eq!(inv.params.describe(), Params::quick().describe());
        assert_eq!((inv.json, inv.assert), (None, false));
        assert!(inv.flags.unused().is_empty());
    }

    #[test]
    fn unknown_experiments_and_flags_are_errors() {
        assert_eq!(parse(&[]).unwrap_err(), "missing the experiment name");
        assert!(parse(&args("fig9")).unwrap_err().contains("unknown experiment"));
        assert!(parse(&args("fig4_healing --smok")).unwrap_err().contains("--smok"));
        assert!(parse(&args("plumtree_wan --full")).unwrap_err().contains("--full"));
        assert!(parse(&args("fig2_reliability --smoke 12")).is_err());
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(parse(&args("fig2_reliability --json")).unwrap_err(), "--json needs a value");
        assert_eq!(parse(&args("plumtree_wan --warmup")).unwrap_err(), "--warmup needs a value");
        assert!(parse(&args("hyparview_attack --horizon ten")).unwrap_err().contains("number"));
    }

    #[test]
    fn usage_lists_every_experiment() {
        let text = usage();
        for (name, _) in EXPERIMENTS {
            assert!(text.contains(name), "{name} missing from usage");
        }
    }
}
