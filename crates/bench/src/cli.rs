//! The `hpv-bench` command line, parsed once for every experiment.
//!
//! ```text
//! hpv-bench <experiment> [--paper | --quick | --smoke] [--n N] [--messages N]
//!           [--seed N] [--runs N] [--jobs N] [--fanout N] [--stabilization N]
//!           [--json PATH] [--assert]
//! hpv-bench diff <baseline> <current> [--threshold 0.10]
//! ```
//!
//! [`parse`] resolves the experiment name against the name table in
//! `report.rs`, the shared scale flags through [`Params::apply_args`], and
//! the rest into `--json` and `--assert`. No experiment takes a flag of its
//! own. Every flag needs its value and every unknown name is an error, so a
//! typo never runs a different experiment than the one asked for.

use crate::experiments::paper::FIG2_FAILURES;
use crate::params::{flag_value, Params};
use crate::report::EXPERIMENTS;
use hyparview_obsv::Registry;

/// An experiment: runs at `Params` and hands back what `main` prints,
/// writes and checks.
pub type Run = fn(&Params) -> Outcome;

/// What an experiment hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The report printed to stdout: header, tables, then the claims table.
    pub report: String,
    /// The results artifact, written to `--json PATH`.
    pub json: Option<String>,
    /// The cells' registries merged, written next to the results artifact
    /// as `*.metrics.json`.
    pub metrics: Option<Registry>,
    /// The failing rows of the claims table; under `--assert` any one
    /// exits 1.
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
    /// `--json PATH`: where the results artifact goes.
    pub json: Option<String>,
    /// `--assert`: exit 1 when a row of the claims table fails.
    pub assert: bool,
}

/// Parses `<experiment> [flags]`.
///
/// # Errors
///
/// An unknown experiment or flag, a flag without its value, a value that
/// does not parse, `--messages 0`, `--fanout 0` (a broadcast would reach
/// only its origin), or an `--n` so small that the largest crash the
/// experiments inject (95%) leaves no node alive.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let (name, rest) = args.split_first().ok_or("missing the experiment name")?;
    let &(name, run) = EXPERIMENTS
        .iter()
        .find(|(known, _)| known == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let (params, rest) = Params::default().apply_args(rest.iter().cloned())?;
    if params.messages == 0 {
        return Err("--messages must be at least 1".to_owned());
    }
    if params.fanout == 0 {
        return Err("--fanout must be at least 1".to_owned());
    }
    let worst = FIG2_FAILURES.iter().copied().fold(0.0, f64::max);
    if (params.n as f64 * worst).round() as usize >= params.n {
        return Err(format!(
            "--n {} leaves no node alive after a {:.0}% crash",
            params.n,
            worst * 100.0
        ));
    }
    let mut invocation = Invocation { name, run, params, json: None, assert: false };
    let mut rest = rest.into_iter();
    while let Some(flag) = rest.next() {
        let rest = &mut rest;
        match flag.as_str() {
            "--assert" => invocation.assert = true,
            "--json" => invocation.json = Some(flag_value(rest, &flag)?),
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
         [--assert]\n       \
         hpv-bench diff <baseline> <current> [--threshold 0.10]\n\
         experiments: {}\n\
         --runs N merges N seeds per cell in fig1_fanout, fig1c_after_failure, \
         fig2_reliability and fig3_recovery; the other experiments report the first seed",
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
        let inv = parse(&args("plumtree --smoke --jobs 2 --json out.json --assert")).unwrap();
        assert_eq!(inv.name, "plumtree");
        assert_eq!((inv.params.n, inv.params.jobs), (200, 2));
        assert_eq!(inv.json.as_deref(), Some("out.json"));
        assert!(inv.assert);
        // The experiments' own settings are constants: no experiment takes
        // a flag of its own.
        for flag in ["--warmup", "--failure", "--heal-cycles", "--horizon"] {
            let err = parse(&args(&format!("plumtree --smoke {flag} 3"))).unwrap_err();
            assert_eq!(err, format!("unknown argument {flag:?}"));
        }
    }

    #[test]
    fn defaults_are_the_quick_preset_with_no_output() {
        let inv = parse(&args("fig4_healing")).unwrap();
        assert_eq!(inv.params.describe(), Params::quick().describe());
        assert_eq!((inv.json, inv.assert), (None, false));
    }

    #[test]
    fn unknown_experiments_and_flags_are_errors() {
        assert_eq!(parse(&[]).unwrap_err(), "missing the experiment name");
        assert!(parse(&args("fig9")).unwrap_err().contains("unknown experiment"));
        assert!(parse(&args("fig4_healing --smok")).unwrap_err().contains("--smok"));
        assert!(parse(&args("plumtree --full")).unwrap_err().contains("--full"));
        assert!(parse(&args("fig2_reliability --smoke 12")).is_err());
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        assert_eq!(parse(&args("fig2_reliability --json")).unwrap_err(), "--json needs a value");
        assert!(parse(&args("plumtree --seed ten")).unwrap_err().contains("number"));
    }

    #[test]
    fn usage_lists_every_experiment() {
        let text = usage();
        for (name, _) in EXPERIMENTS {
            assert!(text.contains(name), "{name} missing from usage");
        }
        assert!(text.contains("the other experiments report the first seed"), "{text}");
    }
}
