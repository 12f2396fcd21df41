//! The six fixed-seed smoke experiments against their committed artifacts.
//!
//! Each experiment runs in-process exactly as `hpv-bench <name> --smoke
//! --jobs J` runs it (`cli::parse`, then the experiment function), at
//! `--jobs 1` and `--jobs 2`. Its headline checks must hold (what
//! `--assert` gates), and its results artifact and metric snapshot must
//! equal, byte for byte, the goldens under `results/smoke/`. The artifacts
//! are pure functions of the seed, so a refactor moves none of them; a
//! change that moves one on purpose rewrites it with the command the
//! failure prints, and the move shows as a value-level `git diff`.

use hyparview_bench::artifacts::fig2_artifact;
use hyparview_bench::cli;
use hyparview_bench::diff::{diff, markdown_table};
use hyparview_bench::experiments::reliability_after_failures;
use hyparview_bench::json::parse;
use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::Params;
use hyparview_sim::protocols::ProtocolKind;
use std::path::PathBuf;

/// The relative worsening that flags a directed metric as a regression, as
/// in CI's `hpv-bench diff` step.
const THRESHOLD: f64 = 0.10;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/smoke").join(file)
}

/// `Err` with a readable report when `actual` differs from `golden`, the
/// committed `file` of experiment `name`: every metric that moved, by how
/// much and whether that is a regression or an improvement, then the
/// command that rewrites the golden.
fn compare(name: &str, file: &str, golden: &str, actual: &str) -> Result<(), String> {
    if golden == actual {
        return Ok(());
    }
    let table = match (parse(golden), parse(actual)) {
        (Ok(golden), Ok(actual)) => markdown_table(&diff(&golden, &actual), THRESHOLD).0,
        (golden, actual) => {
            format!("not comparable as JSON: {:?} / {:?}", golden.err(), actual.err())
        }
    };
    Err(format!(
        "results/smoke/{file} moved from its committed golden:\n\n{table}\n\
         If the move is deliberate, rewrite the golden and commit it:\n  \
         cargo run --release -p hyparview-bench -- {name} --smoke --json results/smoke/{name}.json"
    ))
}

/// Runs `name` at `--smoke` and `--jobs 1` and `2`, and checks each
/// outcome's headline and artifacts against the goldens.
fn check(name: &str) {
    let results = format!("{name}.json");
    let metrics = format!("{name}.metrics.json");
    for jobs in ["1", "2"] {
        let args = [name, "--smoke", "--jobs", jobs].map(str::to_owned);
        let mut inv = cli::parse(&args).expect("a valid hpv-bench command line");
        let outcome = (inv.run)(&inv.params, &mut inv.flags);
        assert!(
            outcome.failures.is_empty(),
            "{name} --jobs {jobs}: headline checks failed: {:#?}",
            outcome.failures
        );
        let json = outcome.json.expect("every smoke experiment writes a results artifact");
        let snapshot = outcome.metrics.as_ref().map(registry_json);
        for (file, actual) in [(&results, Some(json)), (&metrics, snapshot)] {
            // A file on one side only compares against "" and fails to parse.
            let golden = std::fs::read_to_string(golden_path(file)).ok();
            if golden.is_none() && actual.is_none() {
                continue;
            }
            let (golden, actual) = (golden.unwrap_or_default(), actual.unwrap_or_default());
            if let Err(report) = compare(name, file, &golden, &actual) {
                panic!("{name} --jobs {jobs}: {report}");
            }
        }
    }
}

#[test]
fn fig2_reliability() {
    check("fig2_reliability");
}

#[test]
fn plumtree_vs_flood() {
    check("plumtree_vs_flood");
}

#[test]
fn plumtree_adaptive() {
    check("plumtree_adaptive");
}

#[test]
fn plumtree_latency() {
    check("plumtree_latency");
}

#[test]
fn plumtree_wan() {
    check("plumtree_wan");
}

#[test]
fn hyparview_attack() {
    check("hyparview_attack");
}

/// The smoke presets run one seed per cell; at `runs = 2` fig2 also merges
/// several runs' partials per cell, which must happen in seed order
/// whatever the job count. Two protocols at two failure rates keep it cheap.
#[test]
fn fig2_multi_run_merge_is_byte_identical_across_jobs() {
    let doc = |jobs| {
        let params = Params::smoke().with_messages(12).with_runs(2).with_jobs(jobs);
        let kinds = [ProtocolKind::HyParView, ProtocolKind::CyclonAcked];
        fig2_artifact(&params, &reliability_after_failures(&params, &kinds, &[0.2, 0.6]))
    };
    assert_eq!(doc(1), doc(4), "--jobs 4 must not change a byte of the fig2 artifact");
}

#[test]
fn a_moved_number_is_named_flagged_and_rewritable() {
    let golden = std::fs::read_to_string(golden_path("fig2_reliability.json")).unwrap();
    let cell = r#"{"protocol":"HyParView","mean_reliability":1,"#;
    assert!(golden.contains(cell), "the 10% row's HyParView cell is at 100%");
    let moved = golden.replacen(cell, r#"{"protocol":"HyParView","mean_reliability":0.8,"#, 1);

    let report = compare("fig2_reliability", "fig2_reliability.json", &golden, &moved).unwrap_err();
    assert!(
        report.contains("`rows[0].cells[HyParView].mean_reliability` | 1 | 0.8000 |"),
        "{report}"
    );
    assert!(report.contains("**regression**"), "{report}");
    assert!(report.contains("1 regression(s)"), "{report}");
    assert!(
        report.contains(
            "cargo run --release -p hyparview-bench -- fig2_reliability --smoke \
             --json results/smoke/fig2_reliability.json"
        ),
        "{report}"
    );
    assert_eq!(compare("fig2_reliability", "fig2_reliability.json", &golden, &golden), Ok(()));
}
