//! The three fixed-seed smoke experiments against their committed artifacts.
//!
//! Each experiment runs in-process exactly as `hpv-bench <name> --smoke
//! --jobs J` runs it (`cli::parse`, then the experiment function), at
//! `--jobs 1` and `--jobs 2`. Its headline checks must hold (what
//! `--assert` gates), and its results artifact and metric snapshot must
//! equal, byte for byte, the goldens under `results/smoke/`. The artifacts
//! are pure functions of the seed, so a refactor moves none of them; a
//! change that moves one on purpose rewrites it with the command the
//! failure prints, and the move shows as a value-level `git diff`.
//!
//! `plumtree` runs once per job count and is checked whole and slice by
//! slice: `plumtree_vs_flood`, `plumtree_adaptive`, `plumtree_latency` and
//! `plumtree_wan` each hold one slice of its grid to its checks and to the
//! golden's cells.

use hyparview_bench::artifacts::fig2_artifact;
use hyparview_bench::cli::{self, Outcome};
use hyparview_bench::diff::{diff, markdown_table};
use hyparview_bench::experiments::paper::{self, Cell, Slice};
use hyparview_bench::json::{parse, JsonValue};
use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::Params;
use hyparview_sim::protocols::ProtocolKind;
use std::path::PathBuf;
use std::sync::OnceLock;

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

/// The job counts every smoke experiment runs at.
const JOBS: [&str; 2] = ["1", "2"];

/// `name` at `--smoke --jobs jobs`, as `hpv-bench` runs it.
fn smoke(name: &str, jobs: &str) -> Outcome {
    let args = [name, "--smoke", "--jobs", jobs].map(str::to_owned);
    let inv = cli::parse(&args).expect("a valid hpv-bench command line");
    (inv.run)(&inv.params)
}

/// Checks one outcome of `name` at `--jobs jobs`: its headline checks hold
/// and its artifacts equal the goldens.
fn check_outcome(name: &str, jobs: &str, outcome: &Outcome) {
    let results = format!("{name}.json");
    let metrics = format!("{name}.metrics.json");
    assert!(
        outcome.failures.is_empty(),
        "{name} --jobs {jobs}: headline checks failed: {:#?}",
        outcome.failures
    );
    let json = outcome.json.clone().expect("every smoke experiment writes a results artifact");
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

/// Runs `name` at `--smoke` and `--jobs 1` and `2`, and checks each
/// outcome's headline and artifacts against the goldens.
fn check(name: &str) {
    for jobs in JOBS {
        check_outcome(name, jobs, &smoke(name, jobs));
    }
}

#[test]
fn fig2_reliability() {
    check("fig2_reliability");
}

/// The `plumtree` outcomes at `--jobs 1` and `2`, run once and shared by
/// the whole-artifact test and the four slice tests.
fn plumtree_outcomes() -> &'static [(&'static str, Outcome)] {
    static OUTCOMES: OnceLock<Vec<(&'static str, Outcome)>> = OnceLock::new();
    OUTCOMES.get_or_init(|| JOBS.iter().map(|&jobs| (jobs, smoke("plumtree", jobs))).collect())
}

#[test]
fn plumtree() {
    for (jobs, outcome) in plumtree_outcomes() {
        check_outcome("plumtree", jobs, outcome);
    }
}

/// The cells of `slice` in a `plumtree` artifact, in grid order.
fn slice_cells(artifact: &str, slice: &str) -> Vec<JsonValue> {
    let artifact = parse(artifact).expect("a plumtree artifact parses");
    let Some(JsonValue::Arr(cells)) = artifact.get("cells") else {
        panic!("a plumtree artifact has a cells array");
    };
    let in_slice = |c: &&JsonValue| c.get("slice").and_then(JsonValue::as_str) == Some(slice);
    cells.iter().filter(in_slice).cloned().collect()
}

/// Checks one slice of the shared `plumtree` outcomes: the headline checks
/// that name one of its cells hold, and its cells equal the golden's by
/// value. Each slice is the grid one of the former Plumtree experiments
/// ran, so a move or a failed check is reported under that experiment's
/// name as well as under `plumtree`.
fn check_plumtree_slice(slice: &str) {
    let golden = std::fs::read_to_string(golden_path("plumtree.json")).unwrap();
    let golden = slice_cells(&golden, slice);
    assert!(!golden.is_empty(), "the golden has cells in the {slice} slice");
    // A failed check names its cell as `<variant> <label>: ...`.
    let names: Vec<String> = golden
        .iter()
        .map(|c| {
            let field = |key| c.get(key).and_then(JsonValue::as_str).unwrap_or_default();
            format!("{} {}: ", field("variant"), field("label"))
        })
        .collect();
    let as_doc =
        |cells: Vec<JsonValue>| JsonValue::Obj(vec![("cells".into(), JsonValue::Arr(cells))]);
    for (jobs, outcome) in plumtree_outcomes() {
        let failures: Vec<&String> = outcome
            .failures
            .iter()
            .filter(|f| names.iter().any(|name| f.starts_with(name.as_str())))
            .collect();
        assert!(
            failures.is_empty(),
            "plumtree --jobs {jobs}: {slice} checks failed: {failures:#?}"
        );
        let json = outcome.json.as_deref().expect("plumtree writes a results artifact");
        let actual = slice_cells(json, slice);
        if actual != golden {
            let rows = diff(&as_doc(golden.clone()), &as_doc(actual));
            let (table, _) = markdown_table(&rows, THRESHOLD);
            panic!("plumtree --jobs {jobs}: the {slice} slice moved from its golden:\n\n{table}");
        }
    }
}

/// Flood vs the static tree after 10, 30 and 50% crashes.
#[test]
fn plumtree_vs_flood() {
    check_plumtree_slice("cost");
}

/// §3.8's optimization, batching and both together.
#[test]
fn plumtree_adaptive() {
    check_plumtree_slice("adaptive");
}

/// The static and the optimized tree under variable latency.
#[test]
fn plumtree_latency() {
    check_plumtree_slice("latency");
}

/// Flood, the static and the adaptive tree under loss and a partition.
#[test]
fn plumtree_wan() {
    check_plumtree_slice("wan");
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
        let failures = [0.2, 0.6];
        let cells = failures.iter().flat_map(|&f| kinds.map(|k| Cell::new(&params, k).failing(f)));
        let grid = cells.map(|cell| Slice::Fig2.key(&params, cell)).collect();
        fig2_artifact(&params, &paper::run(&params, grid), &kinds, &failures)
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
