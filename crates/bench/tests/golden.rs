//! The three fixed-seed smoke experiments against their committed artifacts.
//!
//! Each experiment runs in-process exactly as `hpv-bench <name> --smoke
//! --jobs J` runs it (`cli::parse`, then the experiment function), at
//! `--jobs 1` and `--jobs 2`. Every row of its claims table must hold (what
//! `--assert` gates), and its results artifact and metric snapshot must
//! equal, byte for byte, the goldens under `results/smoke/`. The artifacts
//! are pure functions of the seed, so a refactor moves none of them; a
//! change that moves one on purpose rewrites it with the command the
//! failure prints, and the move shows as a value-level `git diff`.
//!
//! The README's tables of committed numbers are rendered, not quoted: one
//! test each renders the Figure 2 table (from the paper-scale artifact and
//! the claims table's Figure 2 rows), the Plumtree table (from the smoke
//! golden) and the benchmark table (from the last `BENCH_HISTORY.json`
//! entry), without running a simulation, and compares it with the README.

use hyparview_bench::artifacts::fig2_artifact;
use hyparview_bench::cli;
use hyparview_bench::diff::{diff, markdown_table};
use hyparview_bench::experiments::claims;
use hyparview_bench::experiments::paper::{self, Cell, Slice};
use hyparview_bench::json::{parse, JsonValue};
use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::table::pct;
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

/// Runs `name` as `hpv-bench <name> --smoke --jobs J` runs it, at `--jobs
/// 1` and `2`, and checks each outcome's claims and artifacts against the
/// goldens.
fn check(name: &str) {
    for jobs in ["1", "2"] {
        let args = [name, "--smoke", "--jobs", jobs].map(str::to_owned);
        let inv = cli::parse(&args).expect("a valid hpv-bench command line");
        let outcome = (inv.run)(&inv.params);
        assert!(
            outcome.failures.is_empty(),
            "{name} --jobs {jobs}: claims failed: {:#?}",
            outcome.failures
        );
        assert!(outcome.report.contains("\n\nclaims:\n"), "{name}: no claims table");
        let json = outcome.json.expect("every smoke experiment writes a results artifact");
        let snapshot = outcome.metrics.as_ref().map(registry_json);
        let (results, metrics) = (format!("{name}.json"), format!("{name}.metrics.json"));
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
fn plumtree() {
    check("plumtree");
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

/// The README's `| failure % | paper | n = 10,000 |` block: per failure
/// level of `results/paper/fig2_reliability.json`, the paper's value from
/// the claims table's Figure 2 row and HyParView's measured reliability.
#[test]
fn readme_figure_2_table_renders_the_paper_artifact() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |file| std::fs::read_to_string(root.join(file)).unwrap();
    let artifact = parse(&read("results/paper/fig2_reliability.json")).unwrap();
    let Some(JsonValue::Arr(rows)) = artifact.get("rows") else {
        panic!("a fig2 artifact has a rows array");
    };
    let claims = claims::table();
    let mut table = String::from("| failure % | paper | n = 10,000 |\n|---|---|---|\n");
    for row in rows {
        let failure = row.get("failure").and_then(JsonValue::as_f64).unwrap() * 100.0;
        let subject = format!("HyParView at {failure:.0}% failures");
        let claim = claims.iter().find(|c| c.experiment == "Fig2" && c.subject == subject);
        let paper = claim.unwrap_or_else(|| panic!("no claim about {subject:?}")).statement;
        let Some(JsonValue::Arr(cells)) = row.get("cells") else {
            panic!("a fig2 row has a cells array");
        };
        let is_hpv =
            |c: &&JsonValue| c.get("protocol").and_then(JsonValue::as_str) == Some("HyParView");
        let hpv = cells.iter().find(is_hpv).unwrap();
        let reliability = hpv.get("mean_reliability").and_then(JsonValue::as_f64).unwrap();
        table += &format!("| {failure:.0}% | {paper} | {} |\n", pct(reliability));
    }
    assert!(
        read("README.md").contains(&table),
        "README.md's Figure 2 table is not the rendering of \
         results/paper/fig2_reliability.json; replace it with:\n\n{table}"
    );
}

/// `value`'s field at the dotted `path`, as a number.
fn number(value: &JsonValue, path: &str) -> f64 {
    let field = path.split('.').try_fold(value, |v, key| v.get(key));
    field.and_then(JsonValue::as_f64).unwrap_or_else(|| panic!("no number at {path}"))
}

/// Asserts that README.md holds `table`, the rendering of `source`.
fn readme_holds(table: &str, source: &str) {
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    assert!(
        std::fs::read_to_string(readme).unwrap().contains(table),
        "README.md's table is not the rendering of {source}; replace it with:\n\n{table}"
    );
}

/// The README's Plumtree table: one row per cell of the smoke golden.
#[test]
fn readme_plumtree_table_renders_the_smoke_golden() {
    let golden = parse(&std::fs::read_to_string(golden_path("plumtree.json")).unwrap()).unwrap();
    let Some(JsonValue::Arr(cells)) = golden.get("cells") else {
        panic!("a plumtree artifact has a cells array");
    };
    let mut table = String::from(
        "| slice | strategy | cell | stable rel. | RMR | payload / control per bcast | \
         disturbed rel. | time to heal | healed last hop | optimizations (late) |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for cell in cells {
        let text = |key| cell.get(key).and_then(JsonValue::as_str).unwrap();
        let at = |path| number(cell, path);
        table += &format!(
            "| {} | {} | {} | {:.2}% | {:.3} | {:.0} / {:.0} | {} | {} | {:.1} | {} ({}) |\n",
            text("slice"),
            text("variant"),
            text("label"),
            at("stable.mean_reliability") * 100.0,
            at("stable.mean_rmr"),
            at("stable.payload_per_broadcast"),
            at("stable.control_per_broadcast"),
            pct(at("disturbed_reliability")),
            at("time_to_heal"),
            at("healed.mean_last_hop"),
            at("optimizations"),
            at("late_optimizations"),
        );
    }
    readme_holds(&table, "results/smoke/plumtree.json");
}

/// The README's benchmark table: the four end-to-end metrics of the last
/// `BENCH_HISTORY.json` entry on each workload.
#[test]
fn readme_benchmark_table_renders_the_last_bench_history_entry() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let history = parse(&std::fs::read_to_string(root.join("BENCH_HISTORY.json")).unwrap());
    let Some(JsonValue::Arr(entries)) = history.unwrap().get("entries").cloned() else {
        panic!("BENCH_HISTORY.json has an entries array");
    };
    let last = entries.last().expect("at least one entry");
    let pr = match last.get("pr") {
        Some(JsonValue::Num(pr)) => pr.to_string(),
        pr => pr.and_then(JsonValue::as_str).expect("an entry names its PR").to_owned(),
    };
    let Some(JsonValue::Obj(workloads)) = last.get("workloads") else {
        panic!("an entry has a workloads object");
    };
    let metrics = ["setup_s", "delivered_share", "frames_per_delivery", "peak_rss_mb"];
    let mut table = format!("Last `BENCH_HISTORY.json` entry: PR {pr}.\n\n| workload |");
    table += &metrics.map(|m| format!(" `{m}` |")).concat();
    table += "\n|---|---|---|---|---|\n";
    for (workload, values) in workloads {
        let values = metrics.map(|m| format!(" {} |", number(values, m)));
        table += &format!("| `{workload}` |{}\n", values.concat());
    }
    readme_holds(&table, "the last entry of BENCH_HISTORY.json");
}
