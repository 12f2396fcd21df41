//! The built `hpv-bench` binary end to end: `--json` writes exactly what
//! the artifact builders return for the same `Params`, the metric snapshot
//! lands next to the results where the experiment has one, and usage errors
//! exit 2 before anything runs.

use hyparview_bench::artifacts::{plumtree_adaptive_artifact, plumtree_wan_artifact};
use hyparview_bench::experiments::{adaptive, wan};
use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::Params;
use hyparview_obsv::Registry;
use std::path::PathBuf;
use std::process::{Command, Output};

fn hpv_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpv-bench")).args(args).output().expect("run hpv-bench")
}

fn out_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params() -> Params {
    Params::smoke().with_n(50).with_messages(4)
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn json_is_the_artifact_builders_output_and_no_metrics_where_there_are_none() {
    let dir = out_dir("adaptive");
    let json = dir.join("plumtree_adaptive.json");
    let run = hpv_bench(&[
        "plumtree_adaptive",
        "--smoke",
        "--n",
        "50",
        "--messages",
        "4",
        "--json",
        json.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let cells = adaptive::plumtree_adaptive(&params(), 0.3, 30, 5);
    assert_eq!(read(json), plumtree_adaptive_artifact(&params(), 0.3, 30, 5, &cells));
    assert!(!dir.join("plumtree_adaptive.metrics.json").exists());
}

#[test]
fn experiment_flags_reach_the_artifact_and_the_metric_snapshot_is_written() {
    let dir = out_dir("wan");
    let json = dir.join("plumtree_wan.json");
    let run = hpv_bench(&[
        "plumtree_wan",
        "--smoke",
        "--n",
        "50",
        "--messages",
        "4",
        "--warmup",
        "12",
        "--part-messages",
        "4",
        "--heal-attempts",
        "6",
        "--json",
        json.to_str().unwrap(),
        "--assert",
    ]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let cells = wan::plumtree_wan(&params(), 12, 4, 6);
    assert_eq!(read(json), plumtree_wan_artifact(&params(), 12, 4, 6, &cells));
    let mut merged = Registry::new();
    for cell in &cells {
        merged.merge(&cell.metrics);
    }
    assert_eq!(read(dir.join("plumtree_wan.metrics.json")), registry_json(&merged));
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let dir = out_dir("usage");
    let json = dir.join("x.json");
    let json = json.to_str().unwrap();
    for args in [
        vec!["fig9", "--json", json],
        vec!["fig4_healing", "--smok", "--json", json],
        vec!["plumtree_wan", "--full", "--json", json],
        vec!["fig2_reliability", "--smoke", "--json"],
        vec!["fig2_reliability", "--json", json, "--n"],
        vec![],
    ] {
        let run = hpv_bench(&args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage: hpv-bench"), "{args:?}");
        assert!(!dir.join("x.json").exists(), "{args:?}");
    }
}

#[test]
fn a_flag_the_experiment_does_not_read_is_an_error() {
    let run = hpv_bench(&["plumtree_vs_flood", "--smoke", "--n", "50", "--messages", "4"]);
    assert!(run.status.success());
    let run = hpv_bench(&["fig1c_after_failure", "--smoke", "--n", "50", "--horizon", "3"]);
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).contains("fig1c_after_failure takes no --horizon"));
}
