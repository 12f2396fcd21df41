//! The built `hpv-bench` binary end to end: `--json` writes exactly what
//! the artifact builders return for the same `Params`, the metric snapshot
//! lands next to the results where the experiment has one, and usage errors,
//! scales the experiments cannot run included, exit 2 before anything runs.

use hyparview_bench::artifacts::{fig2_artifact, plumtree_artifact};
use hyparview_bench::experiments::paper::{self, Slice, FIG2_FAILURES};
use hyparview_bench::experiments::plumtree;
use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::Params;
use hyparview_obsv::Registry;
use hyparview_sim::protocols::ProtocolKind;
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

/// Runs `name` at the tiny scale of [`params`], writing `<dir>/<name>.json`.
fn run_small(name: &str, dir: &std::path::Path) -> PathBuf {
    let json = dir.join(format!("{name}.json"));
    let args = [name, "--smoke", "--n", "50", "--messages", "4", "--json", json.to_str().unwrap()];
    let run = hpv_bench(&args);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    json
}

#[test]
fn json_is_the_artifact_builders_output_and_no_metrics_where_there_are_none() {
    let dir = out_dir("fig2");
    let json = run_small("fig2_reliability", &dir);
    let results = paper::run(&params(), paper::grid(&params(), &[Slice::Fig2]));
    assert_eq!(read(json), fig2_artifact(&params(), &results, &ProtocolKind::ALL, &FIG2_FAILURES));
    assert!(!dir.join("fig2_reliability.metrics.json").exists());
}

#[test]
fn json_is_the_artifact_builders_output_and_the_metric_snapshot_is_written() {
    let dir = out_dir("plumtree");
    let json = run_small("plumtree", &dir);
    let cells = plumtree::run(&params());
    assert_eq!(read(json), plumtree_artifact(&params(), &cells));
    let mut merged = Registry::new();
    for cell in &cells {
        merged.merge(&cell.metrics);
    }
    assert_eq!(read(dir.join("plumtree.metrics.json")), registry_json(&merged));
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let dir = out_dir("usage");
    let json = dir.join("x.json");
    let json = json.to_str().unwrap();
    for args in [
        vec!["fig9", "--json", json],
        vec!["fig4_healing", "--smok", "--json", json],
        vec!["plumtree", "--full", "--json", json],
        vec!["fig2_reliability", "--smoke", "--json"],
        vec!["fig2_reliability", "--json", json, "--n"],
        vec!["fig2_reliability", "--smoke", "--n", "10", "--json", json],
        vec!["fig2_reliability", "--smoke", "--n", "0", "--json", json],
        vec!["fig2_reliability", "--smoke", "--messages", "0", "--json", json],
        vec!["fig2_reliability", "--smoke", "--fanout", "0", "--json", json],
        vec![],
    ] {
        let run = hpv_bench(&args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage: hpv-bench"), "{args:?}");
        assert!(!dir.join("x.json").exists(), "{args:?}");
    }
}

/// No experiment reads a flag of its own, so the flags the Plumtree
/// experiments and `hyparview_attack` once took are errors that name the
/// flag, before anything runs.
#[test]
fn a_flag_the_experiment_does_not_read_is_an_error() {
    let dir = out_dir("unread");
    let json = dir.join("x.json");
    let json = json.to_str().unwrap();
    for (name, flag) in [("plumtree", "--warmup"), ("hyparview_attack", "--horizon")] {
        let run = hpv_bench(&[name, "--smoke", flag, "3", "--json", json]);
        assert_eq!(run.status.code(), Some(2), "{name} {flag}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains(&format!("unknown argument \"{flag}\"")), "{stderr}");
        assert!(!dir.join("x.json").exists(), "{name} {flag}");
    }
}
