//! Integration tests of the performance harness guarantee of jobs
//! invariance: `--jobs 4` parallel seed sweeps serialize to artifacts
//! *byte-identical* to `--jobs 1`, for the fig2 and `plumtree_latency`
//! smoke shapes: runs are pure functions of their seed and partials merge
//! in seed order.

use hyparview_bench::artifacts::{
    fig2_artifact, hyparview_attack_artifact, plumtree_latency_artifact, plumtree_wan_artifact,
};
use hyparview_bench::experiments::attack::hyparview_attack;
use hyparview_bench::experiments::latency::plumtree_latency;
use hyparview_bench::experiments::reliability_after_failures;
use hyparview_bench::experiments::wan::plumtree_wan;
use hyparview_bench::Params;
use hyparview_sim::protocols::ProtocolKind;

/// Scaled-down fig2 smoke: the full methodology, a grid small enough for
/// a unit-test budget.
fn fig2_params() -> Params {
    Params::smoke().with_messages(12).with_runs(2)
}

const FIG2_KINDS: [ProtocolKind; 2] = [ProtocolKind::HyParView, ProtocolKind::CyclonAcked];
const FIG2_FAILURES: [f64; 2] = [0.2, 0.6];

fn fig2_doc(params: &Params) -> String {
    let rows = reliability_after_failures(params, &FIG2_KINDS, &FIG2_FAILURES);
    fig2_artifact(params, &rows)
}

#[test]
fn fig2_artifact_is_byte_identical_across_jobs() {
    let sequential = fig2_doc(&fig2_params().with_jobs(1));
    let parallel = fig2_doc(&fig2_params().with_jobs(4));
    assert_eq!(sequential, parallel, "--jobs 4 must not change a byte of the fig2 artifact");
}

#[test]
fn plumtree_latency_artifact_is_byte_identical_across_jobs() {
    let doc = |jobs: usize| {
        let params = Params::smoke().with_messages(12).with_jobs(jobs);
        let cells = plumtree_latency(&params, 0.3, 12, 2);
        plumtree_latency_artifact(&params, 0.3, 12, 2, &cells)
    };
    let sequential = doc(1);
    let parallel = doc(4);
    assert_eq!(
        sequential, parallel,
        "--jobs 4 must not change a byte of the plumtree_latency artifact"
    );
}

#[test]
fn hyparview_attack_artifact_is_byte_identical_across_jobs() {
    // Attacker draws come from their own seeded stream (per-colluder
    // SplitMix64 roles), so every cell of the adversarial sweep is a pure
    // function of the scenario seed — parallel execution must not change
    // a byte.
    let doc = |jobs: usize| {
        let params = Params::smoke().with_messages(8).with_jobs(jobs);
        let cells = hyparview_attack(&params, 10);
        hyparview_attack_artifact(&params, 10, &cells)
    };
    let sequential = doc(1);
    let parallel = doc(4);
    assert_eq!(
        sequential, parallel,
        "--jobs 4 must not change a byte of the hyparview_attack artifact"
    );
}

#[test]
fn plumtree_wan_artifact_is_byte_identical_across_jobs() {
    // Fault-injection draws come from their own seeded stream, so the
    // lossy cells of the WAN sweep are pure functions of the scenario
    // seed — parallel execution must not change a byte.
    let doc = |jobs: usize| {
        let params = Params::smoke().with_messages(12).with_jobs(jobs);
        let cells = plumtree_wan(&params, 12, 4, 6);
        plumtree_wan_artifact(&params, 12, 4, 6, &cells)
    };
    let sequential = doc(1);
    let parallel = doc(4);
    assert_eq!(
        sequential, parallel,
        "--jobs 4 must not change a byte of the plumtree_wan artifact"
    );
}
