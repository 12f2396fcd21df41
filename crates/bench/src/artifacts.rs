//! Result-artifact serialization shared between the experiments and the
//! tests.
//!
//! Each builder renders one experiment's *results* artifact — a pure
//! function of the experiment data, so two sweeps that computed the same
//! results (e.g. `--jobs 1` vs `--jobs 4`) serialize to byte-identical
//! documents. The golden test (`tests/golden.rs`) holds the three smoke
//! experiments' documents to the files committed under `results/smoke/` at
//! both job counts, and `hpv-bench`'s own test checks that `--json` writes
//! exactly what these builders return. No clock reading belongs in these
//! documents.

use crate::experiments::attack::AttackCell;
use crate::experiments::paper::{self, Results};
use crate::experiments::plumtree::{
    Cell, PathSummary, PhaseMetrics, BURST, DISTURBED_MESSAGES, HEAL_ATTEMPTS, HEAL_CYCLES, WARMUP,
};
use crate::json::{array, JsonObject};
use crate::params::Params;
use hyparview_sim::protocols::ProtocolKind;

/// The `fig2_reliability` results artifact: one row per failure level of
/// `failures`, one cell per protocol of `kinds`, each merging its runs.
pub fn fig2_artifact(
    params: &Params,
    results: &Results,
    kinds: &[ProtocolKind],
    failures: &[f64],
) -> String {
    JsonObject::new()
        .str("experiment", "fig2_reliability")
        .str("params", &params.describe())
        .raw(
            "rows",
            array(failures.iter().map(|&failure| {
                JsonObject::new()
                    .num("failure", failure)
                    .raw(
                        "cells",
                        array(kinds.iter().map(|&kind| {
                            let cell = paper::Cell::new(params, kind).failing(failure);
                            let runs = results.runs(&cell);
                            let summary = paper::summary(runs, params.messages);
                            let events = runs.iter().map(|run| run.events).sum();
                            JsonObject::new()
                                .str("protocol", kind.label())
                                .num("mean_reliability", summary.mean_reliability())
                                .num("min_reliability", summary.min_reliability())
                                // The view accuracy right after the crash.
                                .num(
                                    "accuracy_after",
                                    results.mean(&cell, |run| run.accuracy_before),
                                )
                                .int("events", events)
                                .build()
                        })),
                    )
                    .build()
            })),
        )
        .build()
}

/// One phase's dissemination-path summary: histogram percentiles (all
/// deterministic integers) plus the rendered sample tree.
fn paths_json(paths: &PathSummary) -> String {
    JsonObject::new()
        .int("hop_latency_p50", paths.hop_latency.p50())
        .int("hop_latency_p99", paths.hop_latency.p99())
        .int("hop_latency_max", paths.hop_latency.max())
        .int("depth_p50", paths.depth.p50())
        .int("depth_p99", paths.depth.p99())
        .int("branching_p50", paths.branching.p50())
        .int("branching_p99", paths.branching.p99())
        .int("deliveries", paths.depth.count())
        .build()
}

fn phase_json(metrics: &PhaseMetrics) -> String {
    JsonObject::new()
        .num("mean_reliability", metrics.mean_reliability)
        .num("min_reliability", metrics.min_reliability)
        .num("mean_rmr", metrics.mean_rmr)
        .num("mean_last_hop", metrics.mean_last_hop)
        .num("control_per_broadcast", metrics.control_per_broadcast)
        .num("payload_per_broadcast", metrics.payload_per_broadcast)
        .build()
}

/// The `plumtree` results artifact. Cells are labeled by strategy and
/// coordinates (`variant` + `label`), so the diff flattener yields stable
/// paths like `cells[adaptive.lognormal-link.loss10.partition].time_to_heal`.
pub fn plumtree_artifact(params: &Params, cells: &[Cell]) -> String {
    // One reconstructable dissemination tree rides along so the artifact
    // shows the causal path tracing end to end: the first cell's first
    // stable-phase broadcast, rendered deterministically.
    let sample_tree =
        cells.first().map(|c| c.stable_paths.sample_tree.as_str()).unwrap_or_default();
    JsonObject::new()
        .str("experiment", "plumtree")
        .str("params", &params.describe())
        .int("warmup", WARMUP as u64)
        .int("burst", BURST as u64)
        .int("disturbed_messages", DISTURBED_MESSAGES as u64)
        .int("heal_cycles", HEAL_CYCLES as u64)
        .int("heal_attempts", HEAL_ATTEMPTS as u64)
        .str("sample_tree", sample_tree)
        .raw(
            "cells",
            array(cells.iter().map(|cell| {
                JsonObject::new()
                    .str("slice", cell.at.slice)
                    .str("variant", cell.at.strategy.label)
                    .str("label", &cell.at.label())
                    .raw("stable", phase_json(&cell.stable))
                    .raw("stable_paths", paths_json(&cell.stable_paths))
                    .num("disturbed_reliability", cell.disturbed_reliability)
                    .int("heal_broadcasts", cell.heal_broadcasts)
                    .int("time_to_heal", cell.time_to_heal)
                    .int("converged", cell.converged as u64)
                    .raw("healed", phase_json(&cell.healed))
                    .raw("healed_paths", paths_json(&cell.healed_paths))
                    .int("optimizations", cell.optimizations)
                    .int("late_optimizations", cell.late_optimizations)
                    .int("batches", cell.batches)
                    .int("grafts", cell.grafts)
                    .int("dead_letters", cell.dead_letters)
                    .int("dropped", cell.dropped)
                    .int("partition_dropped", cell.partition_dropped)
                    .int("duplicated", cell.duplicated)
                    .int("events", cell.events)
                    .build()
            })),
        )
        .build()
}

/// The `hyparview_attack` results artifact. Cells are labeled by attacker
/// model, fraction and defense (`variant` + `label`), so the diff
/// flattener yields stable paths like
/// `cells[eclipse.frac20.hardened].time_to_eclipse`.
pub fn hyparview_attack_artifact(params: &Params, horizon: usize, cells: &[AttackCell]) -> String {
    JsonObject::new()
        .str("experiment", "hyparview_attack")
        .str("params", &params.describe())
        .int("horizon", horizon as u64)
        .raw(
            "cells",
            array(cells.iter().map(|cell| {
                JsonObject::new()
                    .str("variant", cell.model)
                    .str(
                        "label",
                        &format!("frac{}.{}", (cell.fraction * 100.0).round() as u64, cell.defense),
                    )
                    .num("fraction", cell.fraction)
                    .int("colluders", cell.colluders as u64)
                    .int("victims", cell.victims as u64)
                    .int("time_to_eclipse", cell.time_to_eclipse)
                    .int("eclipsed", cell.eclipsed as u64)
                    .int("eclipsed_victims", cell.eclipsed_victims as u64)
                    .num("capture_fraction", cell.capture_fraction)
                    .num("indegree_capture", cell.indegree_capture)
                    .num("honest_component", cell.honest_component)
                    .num("honest_reliability", cell.honest_reliability)
                    .int("joins_damped", cell.joins_damped)
                    .int("neighbors_damped", cell.neighbors_damped)
                    .int("tenure_swaps", cell.tenure_swaps)
                    .int("shuffle_boosts", cell.shuffle_boosts)
                    .int("neighbor_floods", cell.neighbor_floods)
                    .int("rejoins", cell.rejoins)
                    .int("shuffles_biased", cell.shuffles_biased)
                    .int("events", cell.events)
                    .build()
            })),
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::paper::{Cell, Slice};
    use crate::json::parse;

    #[test]
    fn attack_artifact_labels_cells_by_model_fraction_and_defense() {
        let params = Params::smoke().with_messages(2);
        let cell = crate::experiments::attack::attack_cell(
            &params,
            "eclipse",
            hyparview_sim::AttackerModel::Eclipse,
            0.20,
            crate::experiments::OPEN,
            4,
        );
        let doc = hyparview_attack_artifact(&params, 4, std::slice::from_ref(&cell));
        let parsed = parse(&doc).expect("valid JSON");
        let flat = crate::diff::flatten(&parsed);
        for metric in ["time_to_eclipse", "capture_fraction", "honest_reliability"] {
            assert!(
                flat.iter()
                    .any(|(path, _)| path == &format!("cells[eclipse.frac20.open].{metric}")),
                "missing {metric} in {flat:?}"
            );
        }
    }

    #[test]
    fn fig2_artifact_is_valid_json_with_labeled_cells() {
        let params = Params::smoke().with_messages(4);
        let cell = Cell::new(&params, ProtocolKind::Cyclon).failing(0.2);
        let results = paper::run(&params, vec![Slice::Fig2.key(&params, cell)]);
        let doc = fig2_artifact(&params, &results, &[ProtocolKind::Cyclon], &[0.2]);
        let parsed = parse(&doc).expect("valid JSON");
        let flat = crate::diff::flatten(&parsed);
        assert!(
            flat.iter().any(|(path, _)| path == "rows[0].cells[Cyclon].mean_reliability"),
            "{flat:?}"
        );
        assert!(flat.iter().any(|(path, _)| path.ends_with(".events")));
    }
}
