//! Result-artifact serialization shared between the experiments and the
//! tests.
//!
//! Each builder renders one experiment's *results* artifact — a pure
//! function of the experiment data, so two sweeps that computed the same
//! results (e.g. `--jobs 1` vs `--jobs 4`) serialize to byte-identical
//! documents. That property is asserted by the `perf_harness` test suite,
//! and `hpv-bench`'s own test checks that `--json` writes exactly what
//! these builders return. No clock reading belongs in these documents.

use crate::experiments::adaptive::{AdaptiveCell, PathSummary, PhaseMetrics};
use crate::experiments::attack::AttackCell;
use crate::experiments::fig2::Fig2Row;
use crate::experiments::latency::LatencyCell;
use crate::experiments::plumtree::BroadcastCostRow;
use crate::experiments::wan::WanCell;
use crate::json::{array, JsonObject};
use crate::params::Params;

/// The `fig2_reliability` results artifact.
pub fn fig2_artifact(params: &Params, rows: &[Fig2Row]) -> String {
    JsonObject::new()
        .str("experiment", "fig2_reliability")
        .str("params", &params.describe())
        .raw(
            "rows",
            array(rows.iter().map(|row| {
                JsonObject::new()
                    .num("failure", row.failure)
                    .raw(
                        "cells",
                        array(row.cells.iter().map(|c| {
                            JsonObject::new()
                                .str("protocol", c.kind.label())
                                .num("mean_reliability", c.mean_reliability)
                                .num("min_reliability", c.min_reliability)
                                .num("accuracy_after", c.accuracy_after)
                                .int("events", c.events)
                                .build()
                        })),
                    )
                    .build()
            })),
        )
        .build()
}

/// The `plumtree_vs_flood` results artifact.
pub fn plumtree_vs_flood_artifact(
    params: &Params,
    warmup: usize,
    rows: &[BroadcastCostRow],
) -> String {
    JsonObject::new()
        .str("experiment", "plumtree_vs_flood")
        .str("params", &params.describe())
        .int("warmup", warmup as u64)
        .raw(
            "rows",
            array(rows.iter().map(|row| {
                JsonObject::new()
                    .num("failure", row.failure)
                    .raw(
                        "cells",
                        array(row.cells.iter().map(|c| {
                            JsonObject::new()
                                .str("mode", &c.mode.to_string())
                                .num("mean_reliability", c.mean_reliability)
                                .num("min_reliability", c.min_reliability)
                                .num("mean_rmr", c.mean_rmr)
                                .num("mean_last_hop", c.mean_last_hop)
                                .num("payload_per_broadcast", c.payload_per_broadcast)
                                .num("control_per_broadcast", c.control_per_broadcast)
                                .int("events", c.events)
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
        .build()
}

/// The `plumtree_adaptive` results artifact.
pub fn plumtree_adaptive_artifact(
    params: &Params,
    failure: f64,
    warmup: usize,
    heal_cycles: usize,
    cells: &[AdaptiveCell],
) -> String {
    JsonObject::new()
        .str("experiment", "plumtree_adaptive")
        .str("params", &params.describe())
        .num("failure", failure)
        .int("warmup", warmup as u64)
        .int("heal_cycles", heal_cycles as u64)
        .raw(
            "variants",
            array(cells.iter().map(|cell| {
                JsonObject::new()
                    .str("variant", cell.variant.label)
                    .raw("stable", phase_json(&cell.stable))
                    .raw("healed", phase_json(&cell.healed))
                    .int("optimizations", cell.optimizations)
                    .int("batches", cell.batches)
                    .int("grafts", cell.grafts)
                    .int("dead_letters", cell.dead_letters)
                    .int("events", cell.events)
                    .build()
            })),
        )
        .build()
}

/// The `plumtree_latency` results artifact.
pub fn plumtree_latency_artifact(
    params: &Params,
    failure: f64,
    warmup: usize,
    heal_cycles: usize,
    cells: &[LatencyCell],
) -> String {
    // One reconstructable dissemination tree rides along so the artifact
    // demonstrates the causal path tracing end to end: the first cell's
    // first stable-phase broadcast, rendered deterministically.
    let sample_tree =
        cells.first().map(|c| c.stable_paths.sample_tree.as_str()).unwrap_or_default();
    JsonObject::new()
        .str("experiment", "plumtree_latency")
        .str("params", &params.describe())
        .num("failure", failure)
        .int("warmup", warmup as u64)
        .int("heal_cycles", heal_cycles as u64)
        .str("sample_tree", sample_tree)
        .raw(
            "cells",
            array(cells.iter().map(|cell| {
                JsonObject::new()
                    .str("latency", cell.case.label)
                    .str("variant", cell.variant)
                    .raw("stable", phase_json(&cell.stable))
                    .raw("healed", phase_json(&cell.healed))
                    .raw("stable_paths", paths_json(&cell.stable_paths))
                    .raw("healed_paths", paths_json(&cell.healed_paths))
                    .int("optimizations", cell.optimizations)
                    .int("late_optimizations", cell.late_optimizations)
                    .int("grafts", cell.grafts)
                    .int("dead_letters", cell.dead_letters)
                    .int("events", cell.events)
                    .build()
            })),
        )
        .build()
}

/// The `plumtree_wan` results artifact. Cells are labeled by strategy and
/// loss rate (`variant` + `label`), so the diff flattener yields stable
/// paths like `cells[adaptive.loss10].stable.mean_reliability`.
pub fn plumtree_wan_artifact(
    params: &Params,
    warmup: usize,
    part_messages: usize,
    heal_attempts: usize,
    cells: &[WanCell],
) -> String {
    let sample_tree =
        cells.first().map(|c| c.stable_paths.sample_tree.as_str()).unwrap_or_default();
    JsonObject::new()
        .str("experiment", "plumtree_wan")
        .str("params", &params.describe())
        .int("warmup", warmup as u64)
        .int("partition_messages", part_messages as u64)
        .int("heal_attempts", heal_attempts as u64)
        .str("sample_tree", sample_tree)
        .raw(
            "cells",
            array(cells.iter().map(|cell| {
                JsonObject::new()
                    .str("variant", cell.mode)
                    .str("label", &format!("loss{}", (cell.loss * 100.0).round() as u64))
                    .num("loss", cell.loss)
                    .raw("stable", phase_json(&cell.stable))
                    .raw("stable_paths", paths_json(&cell.stable_paths))
                    .num("partitioned_reliability", cell.partitioned_reliability)
                    .int("heal_broadcasts", cell.heal_broadcasts)
                    .int("time_to_heal", cell.time_to_heal)
                    .int("converged", cell.converged as u64)
                    .raw("healed", phase_json(&cell.healed))
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
    use crate::json::parse;
    use hyparview_sim::protocols::ProtocolKind;

    #[test]
    fn attack_artifact_labels_cells_by_model_fraction_and_defense() {
        let params = Params::smoke().with_messages(2);
        let cell = crate::experiments::attack::attack_cell(
            &params,
            "eclipse",
            hyparview_sim::AttackerModel::Eclipse,
            0.20,
            "open",
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
        let rows = crate::experiments::reliability_after_failures(
            &params,
            &[ProtocolKind::Cyclon],
            &[0.2],
        );
        let doc = fig2_artifact(&params, &rows);
        let parsed = parse(&doc).expect("valid JSON");
        let flat = crate::diff::flatten(&parsed);
        assert!(
            flat.iter().any(|(path, _)| path == "rows[0].cells[Cyclon].mean_reliability"),
            "{flat:?}"
        );
        assert!(flat.iter().any(|(path, _)| path.ends_with(".events")));
    }
}
