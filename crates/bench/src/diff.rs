//! `hpv-bench diff` diffs two directories of results artifacts into a
//! markdown table: in CI, the smoke goldens committed under `results/smoke/`
//! against the PR base's.
//!
//! ```text
//! hpv-bench diff <baseline> <current> [--threshold 0.10]
//! ```
//!
//! Both documents flatten into dotted metric paths (array elements are
//! labeled by their string fields, so
//! `cells[uniform.optimized].healed.mean_last_hop` stays stable across
//! runs), and the deltas render as a table (stdout; CI appends it to
//! `$GITHUB_STEP_SUMMARY`). Metrics with a known direction — reliability /
//! time-to-eclipse up, RMR / last-hop / control traffic / dead letters /
//! capture down — gate: a relative worsening beyond the threshold is a
//! *regression*. The raw `attack.*` counters stay informational, like the
//! `faults.*` family: how often a defense fired is a property of the attack
//! plan, not a quality signal. The golden test (`tests/golden.rs`) prints
//! the same table when a run moves a committed artifact.
//!
//! `baseline` and `current` are two JSON files or two directories paired by
//! file name. Exit codes: `0` clean (including when the baseline does not
//! exist, e.g. a base commit from before the goldens), `1` if a directed
//! metric regressed beyond the threshold, `2` on usage or parse errors.

use crate::json::{parse, JsonValue};
use std::path::{Path, PathBuf};

/// Whether a metric has a "better" direction, and which way it points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (reliability, accuracy).
    HigherIsBetter,
    /// Smaller is better (RMR, last hop, control traffic, dead letters).
    LowerIsBetter,
    /// No direction: reported, never gated (counts, parameters).
    Info,
}

/// The metric *name* of a dotted path: its last segment, lowercased.
/// Heuristics match on this, not on the labels along the path — a variant
/// named "optimized" must not change how its metrics classify.
fn metric_name(path: &str) -> String {
    let lower = path.to_ascii_lowercase();
    lower.rsplit('.').next().unwrap_or(&lower).to_owned()
}

/// The gate direction of a metric path, by name heuristics over the
/// families the experiments emit.
pub fn direction(path: &str) -> Direction {
    let name = metric_name(path);
    if name.contains("reliability") || name.contains("accuracy") || name.contains("time_to_eclipse")
    {
        Direction::HigherIsBetter
    } else if name.contains("rmr")
        || name.contains("last_hop")
        || name.contains("control")
        || name.contains("dead_letter")
        || name.contains("time_to_heal")
        || name.contains("capture")
    {
        Direction::LowerIsBetter
    } else if name.ends_with("_p50") || name.ends_with("_p99") {
        // Histogram percentile paths from the observability layer. The
        // latency/hop/depth families are tail metrics: growing tails mean
        // a deeper or slower dissemination tree.
        if name.contains("latency") || name.contains("hop") || name.contains("depth") {
            Direction::LowerIsBetter
        } else {
            Direction::Info
        }
    } else {
        Direction::Info
    }
}

/// One metric present in either artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Dotted metric path (array elements labeled by their string fields).
    pub path: String,
    /// Value in the baseline artifact (`None` if the metric is new).
    pub base: Option<f64>,
    /// Value in the current artifact (`None` if the metric disappeared).
    pub current: Option<f64>,
}

impl DiffRow {
    /// `current − base` when both sides exist.
    pub fn delta(&self) -> Option<f64> {
        Some(self.current? - self.base?)
    }

    /// Relative change against the baseline magnitude (clamped away from
    /// division by zero so a 0 → x move still registers).
    pub fn relative(&self) -> Option<f64> {
        Some(self.delta()? / self.base?.abs().max(1e-9))
    }

    /// Whether this row *worsens* its directed metric beyond `threshold`
    /// (relative to the baseline). Direction-less metrics never regress.
    pub fn regressed(&self, threshold: f64) -> bool {
        let (Some(base), Some(current)) = (self.base, self.current) else {
            return false;
        };
        if (current - base).abs() < 1e-6 {
            return false;
        }
        let scale = base.abs().max(1e-9);
        match direction(&self.path) {
            Direction::HigherIsBetter => (base - current) / scale > threshold,
            Direction::LowerIsBetter => (current - base) / scale > threshold,
            Direction::Info => false,
        }
    }
}

/// Keys whose string values label an array element, in precedence order.
/// Concatenating every match keeps paths unique when an experiment is a
/// grid (e.g. latency model × variant).
const LABEL_KEYS: [&str; 7] =
    ["experiment", "protocol", "latency", "variant", "label", "model", "phase"];

fn element_label(value: &JsonValue, index: usize) -> String {
    let mut parts = Vec::new();
    for key in LABEL_KEYS {
        if let Some(text) = value.get(key).and_then(JsonValue::as_str) {
            parts.push(text.to_owned());
        }
    }
    if parts.is_empty() {
        index.to_string()
    } else {
        parts.join(".")
    }
}

/// Flattens every numeric leaf of `value` into `(dotted path, value)`
/// pairs, in document order.
pub fn flatten(value: &JsonValue) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(value, String::new(), &mut out);
    out
}

fn walk(value: &JsonValue, path: String, out: &mut Vec<(String, f64)>) {
    match value {
        JsonValue::Num(n) => out.push((path, *n)),
        JsonValue::Obj(fields) => {
            for (key, child) in fields {
                let child_path =
                    if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                walk(child, child_path, out);
            }
        }
        JsonValue::Arr(items) => {
            for (index, child) in items.iter().enumerate() {
                let label = element_label(child, index);
                walk(child, format!("{path}[{label}]"), out);
            }
        }
        JsonValue::Null | JsonValue::Bool(_) | JsonValue::Str(_) => {}
    }
}

/// Diffs two parsed artifacts into per-metric rows: the union of both
/// flattenings, baseline order first, current-only metrics appended.
pub fn diff(base: &JsonValue, current: &JsonValue) -> Vec<DiffRow> {
    let base_metrics = flatten(base);
    let current_metrics = flatten(current);
    let mut rows: Vec<DiffRow> = base_metrics
        .iter()
        .map(|(path, value)| DiffRow {
            path: path.clone(),
            base: Some(*value),
            current: current_metrics.iter().find(|(p, _)| p == path).map(|(_, v)| *v),
        })
        .collect();
    for (path, value) in &current_metrics {
        if !base_metrics.iter().any(|(p, _)| p == path) {
            rows.push(DiffRow { path: path.clone(), base: None, current: Some(*value) });
        }
    }
    rows
}

fn fmt(value: Option<f64>) -> String {
    match value {
        None => "—".to_owned(),
        Some(v) if v == v.trunc() && v.abs() < 1e12 => format!("{v}"),
        Some(v) => format!("{v:.4}"),
    }
}

/// Renders the rows as a markdown table. Unchanged metrics collapse into a
/// footer count so the table stays readable in a job summary; every changed
/// metric is listed, regressions flagged against `threshold`. Returns
/// `(markdown, regression count)`.
pub fn markdown_table(rows: &[DiffRow], threshold: f64) -> (String, usize) {
    let mut table = String::from("| metric | baseline | current | Δ | Δ% | |\n");
    table.push_str("|---|---:|---:|---:|---:|---|\n");
    let mut unchanged = 0usize;
    let mut regressions = 0usize;
    for row in rows {
        let changed = match row.delta() {
            Some(delta) => delta.abs() >= 1e-6,
            None => true, // appeared or disappeared: always worth a line
        };
        if !changed {
            unchanged += 1;
            continue;
        }
        let regressed = row.regressed(threshold);
        let improved = !regressed
            && direction(&row.path) != Direction::Info
            && DiffRow { path: row.path.clone(), base: row.current, current: row.base }
                .regressed(threshold);
        if regressed {
            regressions += 1;
        }
        let flag = if regressed {
            "**regression**"
        } else if improved {
            "improved"
        } else {
            ""
        };
        let delta = row.delta().map(|d| format!("{d:+.4}")).unwrap_or_else(|| "—".to_owned());
        let relative =
            row.relative().map(|r| format!("{:+.1}%", r * 100.0)).unwrap_or_else(|| "—".to_owned());
        table.push_str(&format!(
            "| `{}` | {} | {} | {} | {} | {} |\n",
            row.path,
            fmt(row.base),
            fmt(row.current),
            delta,
            relative,
            flag
        ));
    }
    if rows.len() == unchanged {
        table.push_str("| _all metrics unchanged_ | | | | | |\n");
    }
    table.push_str(&format!(
        "\n{} metrics compared, {} unchanged, {} regression(s) at threshold {:.0}%.\n",
        rows.len(),
        unchanged,
        regressions,
        threshold * 100.0
    ));
    (table, regressions)
}

/// `hpv-bench diff <baseline> <current> [--threshold 0.10]`; returns the
/// exit code.
pub fn main(args: &[String]) -> i32 {
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.10;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => match args.next().map(|v| v.parse()) {
                Some(Ok(value)) => threshold = value,
                _ => return usage("--threshold expects a fraction, e.g. 0.10"),
            },
            other if other.starts_with("--") => return usage(&format!("unknown flag {other}")),
            other => paths.push(other),
        }
    }
    let [baseline, current] = paths.as_slice() else {
        return usage("expected exactly two paths: <baseline> <current>");
    };
    let (baseline, current) = (Path::new(baseline), Path::new(current));

    if !baseline.exists() {
        // A base commit from before the goldens has nothing to compare
        // against. That is not an error — say so and succeed.
        println!("_No baseline artifacts at `{}` — nothing to compare._", baseline.display());
        return 0;
    }
    if !current.exists() {
        eprintln!("current artifact {} does not exist", current.display());
        return 2;
    }

    let (pairs, notices) = pair_artifacts(baseline, current);
    println!("### Bench artifacts vs baseline (threshold {:.0}%)\n", threshold * 100.0);
    for notice in &notices {
        println!("{notice}\n");
    }
    if pairs.is_empty() {
        println!("_Baseline and current artifacts share no JSON files — nothing to compare._");
        return 0;
    }

    let mut regressions = 0usize;
    let mut broken = 0usize;
    for (name, base_path, current_path) in &pairs {
        match (load(base_path), load(current_path)) {
            (Some(base), Some(current)) => {
                let (table, regressed) = markdown_table(&diff(&base, &current), threshold);
                regressions += regressed;
                let badge = if regressed > 0 {
                    format!(" — ⚠ {regressed} regression(s)")
                } else {
                    String::new()
                };
                println!("<details><summary><b>{name}</b>{badge}</summary>\n");
                println!("{table}</details>\n");
            }
            _ => {
                // An artifact that exists but cannot be read is a broken
                // pipeline, not a clean comparison — it must not turn the
                // gate green.
                broken += 1;
                println!("_`{name}` failed to load on one side — see the step log._\n");
            }
        }
    }
    if broken > 0 {
        println!("**{broken} artifact(s) failed to load.**");
        return 2;
    }
    if regressions > 0 {
        println!("**{regressions} regression(s) detected.**");
        return 1;
    }
    println!("No regressions detected.");
    0
}

fn usage(message: &str) -> i32 {
    eprintln!("hpv-bench diff: {message}");
    eprintln!("usage: hpv-bench diff <baseline> <current> [--threshold 0.10]");
    2
}

fn load(path: &Path) -> Option<JsonValue> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| eprintln!("read {}: {e}", path.display()))
        .ok()?;
    parse(&text).map_err(|e| eprintln!("parse {}: {e}", path.display())).ok()
}

/// `(name, baseline path, current path)` for each artifact present on
/// both sides.
type ArtifactPairs = Vec<(String, PathBuf, PathBuf)>;

/// Pairs the artifacts to compare: two files compare directly, two
/// directories pair by file name. Files present on only one side are not
/// regressions (new or retired experiments); they come back as markdown
/// notices.
fn pair_artifacts(baseline: &Path, current: &Path) -> (ArtifactPairs, Vec<String>) {
    if baseline.is_file() {
        let name = baseline.file_name().unwrap_or_default().to_string_lossy().into_owned();
        return (vec![(name, baseline.to_owned(), current.to_owned())], Vec::new());
    }
    let json_files = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .filter(|n| n.ends_with(".json"))
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    };
    let base_names = json_files(baseline);
    let current_names = json_files(current);
    let mut notices = Vec::new();
    for name in base_names.iter().filter(|n| !current_names.contains(n)) {
        notices.push(format!("_`{name}` exists only in the baseline (experiment removed?)._"));
    }
    for name in current_names.iter().filter(|n| !base_names.contains(n)) {
        notices.push(format!("_`{name}` is new: no baseline to compare against._"));
    }
    let pairs = base_names
        .into_iter()
        .filter(|n| current_names.contains(n))
        .map(|n| (n.clone(), baseline.join(&n), current.join(&n)))
        .collect();
    (pairs, notices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(reliability: f64, last_hop: f64) -> JsonValue {
        parse(&format!(
            r#"{{"experiment":"x","cells":[
                {{"latency":"uniform","variant":"optimized",
                  "healed":{{"mean_reliability":{reliability},"mean_last_hop":{last_hop}}},
                  "grafts":3}}
            ]}}"#
        ))
        .expect("test artifact")
    }

    #[test]
    fn flatten_labels_array_elements_by_string_fields() {
        let metrics = flatten(&artifact(1.0, 6.0));
        let paths: Vec<&str> = metrics.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "cells[uniform.optimized].healed.mean_reliability",
                "cells[uniform.optimized].healed.mean_last_hop",
                "cells[uniform.optimized].grafts",
            ]
        );
    }

    #[test]
    fn unlabeled_elements_fall_back_to_indices() {
        let metrics = flatten(&parse(r#"{"xs":[{"v":1},{"v":2}]}"#).unwrap());
        assert_eq!(metrics[0].0, "xs[0].v");
        assert_eq!(metrics[1].0, "xs[1].v");
    }

    #[test]
    fn directions_follow_the_metric_name_not_the_labels() {
        assert_eq!(direction("cells[x].healed.mean_reliability"), Direction::HigherIsBetter);
        assert_eq!(direction("rows[y].accuracy"), Direction::HigherIsBetter);
        assert_eq!(direction("cells[x].stable.mean_rmr"), Direction::LowerIsBetter);
        assert_eq!(direction("cells[x].healed.mean_last_hop"), Direction::LowerIsBetter);
        assert_eq!(direction("variants[v].control_per_broadcast"), Direction::LowerIsBetter);
        assert_eq!(direction("cells[x].dead_letters"), Direction::LowerIsBetter);
        assert_eq!(direction("cells[low_control_variant].grafts"), Direction::Info);
        assert_eq!(direction("warmup"), Direction::Info);
    }

    #[test]
    fn wan_fault_metrics_classify_by_name() {
        // Reliability under loss still gates upward; healing time gates
        // downward; raw fault counters are informational — how many frames
        // the injected plan ate is a property of the plan, not a quality
        // signal.
        assert_eq!(
            direction("cells[adaptive.loss10].partitioned_reliability"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("cells[adaptive.loss10].time_to_heal"), Direction::LowerIsBetter);
        assert_eq!(direction("cells[flood.loss5].dropped"), Direction::Info);
        assert_eq!(direction("cells[flood.loss5].partition_dropped"), Direction::Info);
        assert_eq!(direction("cells[flood.loss5].duplicated"), Direction::Info);
        assert_eq!(direction("counters.faults.dropped"), Direction::Info);
        assert_eq!(direction("cells[static.loss0].converged"), Direction::Info);
    }

    #[test]
    fn attack_metrics_classify_by_name() {
        // Time-to-eclipse gates upward (defenses must keep delaying the
        // attacker), capture fractions gate downward; the raw attack
        // counters are informational like the faults family.
        assert_eq!(
            direction("cells[eclipse.frac20.hardened].time_to_eclipse"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction("cells[infiltration.frac20.open].capture_fraction"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("cells[infiltration.frac20.open].indegree_capture"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("cells[eclipse.frac10.open].honest_reliability"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("counters.attack.joins_damped"), Direction::Info);
        assert_eq!(direction("counters.attack.tenure_swaps"), Direction::Info);
        assert_eq!(direction("cells[eclipse.frac20.open].neighbor_floods"), Direction::Info);
        assert_eq!(direction("cells[eclipse.frac20.open].shuffles_biased"), Direction::Info);
    }

    #[test]
    fn histogram_percentiles_are_direction_aware() {
        assert_eq!(direction("cells[x].stable_paths.hop_latency_p99"), Direction::LowerIsBetter);
        assert_eq!(direction("cells[x].healed_paths.depth_p50"), Direction::LowerIsBetter);
        assert_eq!(direction("cells[x].stable_paths.branching_p50"), Direction::Info);
    }

    #[test]
    fn regressions_are_direction_aware() {
        let rows = diff(&artifact(1.0, 6.0), &artifact(0.8, 6.0));
        let (_, regressions) = markdown_table(&rows, 0.10);
        assert_eq!(regressions, 1, "reliability dropped 20% > 10% threshold");
        // The same magnitude of change upward is an improvement, not a
        // regression.
        let rows = diff(&artifact(0.8, 6.0), &artifact(1.0, 6.0));
        let (table, regressions) = markdown_table(&rows, 0.10);
        assert_eq!(regressions, 0);
        assert!(table.contains("improved"), "{table}");
        // last_hop is lower-is-better: growing it regresses.
        let rows = diff(&artifact(1.0, 6.0), &artifact(1.0, 7.0));
        assert_eq!(markdown_table(&rows, 0.10).1, 1);
        // Within threshold: no regression.
        let rows = diff(&artifact(1.0, 6.0), &artifact(1.0, 6.3));
        assert_eq!(markdown_table(&rows, 0.10).1, 0);
    }

    #[test]
    fn info_metrics_never_gate() {
        let base = parse(r#"{"grafts":1}"#).unwrap();
        let current = parse(r#"{"grafts":100}"#).unwrap();
        assert_eq!(markdown_table(&diff(&base, &current), 0.01).1, 0);
    }

    #[test]
    fn identical_artifacts_collapse_to_unchanged() {
        let rows = diff(&artifact(1.0, 6.0), &artifact(1.0, 6.0));
        let (table, regressions) = markdown_table(&rows, 0.10);
        assert_eq!(regressions, 0);
        assert!(table.contains("all metrics unchanged"), "{table}");
        assert!(table.contains("3 metrics compared, 3 unchanged"), "{table}");
    }

    #[test]
    fn appearing_and_disappearing_metrics_are_reported_not_gated() {
        let base = parse(r#"{"old_reliability":1.0}"#).unwrap();
        let current = parse(r#"{"new_reliability":0.5}"#).unwrap();
        let rows = diff(&base, &current);
        assert_eq!(rows.len(), 2);
        let (table, regressions) = markdown_table(&rows, 0.10);
        assert_eq!(regressions, 0, "one-sided metrics cannot regress");
        assert!(table.contains('—'), "{table}");
    }
}
