//! One function per `hpv-bench` experiment: it runs the experiment, renders
//! its table and builds its results artifact. A paper slice's report ends
//! with its rows of the claims table ([`claims`]), each measured and marked
//! holds or FAILS, and its failures are exactly the failing rows; the
//! `plumtree` and `hyparview_attack` extensions check their own headlines.
//! [`EXPERIMENTS`] is the name table `hpv-bench` dispatches on; the names
//! are the artifacts' `experiment` fields and file stems.

use crate::artifacts::{fig2_artifact, hyparview_attack_artifact, plumtree_artifact};
use crate::cli::{Outcome, Run};
use crate::experiments::paper::{self, summary, Cell, Results, Slice, FIG2_FAILURES};
use crate::experiments::plumtree;
use crate::experiments::{attack, claims};
use crate::params::Params;
use crate::table::{num, pct, render, sparkline};
use hyparview_gossip::ReliabilitySummary;
use hyparview_graph::mean_field_reach;
use hyparview_obsv::Registry;
use hyparview_sim::protocols::ProtocolKind;
use hyparview_sim::{ATTACKER_REJOIN, ECLIPSE_VICTIMS};

/// Every experiment by name, in the order `hpv-bench`'s usage lists them.
pub(crate) const EXPERIMENTS: [(&str, Run); 12] = [
    ("fig1_fanout", |params| run_slices(params, &[Slice::Fig1])),
    ("fig1c_after_failure", |params| run_slices(params, &[Slice::Fig1c])),
    ("fig2_reliability", |params| run_slices(params, &[Slice::Fig2])),
    ("fig3_recovery", |params| run_slices(params, &[Slice::Fig3])),
    ("fig4_healing", |params| run_slices(params, &[Slice::Fig4])),
    ("fig5_indegree", |params| run_slices(params, &[Slice::Fig5])),
    ("table1_graph_props", |params| run_slices(params, &[Slice::Table1])),
    ("overhead", |params| run_slices(params, &[Slice::Overhead])),
    ("ablations", |params| run_slices(params, &[Slice::Ablations])),
    ("plumtree", plumtree),
    ("hyparview_attack", hyparview_attack),
    // The paper's evaluation in order: Figures 1 to 4, Table 1, Figure 5.
    ("all", |params| run_slices(params, &paper::ALL)),
];

/// Experiments of the paper's evaluation over one grid, in which every
/// cell they share runs once. One slice's outcome is its own; several
/// slices' reports follow each other.
fn run_slices(params: &Params, slices: &[Slice]) -> Outcome {
    let results = paper::run(params, paper::grid(params, slices));
    if let [slice] = slices {
        return report(*slice, params, &results);
    }
    let mut outcome = Outcome::default();
    for &slice in slices {
        let part = report(slice, params, &results);
        outcome.report += &(part.report + "\n\n");
        outcome.failures.extend(part.failures);
    }
    outcome
}

/// The report of `slice`, read from `results`, and its rows of the claims
/// table: a failing row is a failure.
pub(crate) fn report(slice: Slice, params: &Params, results: &Results) -> Outcome {
    let report = match slice {
        Slice::Fig1 => fig1_fanout,
        Slice::Fig1c => fig1c_after_failure,
        Slice::Fig2 => fig2_reliability,
        Slice::Fig3 => fig3_recovery,
        Slice::Fig4 => fig4_healing,
        Slice::Fig5 => fig5_indegree,
        Slice::Table1 => table1_graph_props,
        Slice::Overhead => overhead,
        Slice::Ablations => ablations,
    };
    let (table, failures) = claims::check(slice, params, results);
    let outcome = report(params, results);
    Outcome { report: format!("{}\n\nclaims:\n{table}", outcome.report), failures, ..outcome }
}

fn header(title: &str, params: &Params, detail: &str) -> Vec<String> {
    vec![format!("# {title}"), format!("# {}{detail}", params.describe())]
}

fn merged<'a>(registries: impl Iterator<Item = &'a Registry>) -> Registry {
    let mut merged = Registry::new();
    for registry in registries {
        merged.merge(registry);
    }
    merged
}

/// Figure 1a/1b: fanout × reliability on a stable overlay.
fn fig1_fanout(params: &Params, results: &Results) -> Outcome {
    // The paper measures 50 broadcasts per fanout in this experiment.
    let messages = Slice::Fig1.broadcasts(params);
    let shown = params.clone().with_messages(messages);
    let mut out = header("Figure 1a/1b — fanout x reliability (stable overlay)", &shown, "");
    let cells = Slice::Fig1.cells(params);
    let points: Vec<_> = cells.iter().map(|c| (c, summary(results.runs(c), messages))).collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(cell, summary)| {
            vec![
                cell.kind.label().to_owned(),
                cell.fanout.to_string(),
                pct(summary.mean_reliability()),
                pct(summary.min_reliability()),
                num(summary.atomic_fraction(), 3),
                pct(mean_field_reach(cell.fanout)),
            ]
        })
        .collect();
    let headers =
        ["protocol", "fanout", "mean reliability", "min reliability", "atomic frac", "model"];
    out.push(render(&headers, &rows));
    // The first fanout at which each baseline reaches 99%.
    for kind in [ProtocolKind::Cyclon, ProtocolKind::Scamp] {
        let reaches =
            |(c, s): &&(&Cell, ReliabilitySummary)| c.kind == kind && s.mean_reliability() >= 0.99;
        out.push(match points.iter().filter(reaches).map(|(c, _)| c.fanout).min() {
            Some(f) => format!("{kind}: first fanout reaching 99% reliability = {f}"),
            None => format!("{kind}: never reached 99% reliability in the sweep"),
        });
    }
    Outcome::new(out)
}

/// Figure 1c: reliability of the messages sent right after 50% of the nodes
/// crash, for Cyclon and Scamp (the motivation experiment, §3.2).
fn fig1c_after_failure(params: &Params, results: &Results) -> Outcome {
    // The paper sends 100 messages in this experiment.
    let messages = Slice::Fig1c.broadcasts(params);
    let shown = params.clone().with_messages(messages);
    let mut out = header("Figure 1c — effect of 50% node failures (Cyclon, Scamp)", &shown, "");
    let rows: Vec<Vec<String>> = Slice::Fig1c
        .cells(params)
        .iter()
        .map(|cell| {
            let series = results.series(cell, messages);
            let max = series.iter().copied().fold(0.0, f64::max);
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            vec![cell.kind.label().to_owned(), pct(mean), pct(max), sparkline(&series, 25)]
        })
        .collect();
    out.push(render(&["protocol", "mean reliability", "best message", "evolution"], &rows));
    Outcome::new(out)
}

/// Figure 2: mean reliability of the broadcasts sent right after crashing
/// 10% to 95% of all nodes, for all four protocols.
fn fig2_reliability(params: &Params, results: &Results) -> Outcome {
    let title =
        format!("Figure 2 — reliability for {} messages after massive failures", params.messages);
    let mut out = header(&title, params, "");
    let reliability = |kind, failure| {
        results.reliability(&Cell::new(params, kind).failing(failure), params.messages)
    };
    let mut headers = vec!["failure %"];
    headers.extend(ProtocolKind::ALL.map(ProtocolKind::label));
    let rows: Vec<Vec<String>> = FIG2_FAILURES
        .iter()
        .map(|&failure| {
            let mut cells = vec![format!("{:.0}%", failure * 100.0)];
            cells.extend(ProtocolKind::ALL.map(|kind| pct(reliability(kind, failure))));
            cells
        })
        .collect();
    out.push(render(&headers, &rows));
    let json = fig2_artifact(params, results, &ProtocolKind::ALL, &FIG2_FAILURES);
    Outcome { json: Some(json), ..Outcome::new(out) }
}

/// Figures 3a–3f: per-message reliability after failures of 20% to 95%.
fn fig3_recovery(params: &Params, results: &Results) -> Outcome {
    let mut out = header("Figure 3 — reliability after failures, message by message", params, "");
    for failure in paper::FIG3_FAILURES {
        out.push(format!("\n## {:.0}% failures", failure * 100.0));
        let rows: Vec<Vec<String>> = ProtocolKind::ALL
            .iter()
            .map(|&kind| {
                let cell = Cell::new(params, kind).failing(failure);
                let series = results.series(&cell, params.messages);
                let plateau = paper::plateau(&series);
                let recover = paper::messages_to_reach(&series, 0.99 * plateau.max(0.01));
                vec![
                    kind.label().to_owned(),
                    pct(series.first().copied().unwrap_or(0.0)),
                    pct(plateau),
                    recover.map_or_else(|| "-".to_owned(), |i| (i + 1).to_string()),
                    sparkline(&series, 25),
                ]
            })
            .collect();
        let headers = ["protocol", "1st message", "plateau", "msgs to plateau", "evolution"];
        out.push(render(&headers, &rows));
    }
    Outcome::new(out)
}

/// Figure 4: membership cycles needed to regain pre-failure reliability,
/// for HyParView, CyclonAcked and Cyclon (the paper omits Scamp: its
/// healing is governed by the lease period).
fn fig4_healing(params: &Params, results: &Results) -> Outcome {
    const MAX_CYCLES: usize = paper::MAX_HEAL_CYCLES;
    let title = "Figure 4 — healing time (cycles to regain pre-failure reliability)";
    let mut out = header(title, params, &format!(" (max {MAX_CYCLES} cycles probed)"));
    let cycles = |c: Option<usize>| c.map_or_else(|| format!(">{MAX_CYCLES}"), |c| c.to_string());
    let rows: Vec<Vec<String>> = paper::FIG4_FAILURES
        .iter()
        .map(|&failure| {
            let mut cells = vec![format!("{:.0}%", failure * 100.0)];
            cells.extend(paper::FIG4_PROTOCOLS.map(|kind| {
                let cell = Cell { heal: true, ..Cell::new(params, kind).failing(failure) };
                let healing = results.healing(&cell);
                let (strict, near) = (healing.cycles(1.0), healing.cycles(0.995));
                format!("{} / {} (base {})", cycles(strict), cycles(near), pct(healing.baseline))
            }));
            cells
        })
        .collect();
    out.push(render(&["failure %", "HyParView", "CyclonAcked", "Cyclon"], &rows));
    Outcome::new(out)
}

/// Figure 5: in-degree distribution after stabilization.
fn fig5_indegree(params: &Params, results: &Results) -> Outcome {
    let mut out = header("Figure 5 — in-degree distribution after stabilization", params, "");
    let data = ProtocolKind::ALL.map(|kind| (kind, &results.overlay(params, kind).indegree));
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|(kind, report)| {
            let summary = &report.summary;
            let (min, max) = (summary.min.to_string(), summary.max.to_string());
            vec![kind.label().to_owned(), num(summary.mean, 2), min, max, num(summary.stddev, 2)]
        })
        .collect();
    out.push(render(&["protocol", "mean", "min", "max", "stddev"], &rows));
    for (kind, report) in data {
        out.push(format!("\n{kind} in-degree histogram (degree: nodes):"));
        let max_count = report.histogram.values().copied().max().unwrap_or(1);
        for (degree, count) in &report.histogram {
            let bar_len = (count * 50).div_ceil(max_count);
            out.push(format!("  {degree:>4}: {:<50} {count}", "#".repeat(bar_len)));
        }
    }
    Outcome::new(out)
}

/// Table 1: clustering coefficient, average shortest path and maximum hops
/// to delivery after stabilization.
fn table1_graph_props(params: &Params, results: &Results) -> Outcome {
    let mut out = header("Table 1 — graph properties after stabilization", params, "");
    let hops = Slice::Table1.broadcasts(params);
    let rows: Vec<Vec<String>> = ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let (overlay, cell) = (results.overlay(params, kind), Cell::new(params, kind));
            vec![
                kind.label().to_owned(),
                num(overlay.clustering, 6),
                num(overlay.avg_shortest_path, 3),
                num(summary(std::slice::from_ref(results.first(&cell)), hops).mean_max_hops(), 1),
                overlay.connected.to_string(),
                num(overlay.mean_view, 1),
            ]
        })
        .collect();
    let headers = [
        "protocol",
        "clustering",
        "avg shortest path",
        "max hops to delivery",
        "connected",
        "mean view",
    ];
    out.push(render(&headers, &rows));
    Outcome::new(out)
}

/// Transmissions and redundancy per broadcast across fanouts (§3.1).
fn overhead(params: &Params, results: &Results) -> Outcome {
    let messages = Slice::Overhead.broadcasts(params);
    let shown = params.clone().with_messages(messages);
    let mut out = header("Message overhead per broadcast (stable overlay, §3.1)", &shown, "");
    let rows: Vec<Vec<String>> = Slice::Overhead
        .cells(params)
        .iter()
        .map(|cell| {
            let [sent, redundant, reliability] = results.overhead(cell, messages);
            vec![
                cell.kind.label().to_owned(),
                cell.fanout.to_string(),
                num(sent, 0),
                num(redundant, 0),
                pct(if sent == 0.0 { 0.0 } else { redundant / sent }),
                pct(reliability),
            ]
        })
        .collect();
    let headers =
        ["protocol", "fanout", "msgs/broadcast", "redundant", "redundancy", "reliability"];
    out.push(render(&headers, &rows));
    Outcome::new(out)
}

/// The design choices behind HyParView's resilience (§5.5) and §6's open
/// question on passive view size.
fn ablations(params: &Params, results: &Results) -> Outcome {
    let mut out = header("HyParView ablations", params, "");
    for (title, cells) in paper::ablations(params) {
        out.push(format!("\n## {title}"));
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|(label, cell)| {
                let run = results.first(cell);
                let reliability = summary(std::slice::from_ref(run), params.messages);
                vec![label.clone(), pct(reliability.mean_reliability()), pct(run.isolated)]
            })
            .collect();
        out.push(render(&["configuration", "mean reliability", "isolated nodes"], &rows));
    }
    Outcome::new(out)
}

/// Flood, the static tree and §3.8's adaptive trees over one HyParView
/// overlay: one grid of strategy × latency × loss × disturbance, checked
/// slice by slice. The headline: the tree matches the flood's reliability
/// at a fraction of its payloads, optimization flattens healed trees,
/// batching cuts control frames, and adaptive Plumtree holds 99% at 10%
/// per-link loss.
fn plumtree(params: &Params) -> Outcome {
    let detail = format!(
        " (warmup {}, bursts of {}, {} disturbed broadcasts, heal cycles {}, heal attempts {}, \
         duplication = loss/2)",
        plumtree::WARMUP,
        plumtree::BURST,
        plumtree::DISTURBED_MESSAGES,
        plumtree::HEAL_CYCLES,
        plumtree::HEAL_ATTEMPTS
    );
    let title = "Plumtree vs flood — strategy x latency x loss x disturbance";
    let mut out = header(title, params, &detail);
    let cells = plumtree::run(params);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.at.slice.to_owned(),
                c.at.strategy.label.to_owned(),
                c.at.label(),
                pct(c.stable.mean_reliability),
                num(c.stable.mean_rmr, 3),
                num(c.stable.payload_per_broadcast, 0),
                num(c.stable.control_per_broadcast, 1),
                pct(c.disturbed_reliability),
                if c.converged {
                    format!("{} ({} bcast)", c.time_to_heal, c.heal_broadcasts)
                } else {
                    "did not converge".to_owned()
                },
                pct(c.healed.mean_reliability),
                num(c.healed.mean_last_hop, 1),
                format!("{} ({})", c.optimizations, c.late_optimizations),
                c.batches.to_string(),
                c.dropped.to_string(),
            ]
        })
        .collect();
    let headers = [
        "slice",
        "strategy",
        "cell",
        "stable rel",
        "RMR",
        "payload/bcast",
        "control/bcast",
        "disturbed rel",
        "heal time",
        "healed rel",
        "healed last hop",
        "opts (late)",
        "batches",
        "dropped",
    ];
    out.push(render(&headers, &rows));
    let cell = |strategy: &str, label: &str| plumtree::cell(&cells, strategy, label);
    let (flood, tree) = (cell("flood", FIXED_CRASH30), cell("static", FIXED_CRASH30));
    let (optimized, batched) = (cell("optimized", FIXED_CRASH30), cell("batched", FIXED_CRASH30));
    let wan = |strategy| cell(strategy, "lognormal-link.loss10.partition");
    out.push(format!(
        "stable: tree RMR {} vs flood {} ({}x fewer payloads); healed last hop: optimized {} vs \
         static {}; control/bcast: batched {} vs static {}; at 10% loss: adaptive {} vs flood {}",
        num(tree.stable.mean_rmr, 3),
        num(flood.stable.mean_rmr, 2),
        num(flood.stable.payload_per_broadcast / tree.stable.payload_per_broadcast.max(1.0), 1),
        num(optimized.healed.mean_last_hop, 1),
        num(tree.healed.mean_last_hop, 1),
        num(batched.stable.control_per_broadcast, 1),
        num(tree.stable.control_per_broadcast, 1),
        pct(wan("adaptive").stable.mean_reliability),
        pct(wan("flood").stable.mean_reliability),
    ));
    let failures = plumtree_checks(&cells);
    let json = plumtree_artifact(params, &cells);
    let metrics = merged(cells.iter().map(|c| &c.metrics));
    Outcome { json: Some(json), metrics: Some(metrics), failures, ..Outcome::new(out) }
}

/// The unit-latency, lossless cell after a 30% crash: the cell every slice
/// compares against.
const FIXED_CRASH30: &str = "fixed.loss0.crash30";

/// The `plumtree` headline checks, slice by slice. A check may read a cell
/// of another slice: the static tree at [`FIXED_CRASH30`] is every slice's
/// baseline.
fn plumtree_checks(cells: &[plumtree::Cell]) -> Vec<String> {
    let cell = |strategy: &str, label: &str| plumtree::cell(cells, strategy, label);
    let slice = |name: &'static str| cells.iter().filter(move |c| c.at.slice == name);
    let mut checks = Checks(Vec::new());

    // cost: the tree carries the flood's reliability at a fraction of its
    // payloads, and survives a 30% crash.
    for c in slice("cost") {
        checks.full(c, "stable", c.stable.mean_reliability);
    }
    for tree in slice("cost").filter(|c| c.at.strategy.label == "static") {
        let flood = cell("flood", &tree.at.label());
        let (tree_rmr, flood_rmr) = (tree.stable.mean_rmr, flood.stable.mean_rmr);
        checks.that(tree, tree_rmr < 0.1, || format!("tree RMR {} >= 0.1", num(tree_rmr, 3)));
        checks.that(flood, flood_rmr > 1.5, || format!("flood RMR {} <= 1.5", num(flood_rmr, 3)));
        let payload = (tree.stable.payload_per_broadcast, flood.stable.payload_per_broadcast);
        checks.that(tree, payload.0 < payload.1 / 2.0, || {
            format!("tree payloads {} not under half the flood's {}", payload.0, payload.1)
        });
    }
    let tree = cell("static", FIXED_CRASH30);
    checks.that(tree, tree.disturbed_reliability > 0.95, || {
        format!("reliability {} <= 95% right after the crash", pct(tree.disturbed_reliability))
    });

    // adaptive: batching cuts control frames (optimization: below).
    for c in slice("adaptive") {
        checks.full(c, "stable", c.stable.mean_reliability);
    }
    let batched = cell("batched", FIXED_CRASH30);
    checks.that(batched, batched.batches > 0, || "no IHaveBatch was sent".to_owned());
    let control = (batched.stable.control_per_broadcast, tree.stable.control_per_broadcast);
    checks.that(batched, control.0 < 0.6 * control.1, || {
        format!("stable control frames {} not below 0.6x static's {}", control.0, control.1)
    });

    // adaptive and latency: optimization flattens the healed tree at unit
    // latency and wherever latency varies per message or per link, every
    // model stays fully reliable, and only varying latency lets an IHave
    // lose the race against its payload.
    for latency in plumtree::LATENCY_CASES {
        let label = format!("{}.loss0.crash30", latency.label);
        let (tree, optimized) = (cell("static", &label), cell("optimized", &label));
        for c in [tree, optimized] {
            checks.full(c, "stable", c.stable.mean_reliability);
            checks.full(c, "healed", c.healed.mean_reliability);
        }
        if latency.label == "lognormal-link" {
            continue;
        }
        checks.that(optimized, optimized.optimizations > 0, || "never optimized".to_owned());
        let last_hop = (optimized.healed.mean_last_hop, tree.healed.mean_last_hop);
        checks.that(optimized, last_hop.0 < last_hop.1, || {
            format!("healed last hop {} not below static's {}", last_hop.0, last_hop.1)
        });
    }
    let fixed = cell("optimized", FIXED_CRASH30);
    checks.that(fixed, fixed.late_optimizations == 0, || {
        format!("{} late optimizations at unit latency", fixed.late_optimizations)
    });
    let uniform = cell("optimized", "uniform.loss0.crash30");
    checks.that(uniform, uniform.late_optimizations > 0, || "no late optimization".to_owned());
    for c in cells.iter().filter(|c| c.at.strategy.label == "static") {
        checks.that(c, c.optimizations == 0, || format!("{} optimizations", c.optimizations));
    }

    // wan: lazy repair holds adaptive Plumtree at 99% under 10% loss, and
    // every lossless cell converges back after the partition heals.
    let adaptive = cell("adaptive", "lognormal-link.loss10.partition");
    let reliability = adaptive.stable.mean_reliability;
    checks.that(adaptive, reliability >= 0.99, || {
        format!("stable reliability {} < 99%", pct(reliability))
    });
    checks.that(adaptive, adaptive.duplicated > 0, || "no frame duplicated".to_owned());
    for c in slice("wan") {
        if c.at.loss == 0.0 {
            checks.full(c, "stable", c.stable.mean_reliability);
            checks.full(c, "healed", c.healed.mean_reliability);
            checks.that(c, c.converged, || "did not converge after the heal".to_owned());
            checks.that(c, c.dropped + c.duplicated == 0, || {
                format!("{} dropped, {} duplicated without faults", c.dropped, c.duplicated)
            });
            checks.that(c, c.partition_dropped > 0, || "the cut dropped no frame".to_owned());
        } else {
            checks.that(c, c.dropped > 0, || "the loss model dropped no frame".to_owned());
        }
        checks.that(c, c.disturbed_reliability < 1.0, || {
            "a halved overlay delivered everywhere".to_owned()
        });
        checks.that(c, !c.converged || c.time_to_heal > 0, || "healed at time 0".to_owned());
    }
    checks.0
}

/// Failed headline checks, each naming its cell.
struct Checks(Vec<String>);

impl Checks {
    fn that(&mut self, c: &plumtree::Cell, holds: bool, failure: impl FnOnce() -> String) {
        if !holds {
            self.0.push(format!("{} {}: {}", c.at.strategy.label, c.at.label(), failure()));
        }
    }

    fn full(&mut self, c: &plumtree::Cell, phase: &str, reliability: f64) {
        self.that(c, reliability >= 0.9999, || {
            format!("{phase} reliability {} < 99.99%", pct(reliability))
        });
    }
}

/// Eclipse and infiltration colluders vs the overlay defenses. The
/// headline: the defended time-to-eclipse is at least 5x the undefended one
/// at 20% colluders and past the horizon at 10%, every hardened cell fires
/// a defense, infiltration captures less under defenses, and honest
/// reliability stays positive.
fn hyparview_attack(params: &Params) -> Outcome {
    let horizon = attack::default_horizon(params);
    let detail = format!(
        " (horizon {horizon} cycles, eclipse victims {ECLIPSE_VICTIMS}, attacker rejoin {:.0}%)",
        ATTACKER_REJOIN * 100.0
    );
    let title = "Adversarial membership — attacker fraction × overlay defenses";
    let mut out = header(title, params, &detail);
    let cells = attack::hyparview_attack(params, horizon);
    let eclipse_time = |cell: &attack::AttackCell| {
        if cell.eclipsed {
            cell.time_to_eclipse.to_string()
        } else {
            format!("> {horizon}")
        }
    };
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.model.to_owned(),
                pct(cell.fraction),
                cell.defense.to_owned(),
                eclipse_time(cell),
                num(cell.capture_fraction, 3),
                num(cell.indegree_capture, 3),
                pct(cell.honest_component),
                pct(cell.honest_reliability),
                (cell.joins_damped + cell.neighbors_damped).to_string(),
                cell.tenure_swaps.to_string(),
            ]
        })
        .collect();
    let headers = [
        "model",
        "colluders",
        "defense",
        "t-to-eclipse",
        "capture",
        "indeg capture",
        "honest comp",
        "honest rel",
        "damped",
        "swaps",
    ];
    out.push(render(&headers, &rows));
    let cell = |model: &str, fraction: f64, defense: &str| {
        attack::attack_cell_for(&cells, model, fraction, defense)
    };
    let (open, hard) = (cell("eclipse", 0.20, "open"), cell("eclipse", 0.20, "hardened"));
    out.push(format!(
        "at 20% colluders: time-to-eclipse {} undefended vs {} hardened \
         ({} flood admissions damped, {} tenure swaps)",
        open.time_to_eclipse,
        eclipse_time(hard),
        hard.neighbors_damped,
        hard.tenure_swaps,
    ));

    let mut failures = Vec::new();
    if !open.eclipsed {
        failures.push(format!(
            "undefended eclipse at 20% colluders never captured a victim within {horizon} cycles"
        ));
    }
    if hard.time_to_eclipse < 5 * open.time_to_eclipse {
        failures.push(format!(
            "headline: defended time-to-eclipse {} < 5× undefended {}",
            hard.time_to_eclipse, open.time_to_eclipse
        ));
    }
    let hard_10 = cell("eclipse", 0.10, "hardened");
    if hard_10.eclipsed {
        failures.push(format!(
            "defended eclipse at 10% colluders should hold past the horizon but captured \
             a victim (cycle {})",
            hard_10.time_to_eclipse
        ));
    }
    for c in &cells {
        if c.defense == "hardened" && c.joins_damped + c.neighbors_damped + c.tenure_swaps == 0 {
            failures.push(format!(
                "{} at {} colluders: the hardened run never exercised a defense",
                c.model,
                pct(c.fraction)
            ));
        }
        if c.honest_reliability <= 0.0 {
            failures.push(format!(
                "{} at {} colluders ({}): honest broadcast reliability collapsed to zero",
                c.model,
                pct(c.fraction),
                c.defense
            ));
        }
    }
    let (inf_open, inf_hard) =
        (cell("infiltration", 0.20, "open"), cell("infiltration", 0.20, "hardened"));
    if inf_hard.capture_fraction >= inf_open.capture_fraction {
        failures.push(format!(
            "infiltration at 20% colluders: hardened capture {} ≥ open capture {}",
            inf_hard.capture_fraction, inf_open.capture_fraction
        ));
    }
    let json = hyparview_attack_artifact(params, horizon, &cells);
    let metrics = merged(cells.iter().map(|c| &c.metrics));
    Outcome { json: Some(json), metrics: Some(metrics), failures, ..Outcome::new(out) }
}
