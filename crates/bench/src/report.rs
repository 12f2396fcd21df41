//! One function per `hpv-bench` experiment: it runs the experiment, renders
//! its table, builds its results artifact and checks its headline against
//! the paper. [`EXPERIMENTS`] is the name table `hpv-bench` dispatches on;
//! the names are the artifacts' `experiment` fields and file stems.

use crate::artifacts::{
    fig2_artifact, hyparview_attack_artifact, plumtree_adaptive_artifact,
    plumtree_latency_artifact, plumtree_vs_flood_artifact, plumtree_wan_artifact,
};
use crate::cli::{Flags, Outcome, Run};
use crate::experiments::{
    adaptive, attack, fanout_sweep, flood_vs_random, graph_properties, healing_time,
    in_degree_distribution, latency, message_overhead, passive_size_sweep, plumtree,
    recovery_series, reliability_after_failures, shuffle_payload_sweep, walk_length_sweep, wan,
    AblationPoint,
};
use crate::params::{Params, ALL_PROTOCOLS, FIG1_FANOUTS, FIG2_FAILURES, FIG3_FAILURES};
use crate::table::{num, pct, render, sparkline};
use hyparview_obsv::Registry;
use hyparview_sim::protocols::ProtocolKind;

/// Every experiment by name, in the order `hpv-bench`'s usage lists them.
pub(crate) const EXPERIMENTS: [(&str, Run); 15] = [
    ("fig1_fanout", fig1_fanout),
    ("fig1c_after_failure", fig1c_after_failure),
    ("fig2_reliability", fig2_reliability),
    ("fig3_recovery", fig3_recovery),
    ("fig4_healing", fig4_healing),
    ("fig5_indegree", fig5_indegree),
    ("table1_graph_props", table1_graph_props),
    ("overhead", overhead),
    ("ablations", ablations),
    ("plumtree_vs_flood", plumtree_vs_flood),
    ("plumtree_adaptive", plumtree_adaptive),
    ("plumtree_latency", plumtree_latency),
    ("plumtree_wan", plumtree_wan),
    ("hyparview_attack", hyparview_attack),
    ("all", all),
];

/// The paper's evaluation in order: Figures 1 to 4, Table 1, Figure 5.
fn all(params: &Params, flags: &mut Flags) -> Outcome {
    let parts: [Run; 7] = [
        fig1_fanout,
        fig1c_after_failure,
        fig2_reliability,
        fig3_recovery,
        fig4_healing,
        table1_graph_props,
        fig5_indegree,
    ];
    let mut outcome = Outcome::default();
    for run in parts {
        let part = run(params, flags);
        outcome.report += &part.report;
        outcome.report += "\n\n";
        outcome.failures.extend(part.failures);
    }
    outcome
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
fn fig1_fanout(params: &Params, _: &mut Flags) -> Outcome {
    // The paper measures 50 broadcasts per fanout in this experiment.
    let params = &params.clone().with_messages(params.messages.min(50));
    let mut out = header("Figure 1a/1b — fanout x reliability (stable overlay)", params, "");
    let kinds = [ProtocolKind::Cyclon, ProtocolKind::Scamp, ProtocolKind::HyParView];
    let points = fanout_sweep(params, &kinds, &FIG1_FANOUTS);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.kind.label().to_owned(),
                p.fanout.to_string(),
                pct(p.mean_reliability),
                pct(p.min_reliability),
                num(p.atomic_fraction, 3),
            ]
        })
        .collect();
    let headers = ["protocol", "fanout", "mean reliability", "min reliability", "atomic frac"];
    out.push(render(&headers, &rows));
    // The paper's headline thresholds.
    for kind in [ProtocolKind::Cyclon, ProtocolKind::Scamp] {
        let needed = points
            .iter()
            .filter(|p| p.kind == kind && p.mean_reliability >= 0.99)
            .map(|p| p.fanout)
            .min();
        out.push(match needed {
            Some(f) => format!("{kind}: first fanout reaching 99% reliability = {f}"),
            None => format!("{kind}: never reached 99% reliability in the sweep"),
        });
    }
    Outcome::new(out)
}

/// Figure 1c: reliability of the messages sent right after 50% of the nodes
/// crash, for Cyclon and Scamp (the motivation experiment, §3.2).
fn fig1c_after_failure(params: &Params, _: &mut Flags) -> Outcome {
    // The paper sends 100 messages in this experiment.
    let params = &params.clone().with_messages(params.messages.min(100));
    let mut out = header("Figure 1c — effect of 50% node failures (Cyclon, Scamp)", params, "");
    let mut rows = Vec::new();
    for kind in [ProtocolKind::Cyclon, ProtocolKind::Scamp] {
        let series = recovery_series(params, kind, 0.5);
        let max = series.reliability.iter().copied().fold(0.0, f64::max);
        let mean = series.reliability.iter().sum::<f64>() / series.reliability.len() as f64;
        rows.push(vec![
            kind.label().to_owned(),
            pct(mean),
            pct(max),
            sparkline(&series.reliability, 25),
        ]);
    }
    out.push(render(&["protocol", "mean reliability", "best message", "evolution"], &rows));
    out.push("(paper: no message delivered to more than ~85% of nodes; no recovery before the next cycle)".into());
    Outcome::new(out)
}

/// Figure 2: mean reliability of the broadcasts sent right after crashing
/// 10% to 95% of all nodes, for all four protocols. The headline: HyParView
/// at 100% through 50% failures and at least 90% through 90%.
fn fig2_reliability(params: &Params, _: &mut Flags) -> Outcome {
    let title =
        format!("Figure 2 — reliability for {} messages after massive failures", params.messages);
    let mut out = header(&title, params, "");
    let data = reliability_after_failures(params, &ALL_PROTOCOLS, &FIG2_FAILURES);
    let mut headers = vec!["failure %"];
    headers.extend(ALL_PROTOCOLS.map(ProtocolKind::label));
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|row| {
            let mut cells = vec![format!("{:.0}%", row.failure * 100.0)];
            cells.extend(row.cells.iter().map(|c| pct(c.mean_reliability)));
            cells
        })
        .collect();
    out.push(render(&headers, &rows));
    out.push(
        "(paper: HyParView ~100% up to 90%, ~90% at 95%; CyclonAcked competitive to 70%;".into(),
    );
    out.push(" Cyclon and Scamp below 50% reliability for failure rates above 50%)".into());

    let mut failures = Vec::new();
    for row in &data {
        let Some(hpv) = row.cells.iter().find(|c| c.kind == ProtocolKind::HyParView) else {
            continue;
        };
        for (up_to, floor) in [(0.5, 0.9999), (0.9, 0.90)] {
            if row.failure <= up_to && hpv.mean_reliability < floor {
                failures.push(format!(
                    "HyParView at {:.0}% failures: reliability {} < {}",
                    row.failure * 100.0,
                    pct(hpv.mean_reliability),
                    pct(floor)
                ));
            }
        }
    }
    Outcome { json: Some(fig2_artifact(params, &data)), failures, ..Outcome::new(out) }
}

/// Figures 3a–3f: per-message reliability after failures of 20% to 95%.
fn fig3_recovery(params: &Params, _: &mut Flags) -> Outcome {
    let mut out = header("Figure 3 — reliability after failures, message by message", params, "");
    for &failure in &FIG3_FAILURES {
        out.push(format!("\n## {:.0}% failures", failure * 100.0));
        let mut rows = Vec::new();
        for kind in ALL_PROTOCOLS {
            let series = recovery_series(params, kind, failure);
            let first = series.reliability.first().copied().unwrap_or(0.0);
            let recover = series
                .messages_to_reach(0.99 * series.plateau().max(0.01))
                .map(|i| (i + 1).to_string())
                .unwrap_or_else(|| "-".to_owned());
            rows.push(vec![
                kind.label().to_owned(),
                pct(first),
                pct(series.plateau()),
                recover,
                sparkline(&series.reliability, 25),
            ]);
        }
        let headers = ["protocol", "1st message", "plateau", "msgs to plateau", "evolution"];
        out.push(render(&headers, &rows));
    }
    out.push(
        "(paper: HyParView recovers almost immediately; CyclonAcked after ~25 messages;".into(),
    );
    out.push(" Cyclon/Scamp flat; above 80% failures the baselines sit near 0%)".into());
    Outcome::new(out)
}

/// Figure 4: membership cycles needed to regain pre-failure reliability,
/// for HyParView, CyclonAcked and Cyclon (the paper omits Scamp: its
/// healing is governed by the lease period).
fn fig4_healing(params: &Params, _: &mut Flags) -> Outcome {
    const MAX_CYCLES: usize = 60;
    const FAILURES: [f64; 9] = [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90];
    let title = "Figure 4 — healing time (cycles to regain pre-failure reliability)";
    let mut out = header(title, params, &format!(" (max {MAX_CYCLES} cycles probed)"));
    let kinds = [ProtocolKind::HyParView, ProtocolKind::CyclonAcked, ProtocolKind::Cyclon];
    let cycles = |c: Option<usize>| c.map_or_else(|| format!(">{MAX_CYCLES}"), |c| c.to_string());
    let mut rows = Vec::new();
    for &failure in &FAILURES {
        let mut cells = vec![format!("{:.0}%", failure * 100.0)];
        for kind in kinds {
            let result = healing_time(params, kind, failure, MAX_CYCLES);
            cells.push(format!(
                "{} / {} (base {})",
                cycles(result.cycles),
                cycles(result.cycles_near),
                pct(result.baseline)
            ));
        }
        rows.push(cells);
    }
    out.push(render(&["failure %", "HyParView", "CyclonAcked", "Cyclon"], &rows));
    out.push("(paper: HyParView needs 1–2 cycles below 80% and <= 4 at 90%;".into());
    out.push(" Cyclon grows roughly linearly with the failure percentage)".into());
    Outcome::new(out)
}

/// Figure 5: in-degree distribution after stabilization.
fn fig5_indegree(params: &Params, _: &mut Flags) -> Outcome {
    let mut out = header("Figure 5 — in-degree distribution after stabilization", params, "");
    let data = in_degree_distribution(params, &ALL_PROTOCOLS);
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|row| {
            vec![
                row.kind.label().to_owned(),
                num(row.summary.mean, 2),
                row.summary.min.to_string(),
                row.summary.max.to_string(),
                num(row.summary.stddev, 2),
            ]
        })
        .collect();
    out.push(render(&["protocol", "mean", "min", "max", "stddev"], &rows));
    for row in &data {
        out.push(format!("\n{} in-degree histogram (degree: nodes):", row.kind));
        let max_count = row.histogram.values().copied().max().unwrap_or(1);
        for (degree, count) in &row.histogram {
            let bar_len = (count * 50).div_ceil(max_count);
            out.push(format!("  {degree:>4}: {:<50} {count}", "#".repeat(bar_len)));
        }
    }
    out.push(
        "\n(paper: HyParView concentrated at the active view size; Cyclon spread wide;".into(),
    );
    out.push(" Scamp long-tailed with some nodes known by a single peer)".into());
    Outcome::new(out)
}

/// Table 1: clustering coefficient, average shortest path and maximum hops
/// to delivery after stabilization.
fn table1_graph_props(params: &Params, _: &mut Flags) -> Outcome {
    let mut out = header("Table 1 — graph properties after stabilization", params, "");
    let rows: Vec<Vec<String>> = graph_properties(params, &ALL_PROTOCOLS)
        .iter()
        .map(|r| {
            vec![
                r.kind.label().to_owned(),
                num(r.clustering, 6),
                num(r.avg_shortest_path, 3),
                num(r.mean_max_hops, 1),
                r.connected.to_string(),
                num(r.mean_view_size, 1),
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
    out.push("(paper @ n=10k: Cyclon 0.006836 / 2.60 / 10.6; Scamp 0.022476 / 3.35 / 14.1;".into());
    out.push(" HyParView 0.00092 / 6.39 / 9.0 — longest paths but fewest hops to delivery)".into());
    Outcome::new(out)
}

/// Transmissions and redundancy per broadcast across fanouts (§3.1).
fn overhead(params: &Params, _: &mut Flags) -> Outcome {
    let params = &params.clone().with_messages(params.messages.min(100));
    let mut out = header("Message overhead per broadcast (stable overlay, §3.1)", params, "");
    let rows: Vec<Vec<String>> = message_overhead(params, &ALL_PROTOCOLS, &[4, 5, 6])
        .iter()
        .map(|p| {
            vec![
                p.kind.label().to_owned(),
                p.fanout.to_string(),
                num(p.sent_per_broadcast, 0),
                num(p.redundant_per_broadcast, 0),
                pct(p.redundancy_ratio()),
                pct(p.mean_reliability),
            ]
        })
        .collect();
    let headers =
        ["protocol", "fanout", "msgs/broadcast", "redundant", "redundancy", "reliability"];
    out.push(render(&headers, &rows));
    out.push("(paper @ n=10k: fanout 6 vs 4 costs ~20,000 extra messages per broadcast,".into());
    out.push(" >99% of which are redundant; HyParView reaches 100% at fanout 4)".into());
    Outcome::new(out)
}

/// The design choices behind HyParView's resilience (§5.5) and §6's open
/// question on passive view size.
fn ablations(params: &Params, _: &mut Flags) -> Outcome {
    let mut out = header("HyParView ablations", params, "");
    let sections: [(&str, Vec<AblationPoint>); 4] = [
        (
            "Passive view size vs resilience at 80% failures (§6 future work)",
            passive_size_sweep(params, 0.8, &[1, 5, 10, 20, 30, 60]),
        ),
        (
            "Deterministic flood vs random fanout at 50% failures (§5.5)",
            flood_vs_random(params, 0.5),
        ),
        (
            "Join walk lengths (ARWL/PRWL) at 60% failures",
            walk_length_sweep(params, 0.6, &[(6, 3), (3, 1), (1, 1), (10, 5)]),
        ),
        (
            "Shuffle payload (ka/kp) at 60% failures",
            shuffle_payload_sweep(params, 0.6, &[(3, 4), (1, 1), (0, 7), (6, 8)]),
        ),
    ];
    for (title, points) in sections {
        out.push(format!("\n## {title}"));
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| vec![p.label.clone(), pct(p.mean_reliability), pct(p.isolated_fraction)])
            .collect();
        out.push(render(&["configuration", "mean reliability", "isolated nodes"], &rows));
    }
    Outcome::new(out)
}

/// Flood vs Plumtree over the same HyParView overlay: reliability, RMR and
/// last-delivery hop across failure rates. The headline: on the stable
/// network both modes reach 100% and Plumtree's RMR stays below 0.1.
fn plumtree_vs_flood(params: &Params, flags: &mut Flags) -> Outcome {
    const FAILURES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.5];
    let warmup = flags.warmup.take().unwrap_or(30);
    let title = "Flood vs Plumtree — broadcast cost over the same HyParView overlay";
    let mut out = header(title, params, &format!(" (tree warm-up: {warmup} broadcasts)"));
    let data = plumtree::flood_vs_plumtree(params, &FAILURES, warmup);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for row in &data {
        for cell in &row.cells {
            rows.push(vec![
                format!("{:.0}%", row.failure * 100.0),
                cell.mode.to_string(),
                pct(cell.mean_reliability),
                pct(cell.min_reliability),
                num(cell.mean_rmr, 3),
                num(cell.mean_last_hop, 1),
                num(cell.payload_per_broadcast, 0),
                num(cell.control_per_broadcast, 0),
            ]);
        }
    }
    let headers = [
        "failure %",
        "mode",
        "reliability",
        "min rel.",
        "RMR",
        "last hop",
        "payload/bcast",
        "control/bcast",
    ];
    out.push(render(&headers, &rows));
    let (flood, tree) = (&data[0].cells[0], &data[0].cells[1]);
    out.push(format!(
        "stable network: Plumtree RMR {} vs flood {} ({}x fewer payload transmissions) at {} / {} reliability",
        num(tree.mean_rmr, 3),
        num(flood.mean_rmr, 2),
        num(flood.payload_per_broadcast / tree.payload_per_broadcast.max(1.0), 1),
        pct(tree.mean_reliability),
        pct(flood.mean_reliability),
    ));
    out.push(
        "(expected: Plumtree RMR < 0.1 and reliability >= 99% for both modes at 0% failures;"
            .into(),
    );
    out.push(
        " flood RMR ~ fanout - 1; Plumtree pays a deeper last hop when grafts repair the tree)"
            .into(),
    );

    let mut failures = Vec::new();
    for (mode, cell) in [("flood", flood), ("Plumtree", tree)] {
        if cell.mean_reliability < 0.9999 {
            failures.push(format!(
                "{mode} reliability {} < 100% on the stable network",
                pct(cell.mean_reliability)
            ));
        }
    }
    if tree.mean_rmr >= 0.1 {
        failures.push(format!(
            "Plumtree RMR {} regressed past the 0.1 threshold",
            num(tree.mean_rmr, 3)
        ));
    }
    let json = plumtree_vs_flood_artifact(params, warmup, &data);
    Outcome { json: Some(json), failures, ..Outcome::new(out) }
}

/// Adaptive Plumtree (tree optimization and lazy-link batching) on vs off
/// across failure and healing. The headline: every variant at 100% on the
/// stable network, optimization flattens the healed tree, batching cuts
/// control frames.
fn plumtree_adaptive(params: &Params, flags: &mut Flags) -> Outcome {
    let failure = flags.failure.take().unwrap_or(0.3);
    let warmup = flags.warmup.take().unwrap_or(30);
    let heal_cycles = flags.heal_cycles.take().unwrap_or(5);
    let detail = format!(
        " (failure {:.0}%, warmup {warmup}, heal cycles {heal_cycles}, bursts of {})",
        failure * 100.0,
        adaptive::BURST
    );
    let title = "Adaptive Plumtree — optimization + batching across failure and healing";
    let mut out = header(title, params, &detail);
    let cells = adaptive::plumtree_adaptive(params, failure, warmup, heal_cycles);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for cell in &cells {
        for (phase, metrics) in [("stable", &cell.stable), ("healed", &cell.healed)] {
            rows.push(vec![
                cell.variant.label.to_owned(),
                phase.to_owned(),
                pct(metrics.mean_reliability),
                num(metrics.mean_rmr, 3),
                num(metrics.mean_last_hop, 1),
                num(metrics.control_per_broadcast, 1),
                cell.optimizations.to_string(),
                cell.batches.to_string(),
            ]);
        }
    }
    let headers = [
        "variant",
        "phase",
        "reliability",
        "RMR",
        "last hop",
        "control/bcast",
        "optimizations",
        "batches",
    ];
    out.push(render(&headers, &rows));
    let by_label = |label: &str| cells.iter().find(|c| c.variant.label == label).expect("variant");
    let (static_, optimized, batched) =
        (by_label("static"), by_label("optimized"), by_label("batched"));
    out.push(format!(
        "healed last hop: optimized {} vs static {}; stable control/bcast: batched {} vs static {}",
        num(optimized.healed.mean_last_hop, 1),
        num(static_.healed.mean_last_hop, 1),
        num(batched.stable.control_per_broadcast, 1),
        num(static_.stable.control_per_broadcast, 1),
    ));

    let mut failures = Vec::new();
    for cell in cells.iter().filter(|c| c.stable.mean_reliability < 0.9999) {
        failures.push(format!(
            "{}: stable reliability {} < 100%",
            cell.variant.label,
            pct(cell.stable.mean_reliability)
        ));
    }
    if optimized.healed.mean_last_hop >= static_.healed.mean_last_hop {
        failures.push(format!(
            "optimization did not flatten the healed tree ({} vs static {})",
            num(optimized.healed.mean_last_hop, 1),
            num(static_.healed.mean_last_hop, 1)
        ));
    }
    if batched.stable.control_per_broadcast >= static_.stable.control_per_broadcast {
        failures.push(format!(
            "batching did not cut control traffic ({} vs static {})",
            num(batched.stable.control_per_broadcast, 1),
            num(static_.stable.control_per_broadcast, 1)
        ));
    }
    let json = plumtree_adaptive_artifact(params, failure, warmup, heal_cycles, &cells);
    Outcome { json: Some(json), failures, ..Outcome::new(out) }
}

/// Static vs optimizing Plumtree trees per latency model (uniform jitter,
/// per-link geometry, heavy tail). The headline: 100% reliability
/// everywhere, shallower healed trees under variable latency, late-`IHave`
/// optimizations only when latency varies. These numbers are the evidence
/// behind the TCP runtime's adaptive `NetConfig` defaults.
fn plumtree_latency(params: &Params, flags: &mut Flags) -> Outcome {
    let failure = flags.failure.take().unwrap_or(0.3);
    let warmup = flags.warmup.take().unwrap_or(30);
    let heal_cycles = flags.heal_cycles.take().unwrap_or(5);
    let detail =
        format!(" (failure {:.0}%, warmup {warmup}, heal cycles {heal_cycles})", failure * 100.0);
    let title = "Plumtree under variable latency — static vs optimized trees per latency model";
    let mut out = header(title, params, &detail);
    let cells = latency::plumtree_latency(params, failure, warmup, heal_cycles);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for cell in &cells {
        for (phase, metrics) in [("stable", &cell.stable), ("healed", &cell.healed)] {
            rows.push(vec![
                cell.case.label.to_owned(),
                cell.variant.to_owned(),
                phase.to_owned(),
                pct(metrics.mean_reliability),
                num(metrics.mean_rmr, 3),
                num(metrics.mean_last_hop, 1),
                cell.optimizations.to_string(),
                cell.late_optimizations.to_string(),
                cell.grafts.to_string(),
            ]);
        }
    }
    let headers = [
        "latency",
        "variant",
        "phase",
        "reliability",
        "RMR",
        "last hop",
        "optimizations",
        "late opts",
        "grafts",
    ];
    out.push(render(&headers, &rows));
    let (uni_static, uni_optimized) = latency::pair_by_case(&cells, "uniform");
    let (_, fixed_optimized) = latency::pair_by_case(&cells, "fixed");
    out.push(format!(
        "uniform healed last hop: optimized {} vs static {}; late opts: uniform {} vs fixed {}",
        num(uni_optimized.healed.mean_last_hop, 1),
        num(uni_static.healed.mean_last_hop, 1),
        uni_optimized.late_optimizations,
        fixed_optimized.late_optimizations,
    ));

    let mut failures = Vec::new();
    for cell in &cells {
        for (phase, metrics) in [("stable", &cell.stable), ("healed", &cell.healed)] {
            if metrics.mean_reliability < 0.9999 {
                failures.push(format!(
                    "{}/{} {phase}: reliability {} < 100%",
                    cell.case.label,
                    cell.variant,
                    pct(metrics.mean_reliability)
                ));
            }
        }
    }
    for label in ["uniform", "uniform-link"] {
        let (static_, optimized) = latency::pair_by_case(&cells, label);
        if optimized.healed.mean_last_hop >= static_.healed.mean_last_hop {
            failures.push(format!(
                "{label}: optimization did not flatten the healed tree ({} vs static {})",
                num(optimized.healed.mean_last_hop, 1),
                num(static_.healed.mean_last_hop, 1)
            ));
        }
    }
    if fixed_optimized.late_optimizations != 0 {
        failures.push(format!(
            "fixed latency fired {} late optimizations (arrival order cannot disagree \
             with round order at unit latency)",
            fixed_optimized.late_optimizations
        ));
    }
    if uni_optimized.late_optimizations == 0 {
        failures.push("uniform latency never exercised the late-IHave path".to_owned());
    }
    let json = plumtree_latency_artifact(params, failure, warmup, heal_cycles, &cells);
    let metrics = merged(cells.iter().map(|c| &c.metrics));
    Outcome { json: Some(json), metrics: Some(metrics), failures, ..Outcome::new(out) }
}

/// Flood vs static vs adaptive Plumtree under per-link loss, duplication
/// and a partition-and-heal cycle. The headline: adaptive Plumtree holds
/// 99% at 10% per-link loss, and every lossless cell converges back to
/// atomic delivery after the heal.
fn plumtree_wan(params: &Params, flags: &mut Flags) -> Outcome {
    let warmup = flags.warmup.take().unwrap_or(20);
    let part_messages = flags.part_messages.take().unwrap_or(10);
    let heal_attempts = flags.heal_attempts.take().unwrap_or(10);
    let detail = format!(
        " (warmup {warmup}, partition messages {part_messages}, heal attempts \
         {heal_attempts}, lognormal-link latency, duplication = loss/2)"
    );
    let title = "Broadcast under WAN faults — flood vs static vs adaptive Plumtree";
    let mut out = header(title, params, &detail);
    let cells = wan::plumtree_wan(params, warmup, part_messages, heal_attempts);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            vec![
                cell.mode.to_owned(),
                pct(cell.loss),
                pct(cell.stable.mean_reliability),
                num(cell.stable.mean_rmr, 3),
                pct(cell.partitioned_reliability),
                if cell.converged {
                    format!("{} ({} bcast)", cell.time_to_heal, cell.heal_broadcasts)
                } else {
                    "did not converge".to_owned()
                },
                pct(cell.healed.mean_reliability),
                cell.grafts.to_string(),
                cell.dropped.to_string(),
                cell.duplicated.to_string(),
            ]
        })
        .collect();
    let headers = [
        "mode",
        "loss",
        "stable rel",
        "RMR",
        "part rel",
        "heal time",
        "healed rel",
        "grafts",
        "dropped",
        "dup",
    ];
    out.push(render(&headers, &rows));
    let flood = wan::wan_cell_for(&cells, "flood", 0.10);
    let adaptive = wan::wan_cell_for(&cells, "adaptive", 0.10);
    out.push(format!(
        "at 10% per-link loss: adaptive {} vs flood {} stable reliability \
         ({} frames recovered by graft)",
        pct(adaptive.stable.mean_reliability),
        pct(flood.stable.mean_reliability),
        adaptive.grafts,
    ));

    let mut failures = Vec::new();
    if adaptive.stable.mean_reliability < 0.99 {
        failures.push(format!(
            "adaptive at 10% loss: stable reliability {} < 99%",
            pct(adaptive.stable.mean_reliability)
        ));
    }
    for cell in &cells {
        if cell.loss == 0.0 {
            for (phase, reliability) in
                [("stable", cell.stable.mean_reliability), ("healed", cell.healed.mean_reliability)]
            {
                if reliability < 0.9999 {
                    failures.push(format!(
                        "{} lossless {phase}: reliability {} < 100%",
                        cell.mode,
                        pct(reliability)
                    ));
                }
            }
            if !cell.converged {
                failures.push(format!(
                    "{} lossless: did not converge back to atomic delivery after the heal",
                    cell.mode
                ));
            }
        } else if cell.dropped == 0 {
            failures.push(format!(
                "{} at {} loss: the loss model never dropped a frame",
                cell.mode,
                pct(cell.loss)
            ));
        }
        if cell.partitioned_reliability >= 1.0 {
            failures.push(format!(
                "{} at {} loss: a halved overlay delivered everywhere (partition inert?)",
                cell.mode,
                pct(cell.loss)
            ));
        }
    }
    let json = plumtree_wan_artifact(params, warmup, part_messages, heal_attempts, &cells);
    let metrics = merged(cells.iter().map(|c| &c.metrics));
    Outcome { json: Some(json), metrics: Some(metrics), failures, ..Outcome::new(out) }
}

/// Eclipse and infiltration colluders vs the overlay defenses. The
/// headline: the defended time-to-eclipse is at least 5x the undefended one
/// at 20% colluders and past the horizon at 10%, every hardened cell fires
/// a defense, infiltration captures less under defenses, and honest
/// reliability stays positive.
fn hyparview_attack(params: &Params, flags: &mut Flags) -> Outcome {
    let horizon = flags.horizon.take().unwrap_or_else(|| attack::default_horizon(params));
    let detail = format!(" (horizon {horizon} cycles, eclipse victims 2, attacker rejoin 20%)");
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
