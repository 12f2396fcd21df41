//! Every stated claim of `hpv-bench`, written once: one row per
//! statement, checked by one function. The paper's evaluation (§5) gives
//! the rows of its nine slices ([`table`]); Leitão, Pereira and
//! Rodrigues, "Epidemic Broadcast Trees" (SRDS 2007), those of `plumtree`
//! ([`plumtree_table`]); and `hyparview_attack` states its own headline
//! ([`attack_table`]). A row names its experiment, what it measures, the
//! statement and the network size it is checked at; its check reads the
//! experiment's results and returns the measured value and whether the
//! claim holds. `check` ends every report with its rows, and an
//! experiment's failures under `--assert` are exactly its failing rows.
//! Where the repo does not reproduce a statement, the row checks what
//! does hold beside the text.

use super::attack::{attack_cell_for, AttackCell};
use super::paper::Slice::{self, Ablations, Fig1, Fig1c, Fig2, Fig3, Fig4, Fig5, Overhead, Table1};
use super::paper::{self, summary, Cell, Results};
use super::paper::{FIG2_FAILURES, FIG3_FAILURES, FIG4_FAILURES};
use super::plumtree::{self, cell, LATENCY_CASES};
use crate::cli::Outcome;
use crate::params::Params;
use crate::table::{pct, render};
use hyparview_core::Config;
use hyparview_graph::mean_field_reach;
use hyparview_sim::protocols::ProtocolKind::{self, Cyclon, CyclonAcked, HyParView, Scamp};

/// A row's check over results of type `R`: what it measured, and whether
/// the claim holds.
type Check<R> = dyn Fn(&Params, &R) -> (String, bool);

/// One row of the claims table, checked against results of type `R`: a
/// paper slice's [`Results`], or the cells of `plumtree` or
/// `hyparview_attack`.
pub struct Claim<R: ?Sized> {
    /// The experiment whose report prints the row: a paper slice by its
    /// figure (`Fig5`), `plumtree` or `hyparview_attack`.
    pub experiment: String,
    /// What the row measures.
    pub subject: String,
    /// The statement: the paper's, or the experiment's own headline.
    pub statement: &'static str,
    /// The one network size the row is checked at (`None`: every size).
    pub(crate) n: Option<usize>,
    check: Box<Check<R>>,
}

impl<R: ?Sized> Claim<R> {
    /// What `--assert` reports when the row measures `measured` and does
    /// not hold: the experiment, the subject, the statement and the value.
    pub(crate) fn failure(&self, measured: &str) -> String {
        format!("{}: {} ({}): {measured}", self.experiment, self.subject, self.statement)
    }
}

/// A row of the paper's `slice`.
fn row(
    slice: Slice,
    subject: impl Into<String>,
    statement: &'static str,
    check: impl Fn(&Params, &Results) -> (String, bool) + 'static,
) -> Claim<Results> {
    let (experiment, subject) = (format!("{slice:?}"), subject.into());
    Claim { experiment, subject, statement, n: None, check: Box::new(check) }
}

/// A row of `plumtree`, read from its cells.
fn tree(
    subject: &str,
    statement: &'static str,
    check: impl Fn(&[plumtree::Cell]) -> (String, bool) + 'static,
) -> Claim<[plumtree::Cell]> {
    let (experiment, subject) = ("plumtree".to_owned(), subject.to_owned());
    Claim { experiment, subject, statement, n: None, check: Box::new(move |_, r| check(r)) }
}

/// A row of `hyparview_attack`, read from its cells.
fn attack(
    subject: &str,
    statement: &'static str,
    check: impl Fn(&[AttackCell]) -> (String, bool) + 'static,
) -> Claim<[AttackCell]> {
    let (experiment, subject) = ("hyparview_attack".to_owned(), subject.to_owned());
    Claim { experiment, subject, statement, n: None, check: Box::new(move |_, r| check(r)) }
}

/// `kind`'s mean reliability after a crash of `failure` (Figure 2).
fn fig2(p: &Params, r: &Results, kind: ProtocolKind, failure: f64) -> f64 {
    r.reliability(&Cell::new(p, kind).failing(failure), p.messages)
}

/// `kind`'s cycles to regain its baseline after each of Figure 4's crashes.
fn heals(p: &Params, r: &Results, kind: ProtocolKind) -> [Option<usize>; 9] {
    FIG4_FAILURES.map(|failure| {
        r.healing(&Cell { heal: true, ..Cell::new(p, kind).failing(failure) }).cycles(1.0)
    })
}

/// Cycles as `a/b/…`, `-` where the probes never regained the baseline.
fn cycles(cycles: &[Option<usize>]) -> String {
    let cycles = cycles.iter().map(|c| c.map_or("-".to_owned(), |c| c.to_string()));
    cycles.collect::<Vec<String>>().join("/")
}

fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn min(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The paper's claims, slice by slice in `hpv-bench all`'s order, then
/// `overhead` and `ablations`.
pub fn table() -> Vec<Claim<Results>> {
    let fig1 = |p: &Params, r: &Results, kind, fanout| {
        r.reliability(&Cell::fig1(p, kind, fanout), Fig1.broadcasts(p))
    };
    let mut rows = vec![
        row(Fig1, "Cyclon, fanout 1 vs 4", "reliability grows with the fanout", move |p, r| {
            let [low, high] = [1, 4].map(|fanout| fig1(p, r, Cyclon, fanout));
            (format!("{} -> {}", pct(low), pct(high)), high > low && high > 0.9)
        }),
        row(Fig1, "HyParView, fanout 4", "HyParView reaches 100% at fanout 4", move |p, r| {
            let hpv = fig1(p, r, HyParView, 4);
            (pct(hpv), hpv > 0.999)
        }),
        // Fanout 1 is the model's critical point, where it reaches no one.
        row(Fig1, "Cyclon, fanouts 2-8", "mean field: π = 1 − e^(−fπ)", move |p, r| {
            let gap = |kind, f| (fig1(p, r, kind, f) - mean_field_reach(f)).abs() * 100.0;
            let [cyclon, scamp] = [Cyclon, Scamp].map(|kind| max((2..=8).map(|f| gap(kind, f))));
            (format!("{cyclon:.1} points off at most (Scamp {scamp:.1})"), cyclon <= 2.0)
        }),
        row(Fig1c, "Best message", "no message delivered to more than ~85% of nodes", |p, r| {
            let best = |kind| max(r.series(&Cell::new(p, kind).failing(0.5), Fig1c.broadcasts(p)));
            let (cyclon, scamp) = (best(Cyclon), best(Scamp));
            (format!("Cyclon {}, Scamp {}", pct(cyclon), pct(scamp)), cyclon.max(scamp) <= 0.9)
        }),
    ];
    // Figure 2's floors hold at every scale: 99.99% through 50% failures,
    // 90% through 90%. At 95% the paper's ~90% depends on the scale.
    for failure in FIG2_FAILURES {
        let subject = format!("HyParView at {:.0}% failures", failure * 100.0);
        let paper = if failure <= 0.9 { "~100%" } else { "~90%" };
        rows.push(row(Fig2, subject, paper, move |p, r| {
            let hpv = fig2(p, r, HyParView, failure);
            if failure > 0.9 {
                let best = max([CyclonAcked, Cyclon, Scamp].map(|k| fig2(p, r, k, failure)));
                return (format!("{}, best baseline {}", pct(hpv), pct(best)), hpv > best);
            }
            let (floor, shown) = if failure <= 0.5 { (0.9999, "99.99%") } else { (0.90, "90%") };
            (format!("{} (floor {shown})", pct(hpv)), hpv >= floor)
        }));
    }
    rows.extend([
        row(Fig2, "Cyclon, Scamp", "below 50% for failure rates above 50%", |p, r| {
            let above = FIG2_FAILURES.into_iter().filter(|&f| f > 0.5);
            let at = |kind| above.clone().map(|f| fig2(p, r, kind, f)).collect::<Vec<f64>>();
            let [hpv, cyclon, scamp] = [HyParView, Cyclon, Scamp].map(at);
            let lead = hpv.iter().zip(cyclon.iter().zip(&scamp)).map(|(h, (c, s))| h - c.max(*s));
            let (lead, cyclon, scamp) = (min(lead) * 100.0, pct(max(cyclon)), max(scamp));
            let measured = format!("Cyclon up to {cyclon}, Scamp up to {}", pct(scamp));
            (format!("{measured}, HyParView {lead:.1} points ahead"), lead > 10.0 && scamp < 0.5)
        }),
        row(Fig2, "CyclonAcked", "competitive to 70%", |p, r| {
            let to_60 = FIG2_FAILURES.into_iter().filter(|&f| f <= 0.6);
            let least = min(to_60.map(|f| fig2(p, r, CyclonAcked, f)));
            let at70 = fig2(p, r, CyclonAcked, 0.7);
            let others = max([Cyclon, Scamp].map(|k| fig2(p, r, k, 0.7)));
            let measured = format!("{} or more through 60%, {} at 70%", pct(least), pct(at70));
            (measured, least >= 0.9 && at70 > others)
        }),
        row(Fig3, "HyParView through 80%", "HyParView recovers almost immediately", |p, r| {
            let hpv = |f| r.series(&Cell::new(p, HyParView).failing(f), p.messages);
            let panels: Vec<_> = FIG3_FAILURES.into_iter().filter(|&f| f <= 0.8).map(hpv).collect();
            let plateau = min(panels.iter().map(|s| paper::plateau(s)));
            let reach = |s: &[f64]| paper::messages_to_reach(s, 0.95).map_or(usize::MAX, |i| i + 1);
            let reach = panels.iter().map(|s| reach(s)).max().unwrap_or(0);
            let measured = format!("plateau {} or more, 95% by message {reach}", pct(plateau));
            (measured, plateau > 0.95 && reach <= 15)
        }),
        row(Fig3, "HyParView at 95%", "above 80% failures the baselines sit near 0%", |p, r| {
            let series = |kind| r.series(&Cell::new(p, kind).failing(0.95), p.messages);
            let plateau = |kind| paper::plateau(&series(kind));
            let (hpv, best) = (plateau(HyParView), max([CyclonAcked, Cyclon, Scamp].map(plateau)));
            (format!("plateau {}, baselines up to {}", pct(hpv), pct(best)), hpv > best)
        }),
        row(Fig3, "View accuracy", "CyclonAcked after ~25 messages; Cyclon/Scamp flat", |p, r| {
            let gain = |kind, f| {
                r.mean(&Cell::new(p, kind).failing(f), |x| x.accuracy_after - x.accuracy_before)
            };
            let acked = min(FIG3_FAILURES.map(|f| gain(CyclonAcked, f)));
            let flat = max(FIG3_FAILURES.map(|f| gain(Cyclon, f).abs().max(gain(Scamp, f).abs())));
            let measured = format!("CyclonAcked gains {:.1} points or more", acked * 100.0);
            (format!("{measured}, Cyclon and Scamp move {flat:.4}"), acked > 0.0 && flat < 1e-9)
        }),
        row(Fig4, "HyParView", "needs 1–2 cycles below 80% and <= 4 at 90%", |p, r| {
            let hpv = heals(p, r, HyParView);
            let bound = |f| if f < 0.8 { 2 } else { 4 };
            let within =
                FIG4_FAILURES.iter().zip(hpv).all(|(&f, c)| c.is_some_and(|c| c <= bound(f)));
            let cell = |f| Cell { heal: true, ..Cell::new(p, HyParView).failing(f) };
            let baseline = min(FIG4_FAILURES.map(|f| r.healing(&cell(f)).baseline));
            let measured = format!("{} cycles, baseline {} or more", cycles(&hpv), pct(baseline));
            (measured, within && baseline > 0.99)
        }),
        row(Fig4, "Cyclon", "grows roughly linearly with the failure percentage", |p, r| {
            let [hpv, cyclon] = [HyParView, Cyclon].map(|kind| heals(p, r, kind));
            let slower =
                hpv.iter().zip(cyclon).all(|(h, c)| h.is_some() && (c.is_none() || *h <= c));
            (format!("{} cycles, never fewer than HyParView", cycles(&cyclon)), slower)
        }),
        row(Fig5, "HyParView", "concentrated at the active view size", |p, r| {
            let indegree = &r.overlay(p, HyParView).indegree;
            let (share, stddev) = (indegree.fraction_at(5), indegree.summary.stddev);
            (format!("{} at 5, stddev {stddev:.2}", pct(share)), share > 0.7 && stddev < 1.5)
        }),
        row(Fig5, "Cyclon vs HyParView", "Cyclon spread wide", |p, r| {
            let [cyclon, hpv] =
                [Cyclon, HyParView].map(|k| r.overlay(p, k).indegree.summary.stddev);
            (format!("stddev {cyclon:.2} vs {hpv:.2}"), cyclon > hpv)
        }),
        row(Fig5, "Scamp", "long-tailed with some nodes known by a single peer", |p, r| {
            let [scamp, cyclon] = [Scamp, Cyclon].map(|k| &r.overlay(p, k).indegree.summary);
            let [s, c] = [scamp, cyclon].map(|d| d.stddev / d.mean);
            (format!("stddev/mean {s:.2} vs Cyclon's {c:.2}, min {}", scamp.min), s > c)
        }),
        row(Table1, "Clustering", "HyParView 0.00092 < Cyclon 0.006836, Scamp 0.022476", |p, r| {
            let [hpv, others @ ..] = ProtocolKind::ALL.map(|k| r.overlay(p, k).clustering);
            (format!("HyParView {hpv:.6}, others {:.6} or more", min(others)), hpv < min(others))
        }),
        row(Table1, "Average path", "HyParView 6.39 > Cyclon 2.60, Scamp 3.35", |p, r| {
            let [hpv, others @ ..] = ProtocolKind::ALL.map(|k| r.overlay(p, k).avg_shortest_path);
            (format!("HyParView {hpv:.3}, others {:.3} at most", max(others)), hpv > max(others))
        }),
        row(Table1, "Hops to delivery", "HyParView 9.0 < Cyclon 10.6, Scamp 14.1", |p, r| {
            let run = |kind| std::slice::from_ref(r.first(&Cell::new(p, kind)));
            let hops = |kind| summary(run(kind), Table1.broadcasts(p)).mean_max_hops();
            let [hpv, others @ ..] = ProtocolKind::ALL.map(hops);
            (format!("HyParView {hpv:.1}, others {:.1} or more", min(others)), hpv < min(others))
        }),
        row(Table1, "Every overlay", "connected after stabilization", |p, r| {
            let connected = ProtocolKind::ALL.iter().filter(|&&k| r.overlay(p, k).connected);
            let connected = connected.count();
            (format!("{connected} of 4 connected"), connected == 4)
        }),
        row(Table1, "HyParView mean view", "the active view, fanout + 1 = 5", |p, r| {
            let view = r.overlay(p, HyParView).mean_view;
            (format!("{view:.2}"), (view - 5.0).abs() < 0.5)
        }),
        Claim {
            n: Some(Params::paper().n),
            ..row(Table1, "HyParView average path at n = 10,000", "6.39", |p, r| {
                let path = r.overlay(p, HyParView).avg_shortest_path;
                (format!("{path:.3} (within 0.1)"), (path - 6.39).abs() <= 0.1)
            })
        },
        row(Overhead, "Fanout 6 vs 4", "costs ~20,000 extra messages, >99% redundant", |p, r| {
            let cell = |fanout| Cell { fanout, ..Cell::new(p, Cyclon) };
            let [four, six] = [4, 6].map(|f| r.overhead(&cell(f), Overhead.broadcasts(p)));
            let (extra, share) = (six[0] - four[0], (six[1] - four[1]) / (six[0] - four[0]));
            let per_node = extra / p.n as f64;
            let holds = six[0] > 1.2 * four[0] && (per_node - 2.0).abs() <= 0.2 && share > 0.99;
            (format!("Cyclon: {per_node:.2}n extra, {} redundant", pct(share)), holds)
        }),
        row(Overhead, "HyParView, fanout 4", "HyParView reaches 100% at fanout 4", |p, r| {
            let cell = Cell { fanout: 4, ..Cell::new(p, HyParView) };
            let [sent, _, reliability] = r.overhead(&cell, Overhead.broadcasts(p));
            let (per_node, measured) = (sent / p.n as f64, pct(reliability));
            (format!("{measured}, {per_node:.2}n messages"), reliability > 0.999 && per_node < 4.5)
        }),
        row(Ablations, "Passive view 30 vs 1", "§6: passive view size vs resilience", |p, r| {
            let passive = |size| Config::default().with_passive_capacity(size);
            let cell = |size| Cell::hyparview(p, passive(size)).failing(0.8);
            let [large, tiny] = [30, 1].map(|size| r.reliability(&cell(size), p.messages));
            (format!("{} vs {} at 80% failures", pct(large), pct(tiny)), large >= tiny)
        }),
        row(Ablations, "Flood vs random fanout at 50%", "§5.5: flood the active view", |p, r| {
            let flood = Cell::hyparview(p, Config::default()).failing(0.5);
            let random = Cell { random_fanout: true, ..flood.clone() };
            let [flood, random] = [flood, random].map(|cell| r.reliability(&cell, p.messages));
            (format!("{} vs {}", pct(flood), pct(random)), flood >= random - 0.02)
        }),
    ]);
    rows
}

/// The unit-latency, lossless `plumtree` cell after a 30% crash: the cell
/// every slice of its grid compares against.
const FIXED_CRASH30: &str = "fixed.loss0.crash30";

/// An attack cell by its model, colluder fraction and defense.
fn attack_cell(c: &AttackCell) -> String {
    format!("{} at {} {}", c.model, pct(c.fraction), c.defense)
}

/// A reliability with the two decimals a 99.99% floor needs.
fn pct2(value: f64) -> String {
    format!("{:.2}%", value * 100.0)
}

/// The item of `items` where `value` is least.
fn worst<'c, C>(items: impl IntoIterator<Item = &'c C>, value: impl Fn(&C) -> f64) -> &'c C {
    items.into_iter().min_by(|a, b| value(a).total_cmp(&value(b))).expect("a row reads cells")
}

/// Whether every one of `cells` reaches 99.99% in `phase`, and the worst
/// by its strategy and label, as the artifact names it.
fn full<'c>(
    cells: impl IntoIterator<Item = &'c plumtree::Cell>,
    phase: impl Fn(&plumtree::Cell) -> &plumtree::PhaseMetrics,
) -> (String, bool) {
    let cells: Vec<_> = cells.into_iter().collect();
    let low = worst(cells.iter().copied(), |c| phase(c).mean_reliability);
    let name = format!("{} {}", low.at.strategy.label, low.at.label());
    let measured = format!("least {} ({name})", pct2(phase(low).mean_reliability));
    (measured, cells.iter().all(|c| phase(c).mean_reliability >= 0.9999))
}

/// The optimized and the static tree after a 30% crash under `latency`.
fn crashed<'c>(r: &'c [plumtree::Cell], latency: &str) -> [&'c plumtree::Cell; 2] {
    let label = format!("{latency}.loss0.crash30");
    ["optimized", "static"].map(|strategy| cell(r, strategy, &label))
}

/// `plumtree`'s claims over its 24 cells. A row that covers several cells
/// holds on each, and its measured value names the worst.
pub fn plumtree_table() -> Vec<Claim<[plumtree::Cell]>> {
    vec![
        tree("every lossless cell, stable", "as reliable as the flood", |r| {
            full(r.iter().filter(|c| c.at.loss == 0.0), |c| &c.stable)
        }),
        tree("cost: static tree vs flood", "tree RMR near 0, the flood's near fanout − 1", |r| {
            let trees =
                r.iter().filter(|c| c.at.slice == "cost" && c.at.strategy.label == "static");
            let pairs: Vec<_> =
                trees.map(|t| [t, cell(r, "flood", &t.at.label())].map(|c| c.stable)).collect();
            let holds = pairs.iter().all(|[t, f]| {
                let payloads = t.payload_per_broadcast < f.payload_per_broadcast / 2.0;
                t.mean_rmr < 0.1 && f.mean_rmr > 1.5 && payloads
            });
            let rmr = |i: usize| pairs.iter().map(move |pair| pair[i].mean_rmr);
            let share =
                max(pairs.iter().map(|[t, f]| t.payload_per_broadcast / f.payload_per_broadcast));
            let (tree, flood) = (max(rmr(0)), min(rmr(1)));
            let measured = format!("RMR {tree:.3} vs {flood:.2} at worst, payloads {share:.2}x");
            (format!("{measured} the flood's"), holds)
        }),
        tree("static tree after a 30% crash", "Graft repair keeps delivering", |r| {
            let disturbed = cell(r, "static", FIXED_CRASH30).disturbed_reliability;
            (format!("{} (floor 95%)", pct(disturbed)), disturbed > 0.95)
        }),
        tree("batched vs static, control frames", "§3.8: batching folds announcements", |r| {
            let [batched, tree] = ["batched", "static"].map(|s| cell(r, s, FIXED_CRASH30));
            let [ours, theirs] = [batched, tree].map(|c| c.stable.control_per_broadcast);
            let measured =
                format!("{ours:.1} vs {theirs:.1} per broadcast, {} batches", batched.batches);
            (measured, batched.batches > 0 && ours < 0.6 * theirs)
        }),
        tree("static and optimized, every latency", "the tree heals after a 30% crash", |r| {
            let pairs: Vec<_> = LATENCY_CASES.iter().flat_map(|l| crashed(r, l.label)).collect();
            full(pairs, |c| &c.healed)
        }),
        tree("optimized vs static, healed last hop", "§3.8: optimization flattens it", |r| {
            let (mut shown, mut holds) = (Vec::new(), true);
            for latency in ["fixed", "uniform", "uniform-link"] {
                let [optimized, tree] =
                    crashed(r, latency).map(|c| (c.optimizations, c.healed.mean_last_hop));
                shown.push(format!("{:.1} vs {:.1} {latency}", optimized.1, tree.1));
                holds &= optimized.0 > 0 && optimized.1 < tree.1;
            }
            (shown.join(", "), holds)
        }),
        tree("late optimizations", "only varying latency lets an IHave lose the race", |r| {
            let late = |label| cell(r, "optimized", label).late_optimizations;
            let (fixed, uniform) = (late(FIXED_CRASH30), late("uniform.loss0.crash30"));
            let holds = fixed == 0 && uniform > 0;
            (format!("{fixed} at unit latency, {uniform} under uniform jitter"), holds)
        }),
        tree("every static tree", "never optimizes", |r| {
            let trees = r.iter().filter(|c| c.at.strategy.label == "static");
            let optimizations: u64 = trees.map(|c| c.optimizations).sum();
            (format!("{optimizations} optimizations"), optimizations == 0)
        }),
        tree("adaptive tree at 10% loss", "lazy repair holds 99% under per-link loss", |r| {
            let label = "lognormal-link.loss10.partition";
            let [adaptive, flood] = ["adaptive", "flood"].map(|s| cell(r, s, label));
            let (reliability, duplicated) = (adaptive.stable.mean_reliability, adaptive.duplicated);
            let flood = pct2(flood.stable.mean_reliability);
            let measured =
                format!("{} (flood {flood}), {duplicated} frames duplicated", pct2(reliability));
            (measured, reliability >= 0.99 && duplicated > 0)
        }),
        tree("every lossless wan cell, healed", "converges back to full delivery", |r| {
            let lossless: Vec<_> =
                r.iter().filter(|c| c.at.slice == "wan" && c.at.loss == 0.0).collect();
            let (measured, full) = full(lossless.iter().copied(), |c| &c.healed);
            let (converged, all) =
                (lossless.iter().filter(|c| c.converged).count(), lossless.len());
            (format!("{converged} of {all} converged, {measured}"), full && converged == all)
        }),
        tree("every wan cell, faults", "loss and the cut drop frames, nothing else", |r| {
            let wan = r.iter().filter(|c| c.at.slice == "wan");
            let (lossless, lossy): (Vec<_>, Vec<_>) = wan.partition(|c| c.at.loss == 0.0);
            let clean: u64 = lossless.iter().map(|c| c.dropped + c.duplicated).sum();
            let cut = lossless.iter().map(|c| c.partition_dropped).min().unwrap_or(0);
            let lost = lossy.iter().map(|c| c.dropped).min().unwrap_or(0);
            let holds =
                lossless.iter().all(|c| c.dropped + c.duplicated == 0 && c.partition_dropped > 0)
                    && lossy.iter().all(|c| c.dropped > 0);
            let measured = format!("lossless: {clean} dropped or duplicated, least {cut} cut");
            (format!("{measured}; lossy: least {lost} dropped"), holds)
        }),
        tree("every wan cell, the partition", "a halved overlay misses nodes", |r| {
            let wan: Vec<_> = r.iter().filter(|c| c.at.slice == "wan").collect();
            let high = max(wan.iter().map(|c| c.disturbed_reliability));
            let heal = wan.iter().filter(|c| c.converged).map(|c| c.time_to_heal).min();
            let holds = wan
                .iter()
                .all(|c| c.disturbed_reliability < 1.0 && (!c.converged || c.time_to_heal > 0));
            let heal = heal.unwrap_or(0);
            (format!("{} or less during the cut, healed at {heal} or later", pct(high)), holds)
        }),
    ]
}

/// `hyparview_attack`'s headline over its 8 cells.
pub fn attack_table() -> Vec<Claim<[AttackCell]>> {
    vec![
        attack("eclipse at 20%, open", "a Neighbor flood captures a victim", |r| {
            let open = attack_cell_for(r, "eclipse", 0.20, "open");
            let (floods, time) = (open.neighbor_floods, open.eclipse_time());
            (format!("time-to-eclipse {time}, {floods} floods"), open.eclipsed && floods > 0)
        }),
        attack("eclipse at 20%, hardened vs open", "defenses take 5x as long or more", |r| {
            let [open, hard] = ["open", "hardened"].map(|d| attack_cell_for(r, "eclipse", 0.20, d));
            let (damped, swaps) = (hard.neighbors_damped, hard.tenure_swaps);
            let shown = format!("{} vs {}", hard.eclipse_time(), open.eclipse_time());
            let measured =
                format!("time-to-eclipse {shown} ({damped} admissions damped, {swaps} swaps)");
            (measured, hard.time_to_eclipse >= 5 * open.time_to_eclipse)
        }),
        attack("eclipse at 10%, hardened", "the defenses hold past the horizon", |r| {
            let hard = attack_cell_for(r, "eclipse", 0.10, "hardened");
            (format!("time-to-eclipse {}", hard.eclipse_time()), !hard.eclipsed)
        }),
        attack("every hardened cell", "damps a Neighbor or swaps tenure", |r| {
            let fired = |c: &AttackCell| (c.neighbors_damped + c.tenure_swaps) as f64;
            let hardened: Vec<_> = r.iter().filter(|c| c.defense == "hardened").collect();
            let least = worst(hardened.iter().copied(), fired);
            let measured =
                format!("least {} defense events ({})", fired(least), attack_cell(least));
            (measured, hardened.iter().all(|c| fired(c) > 0.0))
        }),
        attack("every cell", "honest broadcasts reach honest nodes", |r| {
            let least = worst(r, |c| c.honest_reliability);
            let measured =
                format!("least {} ({})", pct(least.honest_reliability), attack_cell(least));
            (measured, r.iter().all(|c| c.honest_reliability > 0.0))
        }),
        attack("infiltration at 20%, hardened vs open", "the defenses cut capture", |r| {
            let capture = |d| attack_cell_for(r, "infiltration", 0.20, d).capture_fraction;
            let (open, hard) = (capture("open"), capture("hardened"));
            (format!("capture {hard:.3} vs {open:.3}"), hard < open)
        }),
    ]
}

/// `rows` checked at `params` against `results`, ending `outcome`'s report
/// with the table of every row checked at `params.n`; `outcome`'s
/// failures are exactly its failing rows.
pub(crate) fn check<R: ?Sized>(
    outcome: Outcome,
    rows: impl IntoIterator<Item = Claim<R>>,
    params: &Params,
    results: &R,
) -> Outcome {
    let mut failures = Vec::new();
    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .filter(|claim| claim.n.unwrap_or(params.n) == params.n)
        .map(|claim| {
            let (measured, holds) = (claim.check)(params, results);
            if !holds {
                failures.push(claim.failure(&measured));
            }
            let verdict = if holds { "holds" } else { "FAILS" };
            vec![claim.subject, claim.statement.to_owned(), measured, verdict.to_owned()]
        })
        .collect();
    let table = render(&["claim", "statement", "measured", ""], &rows);
    Outcome { report: format!("{}\n\nclaims:\n{table}", outcome.report), failures, ..outcome }
}
