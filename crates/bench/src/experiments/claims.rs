//! The paper's claims, written once: one row per statement of its
//! evaluation (§5), for every slice of [`paper`]. A row names its slice,
//! what it measures, the paper's statement and the network size it is
//! checked at; its check reads the slice's cells and returns the measured
//! value and whether the claim holds. A slice's failures under `--assert`
//! are exactly its failing rows. Where the repo does not reproduce a
//! statement, the row checks what does hold beside the paper's text.

use super::paper::Slice::{self, Ablations, Fig1, Fig1c, Fig2, Fig3, Fig4, Fig5, Overhead, Table1};
use super::paper::{self, summary, Cell, Results};
use super::paper::{FIG2_FAILURES, FIG3_FAILURES, FIG4_FAILURES};
use crate::params::Params;
use crate::table::{pct, render};
use hyparview_core::Config;
use hyparview_graph::mean_field_reach;
use hyparview_sim::protocols::ProtocolKind::{self, Cyclon, CyclonAcked, HyParView, Scamp};

/// A row's check: what it measured, and whether the claim holds.
type Check = dyn Fn(&Params, &Results) -> (String, bool);

/// One row of the claims table.
pub struct Claim {
    /// The slice whose cells the check reads.
    pub slice: Slice,
    /// What the row measures.
    pub subject: String,
    /// The paper's statement.
    pub paper: &'static str,
    /// The one network size the row is checked at (`None`: every size).
    pub(crate) n: Option<usize>,
    check: Box<Check>,
}

impl Claim {
    /// What `--assert` reports when the row measures `measured` and does
    /// not hold: the figure, the statement and the value.
    pub(crate) fn failure(&self, measured: &str) -> String {
        format!("{:?}: {} (paper: {}): {measured}", self.slice, self.subject, self.paper)
    }
}

fn row(
    slice: Slice,
    subject: impl Into<String>,
    paper: &'static str,
    check: impl Fn(&Params, &Results) -> (String, bool) + 'static,
) -> Claim {
    Claim { slice, subject: subject.into(), paper, n: None, check: Box::new(check) }
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

/// Every claim the repo checks, slice by slice in `hpv-bench all`'s order,
/// then `overhead` and `ablations`.
pub fn table() -> Vec<Claim> {
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

/// `slice`'s rows checked at `params` against `results`: the table the
/// report prints, and one failure per failing row.
pub(crate) fn check(slice: Slice, params: &Params, results: &Results) -> (String, Vec<String>) {
    let mut failures = Vec::new();
    let rows: Vec<Vec<String>> = table()
        .into_iter()
        .filter(|claim| claim.slice == slice && claim.n.unwrap_or(params.n) == params.n)
        .map(|claim| {
            let (measured, holds) = (claim.check)(params, results);
            if !holds {
                failures.push(claim.failure(&measured));
            }
            let verdict = if holds { "holds" } else { "FAILS" };
            vec![claim.subject, claim.paper.to_owned(), measured, verdict.to_owned()]
        })
        .collect();
    (render(&["claim", "paper", "measured", ""], &rows), failures)
}
