// The paper slices' unit tests, one `<figure>::tests` module per slice so
// that each test keeps its name, each running its cells through
// `paper::run` as the slice reads them. Included by `experiments/mod.rs`
// in test builds.

use crate::{experiments::paper::*, Params};
use hyparview_sim::protocols::ProtocolKind::{self, Cyclon, CyclonAcked, HyParView, Scamp};

/// Runs `cells` as `slice` reads them.
fn measure(params: &Params, slice: Slice, cells: &[Cell]) -> Results {
    run(params, cells.iter().map(|cell| slice.key(params, cell.clone())).collect())
}

/// The mean reliability of each of `cells`, as `slice` reads it.
fn reliability(params: &Params, slice: Slice, cells: &[Cell]) -> Vec<f64> {
    let results = measure(params, slice, cells);
    let reliability = |c| summary(results.runs(c), slice.broadcasts(params)).mean_reliability();
    cells.iter().map(reliability).collect()
}

/// HyParView's, Cyclon's and Scamp's stable overlays at the smoke scale
/// as Table 1 reads them (Figure 5 reads the first two), run once for the
/// tests of both.
fn overlays() -> &'static [OverlaySnapshot] {
    static OVERLAYS: std::sync::OnceLock<Vec<OverlaySnapshot>> = std::sync::OnceLock::new();
    OVERLAYS.get_or_init(|| {
        let params = Params::smoke();
        let cells = [HyParView, Cyclon, Scamp].map(|kind| Cell::new(&params, kind));
        let results = measure(&params, Slice::Table1, &cells);
        let overlay = |cell| results.first(cell).overlay.clone().expect("a stable overlay");
        cells.iter().map(overlay).collect()
    })
}

mod fig1 {
    mod tests {
        use super::super::*;

        #[test]
        fn reliability_grows_with_fanout_for_cyclon() {
            let params = Params::smoke().with_messages(30);
            let cells = [1, 4].map(|fanout| Cell::fig1(&params, Cyclon, fanout));
            let points = reliability(&params, Slice::Fig1, &cells);
            assert_eq!(points.len(), 2);
            let (low, high) = (points[0], points[1]);
            assert!(cells[0].fanout == 1 && cells[1].fanout == 4);
            assert!(high > low, "fanout 4 ({high}) must beat fanout 1 ({low})");
            assert!(high > 0.9, "fanout 4 reliability {high}");
        }

        #[test]
        fn hyparview_flood_is_atomic_on_stable_overlay() {
            let params = Params::smoke().with_messages(20);
            let cell = Cell::fig1(&params, HyParView, 4);
            let reliability = reliability(&params, Slice::Fig1, &[cell])[0];
            assert!(reliability > 0.999, "HyParView stable reliability {reliability}");
        }
    }
}

mod fig2 {
    mod tests {
        use super::super::*;

        #[test]
        fn hyparview_survives_moderate_failures() {
            let params = Params::smoke().with_messages(30);
            let cell = Cell::new(&params, HyParView).failing(0.4);
            let results = measure(&params, Slice::Fig2, std::slice::from_ref(&cell));
            let reliability = summary(results.runs(&cell), 30).mean_reliability();
            assert!(reliability > 0.95, "HyParView at 40% failures: {reliability}");
            assert!(results.first(&cell).events > 0, "runs must report their event count");
        }

        #[test]
        fn hyparview_beats_cyclon_after_heavy_failures() {
            let params = Params::smoke().with_messages(30);
            let cells = [HyParView, Cyclon].map(|kind| Cell::new(&params, kind).failing(0.6));
            let points = reliability(&params, Slice::Fig2, &cells);
            let (hpv, cyc) = (points[0], points[1]);
            assert!(hpv > cyc + 0.1, "HyParView {hpv} vs Cyclon {cyc}");
        }

        #[test]
        fn rows_cover_all_requested_levels() {
            let params = Params::smoke().with_messages(5);
            let cells = [0.1, 0.5].map(|f| Cell::new(&params, HyParView).failing(f));
            let results = measure(&params, Slice::Fig2, &cells);
            let rows = results.cells();
            assert_eq!(rows.len(), 2);
            assert_eq!(rows[0].1.len(), 1);
            assert!(rows[0].0.cell.failure < rows[1].0.cell.failure);
        }

        #[test]
        fn parallel_grid_matches_sequential_exactly() {
            let sequential = Params::smoke().with_messages(8).with_runs(2);
            let parallel = sequential.clone().with_jobs(4);
            let cells: Vec<Cell> = [0.2, 0.6]
                .iter()
                .flat_map(|&f| [HyParView, Cyclon].map(|k| Cell::new(&sequential, k).failing(f)))
                .collect();
            let a = measure(&sequential, Slice::Fig2, &cells);
            let b = measure(&parallel, Slice::Fig2, &cells);
            for cell in &cells {
                let (sa, sb) = (summary(a.runs(cell), 8), summary(b.runs(cell), 8));
                assert_eq!(sa.mean_reliability().to_bits(), sb.mean_reliability().to_bits());
                assert_eq!(sa.min_reliability().to_bits(), sb.min_reliability().to_bits());
                let accuracy = |r: &Results| r.mean(cell, |run| run.accuracy_before).to_bits();
                assert_eq!(accuracy(&a), accuracy(&b));
                let events = |r: &Results| r.runs(cell).iter().map(|run| run.events).sum::<u64>();
                assert_eq!(events(&a), events(&b));
            }
        }
    }
}

mod fig3 {
    mod tests {
        use super::super::*;

        /// The per-message series of `kind` after `failure`, and the mean
        /// view accuracy before and after it.
        fn recovery(params: &Params, kind: ProtocolKind, failure: f64) -> (Vec<f64>, f64, f64) {
            let cell = Cell::new(params, kind).failing(failure);
            let results = measure(params, Slice::Fig3, std::slice::from_ref(&cell));
            let before = results.mean(&cell, |run| run.accuracy_before);
            let after = results.mean(&cell, |run| run.accuracy_after);
            (results.series(&cell, params.messages), before, after)
        }

        #[test]
        fn hyparview_recovers_within_a_few_messages() {
            let params = Params::smoke().with_messages(30);
            let (series, _, _) = recovery(&params, HyParView, 0.5);
            let plateau = plateau(&series);
            assert!(plateau > 0.95, "HyParView plateau after 50% failures: {plateau}");
            let reach = messages_to_reach(&series, 0.95);
            assert!(
                matches!(reach, Some(i) if i < 15),
                "HyParView took too long to recover: {reach:?} (series {series:?})"
            );
        }

        #[test]
        fn accuracy_improves_for_detecting_protocols() {
            let params = Params::smoke().with_messages(40);
            let (_, before, after) = recovery(&params, CyclonAcked, 0.5);
            assert!(after > before, "CyclonAcked accuracy should improve ({before} → {after})");
        }

        #[test]
        fn plain_cyclon_stays_flat() {
            let params = Params::smoke().with_messages(30);
            let (_, before, after) = recovery(&params, Cyclon, 0.5);
            // No failure detector, no cycle: accuracy cannot improve.
            assert!(
                (after - before).abs() < 1e-9,
                "plain Cyclon accuracy moved: {before} → {after}"
            );
        }

        #[test]
        fn messages_to_reach_and_plateau_edge_cases() {
            let series = [0.2, 0.5, 0.9, 0.95];
            assert_eq!(messages_to_reach(&series, 0.9), Some(2));
            assert_eq!(messages_to_reach(&series, 0.99), None);
            assert!((plateau(&series) - 0.95).abs() < 1e-12);
        }
    }
}

mod fig4 {
    mod tests {
        use super::super::*;
        use std::sync::OnceLock;

        /// The healing of `kind` after `failure`: one of three heal cells,
        /// run once for the three tests.
        fn healing_time(kind: ProtocolKind, failure: f64) -> &'static Healing {
            static RESULTS: OnceLock<Results> = OnceLock::new();
            let params = Params::smoke();
            let cell = |kind, f| Cell { heal: true, ..Cell::new(&params, kind).failing(f) };
            let results = RESULTS.get_or_init(|| {
                let cells = [cell(HyParView, 0.6), cell(Cyclon, 0.6), cell(HyParView, 0.2)];
                measure(&params, Slice::Fig4, &cells)
            });
            results.first(&cell(kind, failure)).healing.as_ref().expect("a heal cell heals")
        }

        #[test]
        fn hyparview_heals_within_a_few_cycles() {
            let result = healing_time(HyParView, 0.6);
            assert!(result.baseline > 0.99, "baseline {}", result.baseline);
            let cycles = result.cycles(1.0).filter(|&c| c <= 20);
            let cycles = cycles.expect("HyParView must heal within 20 cycles");
            assert!(cycles <= 4, "HyParView took {cycles} cycles (series {:?})", result.probes);
        }

        #[test]
        fn cyclon_heals_slower_than_hyparview() {
            let within_40 = |h: &Healing| h.cycles(1.0).filter(|&c| c <= 40);
            let hpv_cycles = within_40(healing_time(HyParView, 0.6)).unwrap_or(usize::MAX);
            let cyc_cycles = within_40(healing_time(Cyclon, 0.6)).unwrap_or(41);
            assert!(
                hpv_cycles <= cyc_cycles,
                "HyParView ({hpv_cycles}) should heal no slower than Cyclon ({cyc_cycles})"
            );
        }

        #[test]
        fn probe_series_starts_at_cycle_zero() {
            assert!(!healing_time(HyParView, 0.2).probes.is_empty());
        }
    }
}

mod fig5 {
    mod tests {
        use super::super::*;

        #[test]
        fn hyparview_in_degree_concentrates_at_active_size() {
            let row = &overlays()[0].indegree;
            // Symmetric views: in-degree == out-degree == 5 for almost everyone.
            assert!(
                row.fraction_at(5) > 0.7,
                "expected most nodes at in-degree 5, histogram {:?}",
                row.histogram
            );
            assert!(row.summary.stddev < 1.5, "stddev {}", row.summary.stddev);
        }

        #[test]
        fn cyclon_in_degree_spreads_wider_than_hyparview() {
            let (hpv, cyclon) = (&overlays()[0].indegree.summary, &overlays()[1].indegree.summary);
            assert!(
                cyclon.stddev > hpv.stddev,
                "Cyclon stddev {} vs HyParView {}",
                cyclon.stddev,
                hpv.stddev
            );
        }
    }
}

mod table1 {
    mod tests {
        use super::super::*;

        #[test]
        fn hyparview_has_lowest_clustering_and_longest_paths() {
            let (hpv, cyclon) = (&overlays()[0], &overlays()[1]);
            assert!(
                hpv.clustering < cyclon.clustering,
                "HyParView clustering {} must undercut Cyclon {}",
                hpv.clustering,
                cyclon.clustering
            );
            assert!(
                hpv.avg_shortest_path > cyclon.avg_shortest_path,
                "HyParView path {} must exceed Cyclon {}",
                hpv.avg_shortest_path,
                cyclon.avg_shortest_path
            );
        }

        #[test]
        fn overlays_are_connected_after_stabilization() {
            for (kind, row) in [HyParView, Cyclon, Scamp].iter().zip(overlays()) {
                assert!(row.connected, "{kind} overlay disconnected");
            }
        }

        #[test]
        fn hyparview_view_size_matches_config() {
            let view = overlays()[0].mean_view;
            assert!((view - 5.0).abs() < 0.5, "HyParView mean view size {view}");
        }
    }
}

mod overhead {
    mod tests {
        use super::super::*;

        /// Mean transmissions and redundant transmissions per broadcast,
        /// and the mean reliability, of `kind` at each of `fanouts`.
        fn message_overhead(
            params: &Params,
            kind: ProtocolKind,
            fanouts: &[usize],
        ) -> Vec<[f64; 3]> {
            let cells: Vec<Cell> =
                fanouts.iter().map(|&fanout| Cell { fanout, ..Cell::new(params, kind) }).collect();
            let results = measure(params, Slice::Overhead, &cells);
            let point = |cell| {
                let summary = summary(results.runs(cell), Slice::Overhead.broadcasts(params));
                let n = summary.count().max(1) as f64;
                let (sent, redundant) = (summary.total_sent(), summary.total_redundant());
                [sent as f64 / n, redundant as f64 / n, summary.mean_reliability()]
            };
            cells.iter().map(point).collect()
        }

        #[test]
        fn higher_fanout_costs_more_and_is_mostly_redundant() {
            let params = Params::smoke().with_messages(20);
            let points = message_overhead(&params, Cyclon, &[4, 6]);
            let ([f4_sent, f4_redundant, _], [f6_sent, f6_redundant, _]) = (points[0], points[1]);
            assert!(
                f6_sent > f4_sent * 1.2,
                "fanout 6 ({f6_sent}) must send well over fanout 4 ({f4_sent})"
            );
            // The extra transmissions are overwhelmingly redundant (§3.1).
            let extra_sent = f6_sent - f4_sent;
            let extra_redundant = f6_redundant - f4_redundant;
            assert!(
                extra_redundant / extra_sent > 0.8,
                "extra traffic should be mostly redundant ({extra_redundant}/{extra_sent})"
            );
        }

        #[test]
        fn hyparview_fanout4_flood_cost_is_bounded() {
            let params = Params::smoke().with_messages(20);
            let [sent, _, reliability] = message_overhead(&params, HyParView, &[4])[0];
            // Flooding a symmetric degree-5 overlay: every node forwards to its
            // 4 non-sender neighbors, so the cost is ~(d-1)·n = 4n transmissions.
            assert!(sent < 4.5 * params.n as f64, "{sent}");
            assert!(reliability > 0.999);
        }
    }
}

mod ablations {
    mod tests {
        use super::super::*;
        use hyparview_core::Config;

        /// HyParView running `config` after crashing `failure` of the nodes.
        fn cell(params: &Params, config: Config, failure: f64) -> Cell {
            Cell::hyparview(params, config).failing(failure)
        }

        #[test]
        fn tiny_passive_views_hurt_resilience() {
            let params = Params::smoke().with_messages(30);
            let passive = |size| cell(&params, Config::default().with_passive_capacity(size), 0.8);
            let points = reliability(&params, Slice::Ablations, &[passive(1), passive(30)]);
            assert!(
                points[1] >= points[0],
                "passive=30 ({}) should not be worse than passive=1 ({})",
                points[1],
                points[0]
            );
        }

        #[test]
        fn flood_beats_random_fanout_under_failures() {
            let params = Params::smoke().with_messages(30);
            let flood = cell(&params, Config::default(), 0.5);
            let random = Cell { random_fanout: true, ..flood.clone() };
            let points = reliability(&params, Slice::Ablations, &[flood, random]);
            assert!(
                points[0] >= points[1] - 0.02,
                "flood ({}) should not lose to random fanout ({})",
                points[0],
                points[1]
            );
        }

        #[test]
        fn walk_sweep_produces_a_point_per_config() {
            let params = Params::smoke().with_messages(10);
            let walk = |a, p| cell(&params, Config::default().with_arwl(a).with_prwl(p), 0.3);
            let points = reliability(&params, Slice::Ablations, &[walk(6, 3), walk(2, 1)]);
            assert_eq!(points.len(), 2);
            for p in points {
                assert!(p > 0.0);
            }
        }
    }
}
