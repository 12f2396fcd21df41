//! Integration tests for the §2.3 partial-view properties on stabilized
//! overlays: symmetry, degree distribution, clustering, view bounds.

use hyparview_core::{Config, SimId};
use hyparview_graph::{
    clustering_coefficient, degree_summary, in_degrees, one_sided_links, shortest_path_stats,
    Overlay,
};
use hyparview_sim::protocols::{build_hyparview, ProtocolKind};
use hyparview_sim::{AnySim, Scenario};

const N: usize = 400;

fn overlay_for(kind: ProtocolKind) -> Overlay {
    let scenario = Scenario::new(N, 23);
    let mut sim = AnySim::build(kind, &scenario, Config::paper());
    sim.run_cycles(15);
    Overlay::new(sim.out_views())
}

#[test]
fn hyparview_views_stay_within_bounds_through_cycles() {
    let scenario = Scenario::new(N, 24);
    let mut sim = build_hyparview(&scenario, Config::default());
    sim.run_cycles(20);
    for id in sim.alive_ids() {
        let node = sim.node(id).protocol();
        node.check_invariants();
        assert!(!node.active_view().is_empty(), "{id:?} isolated after stabilization");
        assert!(
            node.passive_view().len() >= 10,
            "{id:?} passive view too small: {}",
            node.passive_view().len()
        );
    }
}

#[test]
fn hyparview_active_views_remain_symmetric_after_cycles() {
    let scenario = Scenario::new(N, 25);
    let mut sim = AnySim::HyParView(build_hyparview(&scenario, Config::default()));
    sim.run_cycles(20);
    let one_sided = one_sided_links(&Overlay::new(sim.out_views()));
    assert!(one_sided.is_empty(), "one-sided active-view links: {one_sided:?}");
}

#[test]
fn hyparview_in_degree_is_tightly_concentrated() {
    let overlay = overlay_for(ProtocolKind::HyParView);
    let degrees: Vec<usize> =
        overlay.alive_nodes().into_iter().map(|v| in_degrees(&overlay)[v]).collect();
    let summary = degree_summary(&degrees);
    assert!((summary.mean - 5.0).abs() < 0.3, "mean in-degree {}", summary.mean);
    assert!(summary.stddev < 1.0, "stddev {}", summary.stddev);
}

#[test]
fn cyclon_in_degree_spreads() {
    let overlay = overlay_for(ProtocolKind::Cyclon);
    let degrees: Vec<usize> =
        overlay.alive_nodes().into_iter().map(|v| in_degrees(&overlay)[v]).collect();
    let summary = degree_summary(&degrees);
    assert!(summary.stddev > 1.5, "Cyclon in-degree stddev {}", summary.stddev);
}

#[test]
fn clustering_ordering_hyparview_lowest() {
    let hpv = clustering_coefficient(&overlay_for(ProtocolKind::HyParView));
    let cyclon = clustering_coefficient(&overlay_for(ProtocolKind::Cyclon));
    let scamp = clustering_coefficient(&overlay_for(ProtocolKind::Scamp));
    assert!(hpv < cyclon, "HyParView {hpv} vs Cyclon {cyclon}");
    assert!(hpv < scamp, "HyParView {hpv} vs Scamp {scamp}");
}

#[test]
fn hyparview_paths_longer_than_cyclon() {
    let hpv = shortest_path_stats(&overlay_for(ProtocolKind::HyParView), 50, 1).average;
    let cyclon = shortest_path_stats(&overlay_for(ProtocolKind::Cyclon), 50, 1).average;
    assert!(hpv > cyclon, "HyParView path {hpv} vs Cyclon {cyclon}");
}

#[test]
fn scamp_views_scale_logarithmically() {
    let overlay = overlay_for(ProtocolKind::Scamp);
    let mean = overlay.alive_nodes().iter().map(|v| overlay.out_degree(*v) as f64).sum::<f64>()
        / overlay.alive_count() as f64;
    // (c + 1) * ln(400) ≈ 5 × 6 ≈ 30; accept a wide band around it.
    assert!(mean > 8.0 && mean < 70.0, "Scamp mean view size {mean}");
}

#[test]
fn fanout_ablation_larger_views_shorter_paths() {
    let path_for = |active: usize| {
        let scenario = Scenario::new(N, 26);
        let config =
            Config::default().with_active_capacity(active).with_passive_capacity(active * 6);
        let mut sim = build_hyparview(&scenario, config);
        sim.run_cycles(10);
        {
            let views = sim
                .out_views()
                .into_iter()
                .map(|v| v.map(|ids| ids.into_iter().map(SimId::index).collect()))
                .collect();
            shortest_path_stats(&Overlay::new(views), 50, 2).average
        }
    };
    let small = path_for(4);
    let large = path_for(9);
    assert!(large < small, "active 9 paths ({large}) should be shorter than active 4 ({small})");
}
