//! Cross-crate integration tests: protocol cores + gossip + simulator,
//! exercising the paper's headline claims end to end at small scale.

use hyparview_core::Config;
use hyparview_sim::protocols::ProtocolKind;
use hyparview_sim::{AnySim, Scenario};

const N: usize = 300;

fn build(kind: ProtocolKind, seed: u64) -> AnySim {
    let scenario = Scenario::new(N, seed);
    let mut sim = AnySim::build(kind, &scenario, Config::paper());
    sim.run_cycles(15);
    sim
}

#[test]
fn every_protocol_forms_a_connected_overlay() {
    for kind in ProtocolKind::ALL {
        let sim = build(kind, 11);
        let overlay = hyparview_graph::Overlay::new(sim.out_views());
        let conn = hyparview_graph::connectivity(&overlay);
        assert!(
            conn.is_connected(),
            "{kind}: {} components, largest {}",
            conn.components,
            conn.largest_component
        );
    }
}

#[test]
fn hyparview_broadcast_is_atomic_when_stable() {
    let mut sim = build(ProtocolKind::HyParView, 12);
    for _ in 0..20 {
        let report = sim.broadcast_random();
        assert!(report.is_atomic(), "{}/{} delivered", report.delivered, report.alive);
    }
}

#[test]
fn stable_reliability_ordering_matches_paper() {
    // On a stable overlay with fanout 4: HyParView = 100% (flood);
    // Cyclon/Scamp slightly below (random target selection misses nodes).
    let mut results = Vec::new();
    for kind in ProtocolKind::ALL {
        let mut sim = build(kind, 13);
        let mut total = 0.0;
        for _ in 0..30 {
            total += sim.broadcast_random().reliability();
        }
        results.push((kind, total / 30.0));
    }
    let hpv = results.iter().find(|(k, _)| *k == ProtocolKind::HyParView).unwrap().1;
    for (kind, r) in &results {
        assert!(hpv >= *r - 1e-9, "HyParView ({hpv}) must lead, {kind} got {r}");
        assert!(*r > 0.80, "{kind} stable reliability too low: {r}");
    }
}

#[test]
fn failure_resilience_ordering_matches_paper_at_70_percent() {
    // After 70% failures: HyParView > CyclonAcked > Cyclon (Fig 2).
    let reliability = |kind: ProtocolKind| -> f64 {
        let mut sim = build(kind, 14);
        sim.fail_fraction(0.7);
        let mut total = 0.0;
        for _ in 0..40 {
            total += sim.broadcast_random().reliability();
        }
        total / 40.0
    };
    let hpv = reliability(ProtocolKind::HyParView);
    let acked = reliability(ProtocolKind::CyclonAcked);
    let cyclon = reliability(ProtocolKind::Cyclon);
    assert!(hpv > 0.9, "HyParView at 70% failures: {hpv}");
    assert!(hpv > acked - 1e-9, "HyParView {hpv} vs CyclonAcked {acked}");
    assert!(acked > cyclon, "CyclonAcked {acked} vs Cyclon {cyclon}");
}

#[test]
fn hyparview_survives_90_percent_failures() {
    let mut sim = build(ProtocolKind::HyParView, 15);
    sim.fail_fraction(0.9);
    // Skip the first probes (repairs race the first few broadcasts).
    for _ in 0..5 {
        sim.broadcast_random();
    }
    let mut total = 0.0;
    for _ in 0..20 {
        total += sim.broadcast_random().reliability();
    }
    let mean = total / 20.0;
    assert!(mean > 0.85, "post-repair reliability at 90% failures: {mean}");
}

#[test]
fn detecting_protocols_improve_accuracy_during_broadcasts() {
    for kind in [ProtocolKind::HyParView, ProtocolKind::CyclonAcked] {
        let mut sim = build(kind, 16);
        sim.fail_fraction(0.5);
        let before = sim.accuracy();
        for _ in 0..40 {
            sim.broadcast_random();
        }
        let after = sim.accuracy();
        assert!(after > before, "{kind}: accuracy {before} → {after}");
    }
}

#[test]
fn non_detecting_protocols_keep_stale_views() {
    for kind in [ProtocolKind::Cyclon, ProtocolKind::Scamp] {
        let mut sim = build(kind, 17);
        sim.fail_fraction(0.5);
        let before = sim.accuracy();
        for _ in 0..20 {
            sim.broadcast_random();
        }
        let after = sim.accuracy();
        assert!(
            (after - before).abs() < 1e-9,
            "{kind}: accuracy should be frozen between cycles ({before} → {after})"
        );
    }
}

#[test]
fn cycles_heal_cyclon_views() {
    let mut sim = build(ProtocolKind::Cyclon, 18);
    sim.fail_fraction(0.5);
    let before = sim.accuracy();
    // Cyclon heals slowly — one age-based eviction per node per cycle, while
    // stale entries keep circulating (that is Figure 4's point).
    sim.run_cycles(25);
    let after = sim.accuracy();
    assert!(after > before + 0.1, "Cyclon shuffles must age out dead peers ({before} → {after})");
}

#[test]
fn whole_experiment_is_deterministic() {
    let run = |seed: u64| -> Vec<u64> {
        let mut sim = build(ProtocolKind::HyParView, seed);
        sim.fail_fraction(0.4);
        (0..10).map(|_| sim.broadcast_random().delivered as u64).collect()
    };
    assert_eq!(run(19), run(19));
}
