//! Active-view symmetry (§4.1) across the disturbance matrix: one HyParView
//! overlay per case, driven through crashes, churn, frame loss, a partition
//! and both attacker models, with the overlay defenses off and on, under
//! the flood and under Plumtree. Once the simulator is quiescent,
//! `hyparview_graph::one_sided_links` must find no one-sided link among the
//! live nodes.
//!
//! One case has a known exception. Under eclipse with the defenses on, a
//! colluder that re-joins through a victim puts the victim in its active
//! view before the victim answers (`HyParView::join` is optimistic, §4.2);
//! the victim's admission damping then drops the `JOIN` without a reply,
//! so the colluder keeps a phantom neighbour. That case allows exactly
//! colluder → victim links and prints how many it saw.

use hyparview_core::{Config, SimId};
use hyparview_graph::{one_sided_links, Overlay};
use hyparview_sim::protocols::{build_hyparview, HyParViewSim};
use hyparview_sim::{
    run_churn, AttackPlan, BroadcastMode, ChurnEpoch, ChurnPlan, FaultPlan, Scenario,
};

const N: usize = 200;
const SEED: u64 = 1;
/// Membership cycles between the build and the disturbance.
const WARMUP: usize = 15;

fn scenario(mode: BroadcastMode) -> Scenario {
    Scenario::new(N, SEED).with_broadcast_mode(mode)
}

/// The overlay built for `scenario` after the warm-up cycles.
fn warmed(scenario: &Scenario, config: Config) -> HyParViewSim {
    let mut sim = build_hyparview(scenario, config);
    sim.run_cycles(WARMUP);
    sim
}

fn broadcasts(sim: &mut HyParViewSim, count: usize) {
    for _ in 0..count {
        sim.broadcast_random();
    }
}

/// The one-sided active-view links among live nodes of a quiescent `sim`.
fn one_sided(case: &str, sim: &HyParViewSim) -> Vec<(usize, usize)> {
    assert!(sim.is_quiescent(), "{case}: events still pending");
    let views = sim.out_views().into_iter();
    let views = views.map(|v| v.map(|ids| ids.into_iter().map(SimId::index).collect()));
    one_sided_links(&Overlay::new(views.collect()))
}

fn assert_symmetric(case: &str, sim: &HyParViewSim) {
    let links = one_sided(case, sim);
    assert!(links.is_empty(), "{case}: {} one-sided links {links:?}", links.len());
}

/// The defenses off (the paper's protocol) and on.
fn configs() -> [(&'static str, Config); 2] {
    [("open", Config::default()), ("hardened", Config::hardened())]
}

#[test]
fn stable_and_crashed_overlays_stay_symmetric() {
    for mode in [BroadcastMode::Flood, BroadcastMode::Plumtree] {
        let mut sim = warmed(&scenario(mode), Config::default());
        broadcasts(&mut sim, 5);
        assert_symmetric(&format!("stable, {mode:?}"), &sim);
        sim.fail_fraction(0.5);
        broadcasts(&mut sim, 10);
        assert_symmetric(&format!("50% crash, {mode:?}"), &sim);
    }
}

#[test]
fn churn_with_revivals_keeps_links_symmetric() {
    let epoch = ChurnEpoch { crash_fraction: 0.1, joins: 4, revivals: 8, cycles: 2, probes: 2 };
    let plan = ChurnPlan::new().epoch(epoch.clone()).epoch(epoch.clone()).epoch(epoch);
    for (defense, config) in configs() {
        let mut sim = warmed(&scenario(BroadcastMode::Plumtree), config);
        run_churn(&mut sim, &plan, SEED);
        assert_symmetric(&format!("churn, {defense}"), &sim);
    }
}

#[test]
fn loss_and_duplication_leave_links_symmetric() {
    let faults = FaultPlan::default().with_loss(0.1).with_duplication(0.05);
    let mut sim = warmed(&scenario(BroadcastMode::Plumtree).with_faults(faults), Config::default());
    broadcasts(&mut sim, 10);
    sim.run_cycles(5);
    assert_symmetric("10% loss, 5% duplication", &sim);
}

#[test]
fn a_healed_partition_leaves_links_symmetric() {
    let mut sim = warmed(&scenario(BroadcastMode::Flood), Config::default());
    let (left, right): (Vec<SimId>, Vec<SimId>) =
        (0..N).map(SimId::new).partition(|id| id.index() < N / 2);
    sim.partition_network(&[left, right]);
    sim.run_cycles(5);
    broadcasts(&mut sim, 5);
    sim.heal_partitions();
    sim.run_cycles(10);
    broadcasts(&mut sim, 5);
    assert_symmetric("partition healed", &sim);
}

#[test]
fn attacks_leave_links_symmetric_but_for_known_eclipse_phantoms() {
    let plans =
        [("eclipse", AttackPlan::eclipse(0.2)), ("infiltration", AttackPlan::infiltration(0.2))];
    for (model, plan) in plans {
        let colluders = plan.colluder_indices(N);
        let victims = plan.victim_indices(N);
        for (defense, config) in configs() {
            let case = format!("{model} at 20%, {defense}");
            let scenario = scenario(BroadcastMode::Flood).with_attack(plan.clone());
            let mut sim = warmed(&scenario, config);
            broadcasts(&mut sim, 5);
            let links = one_sided(&case, &sim);
            if model == "eclipse" && defense == "hardened" {
                // Only the known phantom links: a colluder holding a victim.
                let phantom =
                    |(u, v): &(usize, usize)| colluders.contains(u) && victims.contains(v);
                assert!(links.iter().all(phantom), "{case}: unexpected one-sided links {links:?}");
                println!("{case}: {} colluder -> victim phantom links", links.len());
            } else {
                assert!(links.is_empty(), "{case}: {} one-sided links {links:?}", links.len());
            }
        }
    }
}
