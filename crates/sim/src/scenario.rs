//! Scenario construction following the paper's experimental procedure
//! (§5): "the overlay was created by having nodes join the network one by
//! one, without running any membership rounds in between. Cyclon was
//! initiated by having a single node serve as contact point for all join
//! requests. Scamp was initiated by using a random node already in the
//! overlay as the contact point. HyParView [...] used the same procedure as
//! Cyclon."

use crate::sim::{Sim, SimConfig};
use hyparview_baselines::{Cyclon, CyclonAcked, CyclonConfig, Scamp, ScampConfig};
use hyparview_core::{Config, SimId};
use hyparview_gossip::{HyParViewMembership, Membership};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How joining nodes pick their contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContactPolicy {
    /// Everyone joins through node 0 (Cyclon/HyParView initialisation).
    #[default]
    FirstNode,
    /// Each node joins through a uniformly random already-joined node
    /// (Scamp initialisation).
    RandomExisting,
}

/// A reproducible experiment scenario.
///
/// # Examples
///
/// ```
/// use hyparview_sim::{Scenario, protocols};
///
/// let scenario = Scenario::new(100, 42);
/// let mut sim = protocols::build_hyparview(&scenario, Default::default());
/// sim.run_cycles(scenario.stabilization_cycles);
/// assert_eq!(sim.alive_count(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Number of nodes (paper: 10,000).
    pub n: usize,
    /// Master seed: every random choice in the run derives from it.
    pub seed: u64,
    /// Simulator configuration (fanout, latency).
    pub sim_config: SimConfig,
    /// Contact selection policy for joins.
    pub contact: ContactPolicy,
    /// Membership cycles to run before measuring (paper: 50).
    pub stabilization_cycles: usize,
}

impl Scenario {
    /// Creates a scenario with the paper's defaults (fanout 4, 50
    /// stabilization cycles, single contact node).
    pub fn new(n: usize, seed: u64) -> Self {
        Scenario {
            n,
            seed,
            sim_config: SimConfig::default(),
            contact: ContactPolicy::FirstNode,
            stabilization_cycles: 50,
        }
    }

    /// Sets the gossip fanout.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.sim_config.fanout = fanout;
        self
    }

    /// Sets the latency model (distribution + per-message/per-link
    /// assignment) messages are scheduled under.
    pub fn with_latency(mut self, latency: crate::sim::Latency) -> Self {
        self.sim_config.latency = latency;
        self
    }

    /// Selects the broadcast dissemination mode (flood or Plumtree).
    pub fn with_broadcast_mode(mut self, mode: hyparview_plumtree::BroadcastMode) -> Self {
        self.sim_config.broadcast_mode = mode;
        self
    }

    /// Sets the Plumtree tuning (timeouts, tree-optimization threshold,
    /// lazy-flush interval) used in Plumtree mode.
    pub fn with_plumtree(mut self, config: hyparview_plumtree::PlumtreeConfig) -> Self {
        self.sim_config.plumtree = config;
        self
    }

    /// Sets the network fault plan (per-link loss, duplication, timed
    /// partition/heal ops) — deterministic per scenario seed.
    pub fn with_faults(mut self, faults: crate::fault::FaultPlan) -> Self {
        self.sim_config.faults = faults;
        self
    }

    /// Sets the adversarial membership plan (colluding fraction, attacker
    /// model) — deterministic per scenario seed. Honored by
    /// [`protocols::build_hyparview`], which wires the highest-indexed
    /// nodes as colluders; an inert plan changes nothing.
    pub fn with_attack(mut self, attack: crate::attack::AttackPlan) -> Self {
        self.sim_config.attack = attack;
        self
    }

    /// Sets the contact policy.
    pub fn with_contact(mut self, contact: ContactPolicy) -> Self {
        self.contact = contact;
        self
    }

    /// Sets the number of stabilization cycles.
    pub fn with_stabilization_cycles(mut self, cycles: usize) -> Self {
        self.stabilization_cycles = cycles;
        self
    }

    /// Builds the overlay with a custom protocol factory: adds `n` nodes
    /// and joins them one by one per the contact policy. Stabilization
    /// cycles are *not* run — call [`Sim::run_cycles`] yourself so
    /// experiments can measure around them.
    pub fn build_with<M, F>(&self, factory: F) -> Sim<M>
    where
        M: Membership<SimId>,
        F: FnMut(SimId, u64) -> M + 'static,
    {
        let mut sim = Sim::new(self.sim_config.clone(), self.seed, factory);
        let mut contact_rng = StdRng::seed_from_u64(self.seed ^ 0xC0117AC7);
        for i in 0..self.n {
            let id = sim.add_node();
            if i == 0 {
                continue;
            }
            let contact = match self.contact {
                ContactPolicy::FirstNode => SimId::new(0),
                ContactPolicy::RandomExisting => SimId::new(contact_rng.gen_range(0..i)),
            };
            sim.join(id, contact);
        }
        sim
    }
}

/// Ready-made builders for the four protocols of the evaluation.
pub mod protocols {
    use super::*;

    /// Simulation running HyParView on every node.
    pub type HyParViewSim = Sim<HyParViewMembership<SimId>>;
    /// Simulation running Cyclon on every node.
    pub type CyclonSim = Sim<Cyclon<SimId>>;
    /// Simulation running CyclonAcked on every node.
    pub type CyclonAckedSim = Sim<CyclonAcked<SimId>>;
    /// Simulation running Scamp on every node.
    pub type ScampSim = Sim<Scamp<SimId>>;

    /// Builds a HyParView overlay (single contact node, like Cyclon).
    ///
    /// Honors the scenario's [`AttackPlan`](crate::AttackPlan): the
    /// highest-indexed nodes (the last joiners) become colluders running
    /// the plan's attacker model, drawing from a dedicated stream derived
    /// from the scenario seed. With an inert plan the colluder set is
    /// empty and the build is byte-identical to one without attack
    /// support.
    pub fn build_hyparview(scenario: &Scenario, config: Config) -> HyParViewSim {
        use hyparview_gossip::AttackerRole;
        use std::sync::Arc;

        let attack = scenario.sim_config.attack.clone();
        let n = scenario.n;
        let attack_seed = scenario.seed ^ 0xA77A_C4ED_5EED_C0DE;
        let colluders: Arc<Vec<SimId>> =
            Arc::new(attack.colluder_indices(n).into_iter().map(SimId::new).collect());
        let victims: Arc<Vec<SimId>> =
            Arc::new(attack.victim_indices(n).into_iter().map(SimId::new).collect());
        scenario.build_with(move |id, seed| {
            let node = HyParViewMembership::new(id, config.clone(), seed)
                .expect("HyParView config must be valid");
            if colluders.contains(&id) {
                // Per-colluder stream: colluders must not act in lockstep.
                let role_seed =
                    attack_seed ^ (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                node.with_attacker(AttackerRole::new(
                    attack.model,
                    Arc::clone(&colluders),
                    Arc::clone(&victims),
                    role_seed,
                ))
            } else {
                node
            }
        })
    }

    /// Builds a Cyclon overlay (single contact node).
    pub fn build_cyclon(scenario: &Scenario, config: CyclonConfig) -> CyclonSim {
        scenario.build_with(move |id, seed| Cyclon::new(id, config.clone(), seed))
    }

    /// Builds a CyclonAcked overlay (single contact node).
    pub fn build_cyclon_acked(scenario: &Scenario, config: CyclonConfig) -> CyclonAckedSim {
        scenario.build_with(move |id, seed| CyclonAcked::new(id, config.clone(), seed))
    }

    /// Builds a Scamp overlay. The paper initialises Scamp with random
    /// contacts; this builder forces [`ContactPolicy::RandomExisting`].
    pub fn build_scamp(scenario: &Scenario, config: ScampConfig) -> ScampSim {
        let scenario = scenario.clone().with_contact(ContactPolicy::RandomExisting);
        scenario.build_with(move |id, seed| Scamp::new(id, config.clone(), seed))
    }

    /// The four membership protocols of the paper's evaluation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ProtocolKind {
        /// The paper's contribution.
        HyParView,
        /// Cyclic baseline.
        Cyclon,
        /// Cyclon + dissemination-time failure detection.
        CyclonAcked,
        /// Reactive baseline.
        Scamp,
    }

    impl ProtocolKind {
        /// All protocols, in the order the paper's figures list them.
        pub const ALL: [ProtocolKind; 4] = [
            ProtocolKind::HyParView,
            ProtocolKind::CyclonAcked,
            ProtocolKind::Cyclon,
            ProtocolKind::Scamp,
        ];

        /// Display label.
        pub fn label(self) -> &'static str {
            match self {
                ProtocolKind::HyParView => "HyParView",
                ProtocolKind::Cyclon => "Cyclon",
                ProtocolKind::CyclonAcked => "CyclonAcked",
                ProtocolKind::Scamp => "Scamp",
            }
        }
    }

    impl std::fmt::Display for ProtocolKind {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(self.label())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::protocols::*;
    use super::*;
    use hyparview_graph::Overlay;

    #[test]
    fn hyparview_scenario_connects_everyone() {
        let scenario = Scenario::new(60, 9);
        let sim = build_hyparview(&scenario, Config::default());
        assert_eq!(sim.alive_count(), 60);
        for id in sim.alive_ids() {
            assert!(
                !sim.node(id).out_view().is_empty(),
                "node {id:?} has an empty active view after joining"
            );
        }
    }

    #[test]
    fn hyparview_active_views_are_symmetric_after_join() {
        let scenario = Scenario::new(50, 10);
        let sim = build_hyparview(&scenario, Config::default());
        let views = sim.out_views().into_iter();
        let views = views.map(|v| v.map(|ids| ids.into_iter().map(SimId::index).collect()));
        let one_sided = hyparview_graph::one_sided_links(&Overlay::new(views.collect()));
        assert!(one_sided.is_empty(), "one-sided active-view links: {one_sided:?}");
    }

    #[test]
    fn cyclon_scenario_fills_views() {
        let scenario = Scenario::new(80, 11);
        let mut sim = build_cyclon(&scenario, CyclonConfig::default().with_view_capacity(8));
        sim.run_cycles(5);
        let mean_view: f64 =
            sim.alive_ids().iter().map(|id| sim.node(*id).out_view().len() as f64).sum::<f64>()
                / 80.0;
        assert!(mean_view > 4.0, "mean Cyclon view size too small: {mean_view}");
    }

    #[test]
    fn scamp_scenario_grows_views_logarithmically() {
        let scenario = Scenario::new(200, 12);
        let sim = build_scamp(&scenario, ScampConfig::default());
        let sizes: Vec<usize> =
            sim.alive_ids().iter().map(|id| sim.node(*id).out_view().len()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // (c + 1) * ln(200) ≈ 5 * 5.3 ≈ 26; accept a broad band.
        assert!(mean > 5.0 && mean < 80.0, "Scamp mean view size {mean}");
    }

    #[test]
    fn cyclon_acked_builds() {
        let scenario = Scenario::new(40, 13);
        let sim = build_cyclon_acked(&scenario, CyclonConfig::default().with_view_capacity(8));
        assert_eq!(sim.alive_count(), 40);
    }

    #[test]
    fn protocol_kind_labels() {
        assert_eq!(ProtocolKind::ALL.len(), 4);
        assert_eq!(ProtocolKind::HyParView.to_string(), "HyParView");
    }

    #[test]
    fn scenario_builders_chain() {
        use crate::attack::AttackPlan;
        use crate::fault::FaultPlan;
        use crate::sim::Latency;
        let s = Scenario::new(10, 1)
            .with_fanout(5)
            .with_latency(Latency::uniform(1, 4).per_link())
            .with_contact(ContactPolicy::RandomExisting)
            .with_stabilization_cycles(7)
            .with_faults(FaultPlan::default().with_loss(0.1))
            .with_attack(AttackPlan::eclipse(0.2));
        assert_eq!(s.sim_config.fanout, 5);
        assert_eq!(s.sim_config.latency, Latency::uniform(1, 4).per_link());
        assert_eq!(s.contact, ContactPolicy::RandomExisting);
        assert_eq!(s.stabilization_cycles, 7);
        assert_eq!(s.sim_config.faults.loss, 0.1);
        assert!(s.sim_config.attack.is_active());
        assert_eq!(s.sim_config.attack.model, hyparview_gossip::AttackerModel::Eclipse);
    }

    // ------------------------------------------------------------------
    // Adversarial membership
    // ------------------------------------------------------------------

    fn colluder_share(sim: &HyParViewSim, node: SimId, colluders: &[SimId]) -> f64 {
        let view = sim.node(node).out_view();
        if view.is_empty() {
            return 0.0;
        }
        view.iter().filter(|p| colluders.contains(p)).count() as f64 / view.len() as f64
    }

    #[test]
    fn inert_attack_plan_is_byte_identical_to_no_plan() {
        let scenario = Scenario::new(40, 77);
        assert!(!scenario.sim_config.attack.is_active());
        // The pre-attack baseline: a plain factory without attacker wiring.
        let mut plain = scenario
            .build_with(|id, seed| HyParViewMembership::new(id, Config::default(), seed).unwrap());
        let mut wired = build_hyparview(&scenario, Config::default());
        plain.run_cycles(8);
        wired.run_cycles(8);
        for _ in 0..5 {
            assert_eq!(plain.broadcast_random(), wired.broadcast_random());
        }
        assert_eq!(plain.stats(), wired.stats());
        assert_eq!(plain.time(), wired.time());
        assert_eq!(plain.out_views(), wired.out_views());
        for name in [
            hyparview_obsv::names::ATTACK_JOINS_DAMPED,
            hyparview_obsv::names::ATTACK_NEIGHBOR_FLOODS,
            hyparview_obsv::names::ATTACK_REJOINS,
        ] {
            assert_eq!(wired.metrics().value_by_name(name), Some(0), "{name} must stay zero");
        }
    }

    #[test]
    fn eclipse_attack_captures_undefended_victims() {
        let plan = crate::attack::AttackPlan::eclipse(0.2);
        let scenario = Scenario::new(50, 21).with_attack(plan.clone());
        let colluders: Vec<SimId> = plan.colluder_indices(50).into_iter().map(SimId::new).collect();
        let mut sim = build_hyparview(&scenario, Config::default());
        sim.run_cycles(10);
        for victim in plan.victim_indices(50) {
            let share = colluder_share(&sim, SimId::new(victim), &colluders);
            assert!(
                share >= 0.8,
                "victim {victim} should be nearly eclipsed after 10 undefended cycles, got {share}"
            );
        }
        let floods =
            sim.metrics().value_by_name(hyparview_obsv::names::ATTACK_NEIGHBOR_FLOODS).unwrap_or(0);
        assert!(floods > 0, "flood events must reach the attack.* counters");
    }

    #[test]
    fn hardened_defenses_blunt_the_eclipse() {
        let plan = crate::attack::AttackPlan::eclipse(0.2);
        let scenario = Scenario::new(50, 21).with_attack(plan.clone());
        let colluders: Vec<SimId> = plan.colluder_indices(50).into_iter().map(SimId::new).collect();
        let mut open = build_hyparview(&scenario, Config::default());
        let mut hardened = build_hyparview(&scenario, Config::hardened());
        open.run_cycles(10);
        hardened.run_cycles(10);
        let victims = plan.victim_indices(50);
        let mean = |sim: &HyParViewSim| {
            victims.iter().map(|&v| colluder_share(sim, SimId::new(v), &colluders)).sum::<f64>()
                / victims.len() as f64
        };
        let (open_share, hard_share) = (mean(&open), mean(&hardened));
        assert!(
            hard_share < open_share,
            "defenses must reduce capture: open {open_share} vs hardened {hard_share}"
        );
        let damped = hardened
            .metrics()
            .value_by_name(hyparview_obsv::names::ATTACK_NEIGHBORS_DAMPED)
            .unwrap_or(0);
        assert!(damped > 0, "hardened run must damp some flood requests");
    }
}
