//! Deterministic adversarial-membership plans.
//!
//! An [`AttackPlan`] declares that a fraction of the scenario's nodes are
//! colluders running one of the attacker models of
//! [`hyparview_gossip::adversary`]. It mirrors the
//! [`FaultPlan`](crate::FaultPlan) design:
//!
//! * the plan is pure data on [`SimConfig`](crate::SimConfig) /
//!   [`Scenario`](crate::Scenario);
//! * every attacker draw comes from a dedicated SplitMix64 stream derived
//!   from the scenario seed, never from the simulation RNG — so crash sets,
//!   shuffle targets and latency draws are identical with and without an
//!   attack;
//! * the default plan is inert ([`AttackPlan::is_active`] is `false`) and a
//!   run under it is byte-identical to a run with no plan at all.
//!
//! Colluders are the *highest-indexed* nodes: under the scenario build
//! procedure (nodes join one by one, §5) they join last, modelling an
//! adversary that infiltrates an already-formed overlay.
//!
//! ```
//! use hyparview_sim::AttackPlan;
//!
//! let inert = AttackPlan::default();
//! assert!(!inert.is_active());
//!
//! // 20% of 100 nodes collude to eclipse 3 victims.
//! let plan = AttackPlan::eclipse(0.2, 3).with_rejoin(0.25);
//! assert!(plan.is_active());
//! assert_eq!(plan.colluder_count(100), 20);
//! assert_eq!(plan.colluder_indices(100), (80..100).collect::<Vec<_>>());
//! assert_eq!(plan.victim_indices(100), vec![1, 2, 3]);
//! ```

use hyparview_gossip::AttackerModel;

/// Declarative adversarial-membership plan. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPlan {
    /// The attacker model every colluder runs.
    pub model: AttackerModel,
    /// Fraction of the scenario's nodes that collude, in `[0, 1]`.
    /// `0.0` (the default) makes the whole plan inert.
    pub fraction: f64,
    /// Number of eclipse victims ([`AttackerModel::Eclipse`] only):
    /// honest nodes `1..=victims` are targeted. Infiltration ignores this —
    /// it targets the whole honest population.
    pub victims: usize,
    /// Per-colluder per-cycle churn probability: the chance of sending a
    /// fresh `Join` through a victim to re-roll earlier rejections.
    pub rejoin: f64,
}

impl Default for AttackPlan {
    fn default() -> Self {
        AttackPlan { model: AttackerModel::Infiltration, fraction: 0.0, victims: 3, rejoin: 0.2 }
    }
}

impl AttackPlan {
    /// An infiltration attack by the given colluding fraction.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `0.0..=1.0`.
    pub fn infiltration(fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "attacker fraction out of range: {fraction}");
        AttackPlan { model: AttackerModel::Infiltration, fraction, ..AttackPlan::default() }
    }

    /// An eclipse attack by the given colluding fraction against honest
    /// nodes `1..=victims`.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `0.0..=1.0` or `victims` is zero.
    pub fn eclipse(fraction: f64, victims: usize) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "attacker fraction out of range: {fraction}");
        assert!(victims > 0, "an eclipse attack needs at least one victim");
        AttackPlan { model: AttackerModel::Eclipse, fraction, victims, ..AttackPlan::default() }
    }

    /// Sets the per-cycle churn (re-`Join`) probability.
    ///
    /// # Panics
    ///
    /// Panics when `rejoin` is outside `0.0..=1.0`.
    pub fn with_rejoin(mut self, rejoin: f64) -> Self {
        assert!((0.0..=1.0).contains(&rejoin), "rejoin probability out of range: {rejoin}");
        self.rejoin = rejoin;
        self
    }

    /// Whether the plan does anything at all. An inactive plan costs
    /// nothing: no node is wired as an attacker and no draw is consumed.
    pub fn is_active(&self) -> bool {
        self.fraction > 0.0
    }

    /// Number of colluders in a scenario of `n` nodes: `n × fraction`
    /// rounded, clamped so at least one node stays honest. Zero when the
    /// plan is inert.
    pub fn colluder_count(&self, n: usize) -> usize {
        if !self.is_active() || n < 2 {
            return 0;
        }
        (((n as f64) * self.fraction).round() as usize).clamp(1, n - 1)
    }

    /// Whether node `index` colludes in a scenario of `n` nodes (colluders
    /// are the highest-indexed nodes — they join last).
    pub fn is_colluder(&self, index: usize, n: usize) -> bool {
        index < n && index >= n - self.colluder_count(n)
    }

    /// The colluding node indices, ascending.
    pub fn colluder_indices(&self, n: usize) -> Vec<usize> {
        (n - self.colluder_count(n)..n).collect()
    }

    /// The attacked node indices, ascending: honest nodes `1..=victims`
    /// for eclipse (node 0, everyone's join contact, is left out to keep
    /// the overlay-build procedure untouched), the entire honest population
    /// for infiltration. Empty when the plan is inert.
    pub fn victim_indices(&self, n: usize) -> Vec<usize> {
        if !self.is_active() {
            return Vec::new();
        }
        let honest = n - self.colluder_count(n);
        match self.model {
            AttackerModel::Eclipse => (1..honest).take(self.victims).collect(),
            AttackerModel::Infiltration => (0..honest).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = AttackPlan::default();
        assert!(!plan.is_active());
        assert_eq!(plan.colluder_count(1000), 0);
        assert!(plan.colluder_indices(1000).is_empty());
        assert!(plan.victim_indices(1000).is_empty());
        assert!(!plan.is_colluder(999, 1000));
    }

    #[test]
    fn colluders_are_the_last_joiners() {
        let plan = AttackPlan::infiltration(0.2);
        assert_eq!(plan.colluder_count(50), 10);
        assert_eq!(plan.colluder_indices(50), (40..50).collect::<Vec<_>>());
        assert!(plan.is_colluder(40, 50));
        assert!(!plan.is_colluder(39, 50));
        // Infiltration targets every honest node.
        assert_eq!(plan.victim_indices(50), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn eclipse_targets_early_honest_nodes() {
        let plan = AttackPlan::eclipse(0.25, 4);
        assert_eq!(plan.victim_indices(40), vec![1, 2, 3, 4]);
        // Victims never overlap colluders, even in tiny scenarios.
        let tiny = AttackPlan::eclipse(0.5, 10);
        let honest = 4 - tiny.colluder_count(4);
        for v in tiny.victim_indices(4) {
            assert!(v < honest);
        }
    }

    #[test]
    fn at_least_one_node_stays_honest() {
        let plan = AttackPlan::infiltration(1.0);
        assert_eq!(plan.colluder_count(10), 9);
        assert!(!plan.is_colluder(0, 10));
        assert_eq!(plan.colluder_count(1), 0, "singleton scenarios have no one to attack");
    }

    #[test]
    fn rounding_matches_fraction() {
        let plan = AttackPlan::infiltration(0.2);
        assert_eq!(plan.colluder_count(100), 20);
        assert_eq!(plan.colluder_count(25), 5);
        assert_eq!(plan.colluder_count(7), 1);
    }

    #[test]
    #[should_panic(expected = "attacker fraction out of range")]
    fn fraction_out_of_range_panics() {
        let _ = AttackPlan::infiltration(1.1);
    }

    #[test]
    #[should_panic(expected = "at least one victim")]
    fn zero_victims_panics() {
        let _ = AttackPlan::eclipse(0.2, 0);
    }
}
