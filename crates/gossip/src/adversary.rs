//! Adversarial membership roles.
//!
//! HyParView's evaluation (§5) only considers *random* crash failures. This
//! module models *coordinated* ones: a colluding fraction of nodes runs the
//! protocol dishonestly, trying to capture honest active views faster than
//! shuffles dilute them. Two attacker models are implemented, both layered
//! on top of [`HyParViewMembership`](crate::HyParViewMembership) so the
//! honest protocol logic is reused verbatim:
//!
//! * [`AttackerModel::Infiltration`] — colluders join aggressively, accept
//!   incoming `Neighbor` requests (up to an acceptance budget per cycle),
//!   and rewrite their `Shuffle`/`ShuffleReply` payloads to advertise only
//!   other colluders, poisoning passive views overlay-wide.
//! * [`AttackerModel::Eclipse`] — colluders focus on a small victim set,
//!   flooding high-priority `Neighbor` requests at every victim each cycle
//!   and churning (re-`Join`ing) to re-roll rejections until the victim's
//!   active view is 100% colluders.
//!
//! All attacker randomness comes from a dedicated SplitMix64 stream keyed by
//! `(seed, nonce)` — the same construction as the simulator's fault plan —
//! so an attack-free run never consumes a draw and stays byte-identical to a
//! run built without attacker support.

use hyparview_core::Identity;
use std::sync::Arc;

/// How a colluding node misbehaves. See the module docs for the two models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackerModel {
    /// Join aggressively and bias shuffle payloads towards colluders.
    Infiltration,
    /// Flood a victim set with high-priority `Neighbor` requests and churn
    /// to re-roll rejections.
    Eclipse,
}

/// The adversarial configuration attached to one colluding node.
///
/// Shared lists are behind [`Arc`] so cloning a role per node is cheap and
/// every colluder agrees on the conspiracy membership.
#[derive(Debug, Clone)]
pub struct AttackerRole<I> {
    /// Which attack this node runs.
    pub model: AttackerModel,
    /// Every colluding node id (including this node's own).
    pub colluders: Arc<Vec<I>>,
    /// The ids this node directs its attack at. For eclipse this is the
    /// victim set; for infiltration it is every honest node (re-join
    /// targets).
    pub victims: Arc<Vec<I>>,
    seed: u64,
    nonce: u64,
    upgrades: u32,
}

/// Per-cycle probability that a colluder churns: it sends a fresh `Join`
/// to a random victim to re-roll earlier rejections.
pub const ATTACKER_REJOIN: f64 = 0.2;

/// How many incoming `Neighbor` requests a colluder upgrades to
/// high-priority (unconditional admission) per cycle. Unbounded upgrades
/// would let an eviction cascade — colluder admits, evicts an honest
/// member, the evictee repairs onto another colluder, which admits and
/// evicts … — recirculate forever inside a single drain-to-quiescence
/// step of the cycle-based simulator; real networks bound the same loop
/// by link latency. The budget is generous — many active views' worth per
/// cycle, indistinguishable from "accept everything" at experiment scale —
/// but finite, so every drain terminates.
pub(crate) const UPGRADES_PER_CYCLE: u32 = 64;

impl<I: Identity> AttackerRole<I> {
    /// Creates an attacker role drawing from a dedicated stream keyed by
    /// `seed` (derive it per node so colluders don't act in lockstep).
    pub fn new(
        model: AttackerModel,
        colluders: Arc<Vec<I>>,
        victims: Arc<Vec<I>>,
        seed: u64,
    ) -> Self {
        AttackerRole { model, colluders, victims, seed, nonce: 0, upgrades: UPGRADES_PER_CYCLE }
    }

    /// Spends one acceptance-upgrade from this cycle's budget. Returns
    /// `false` once the budget is exhausted (the request is then handled
    /// honestly — a `Low` request against a full view gets rejected).
    pub(crate) fn take_upgrade(&mut self) -> bool {
        if self.upgrades == 0 {
            return false;
        }
        self.upgrades -= 1;
        true
    }

    /// Refills the acceptance-upgrade budget; called once per attacker
    /// cycle.
    pub(crate) fn refill_upgrades(&mut self) {
        self.upgrades = UPGRADES_PER_CYCLE;
    }

    /// Next raw draw from the attacker stream.
    fn draw(&mut self) -> u64 {
        self.nonce = self.nonce.wrapping_add(1);
        mix_attack(self.seed, self.nonce)
    }

    /// Bernoulli draw against [`ATTACKER_REJOIN`].
    pub(crate) fn churn_now(&mut self) -> bool {
        unit_draw(self.draw()) < ATTACKER_REJOIN
    }

    /// Uniform pick from `pool`, `None` when empty.
    pub(crate) fn pick(&mut self, pool: &[I]) -> Option<I> {
        if pool.is_empty() {
            None
        } else {
            let idx = (self.draw() % pool.len() as u64) as usize;
            Some(pool[idx])
        }
    }

    /// Uniform pick from the victim set.
    pub(crate) fn pick_victim(&mut self) -> Option<I> {
        let victims = Arc::clone(&self.victims);
        self.pick(&victims)
    }
}

/// SplitMix64-style mixer over `(seed, nonce)`. Local copy of the
/// simulator's fault mixer so this crate stays dependency-free; keep in sync
/// with `hyparview-sim`.
fn mix_attack(seed: u64, nonce: u64) -> u64 {
    let mut x = seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a mixed hash onto `[0, 1)` with 53 bits of precision.
fn unit_draw(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role(seed: u64) -> AttackerRole<u32> {
        AttackerRole::new(
            AttackerModel::Eclipse,
            Arc::new(vec![8, 9]),
            Arc::new(vec![1, 2, 3]),
            seed,
        )
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let mut a = role(42);
        let mut b = role(42);
        let seq_a: Vec<_> = (0..16).map(|_| a.draw()).collect();
        let seq_b: Vec<_> = (0..16).map(|_| b.draw()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = role(43);
        let seq_c: Vec<_> = (0..16).map(|_| c.draw()).collect();
        assert_ne!(seq_a, seq_c, "different seeds diverge");
    }

    #[test]
    fn churn_probability_is_respected_at_extremes() {
        // Each churn decision is one draw, taken against the rate: a draw
        // of 0 always churns and the largest draw never does.
        let mut r = role(7);
        (0..100).for_each(|_| {
            r.churn_now();
        });
        assert_eq!(r.nonce, 100, "one draw per decision");
        assert!(unit_draw(0) < ATTACKER_REJOIN);
        assert!(unit_draw(u64::MAX) >= ATTACKER_REJOIN);
    }

    #[test]
    fn churn_rate_tracks_probability() {
        let mut r = role(99);
        let hits = (0..4000).filter(|_| r.churn_now()).count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - ATTACKER_REJOIN).abs() < 0.03, "empirical rate {rate} far from 0.2");
    }

    #[test]
    fn picks_stay_in_pool() {
        let mut r = role(5);
        for _ in 0..64 {
            let v = r.pick_victim().unwrap();
            assert!((1..=3).contains(&v));
        }
        assert_eq!(r.pick(&[]), None);
    }

    #[test]
    fn upgrade_budget_exhausts_and_refills_per_cycle() {
        let mut r = role(11);
        let granted = (0..UPGRADES_PER_CYCLE + 3).filter(|_| r.take_upgrade()).count();
        assert_eq!(granted as u32, UPGRADES_PER_CYCLE, "budget bounds upgrades");
        assert!(!r.take_upgrade(), "exhausted until the next cycle");
        r.refill_upgrades();
        assert!(r.take_upgrade(), "cycle refills the budget");
        assert_eq!(r.nonce, 0, "upgrade accounting consumes no stream draws");
    }
}
