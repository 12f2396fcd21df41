//! [`Membership`] implementation for HyParView.
//!
//! Thin adapter: the sans-io [`HyParView`] already fills the caller's
//! [`Outbox`] and buffers [`MembershipEvent`]s, so each method is a direct
//! call, plus the optional attacker role. HyParView is the only protocol in
//! the evaluation whose gossip target selection is *deterministic*: it
//! floods its entire (symmetric) active view.

use crate::adversary::{AttackerModel, AttackerRole};
use crate::membership::{Membership, MembershipEvent, Outbox};
use hyparview_core::{Config, HyParView, Identity, Message, Priority};

/// HyParView wired up as a [`Membership`] protocol.
///
/// # Examples
///
/// ```
/// use hyparview_gossip::{HyParViewMembership, Membership, Outbox};
/// use hyparview_core::Config;
///
/// let mut node = HyParViewMembership::new(1u32, Config::default(), 7).unwrap();
/// let mut out = Outbox::new();
/// node.join(0, &mut out);
/// assert_eq!(out.len(), 1, "JOIN sent to the contact");
/// assert_eq!(node.out_view(), vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct HyParViewMembership<I> {
    inner: HyParView<I>,
    /// `None` = the paper's deterministic flood; `Some(rng)` = sample
    /// `fanout` random targets from the active view instead (the ablation
    /// §5.5 argues against).
    random_fanout: Option<rand::rngs::StdRng>,
    /// `Some` makes this node a colluder running the configured attack.
    attacker: Option<AttackerRole<I>>,
    /// Attack events buffered for [`Membership::take_events`], which lists
    /// them after the protocol's own.
    events: Vec<MembershipEvent<I>>,
}

impl<I: Identity> HyParViewMembership<I> {
    /// Creates a HyParView membership instance for node `me`.
    ///
    /// # Errors
    ///
    /// Returns [`hyparview_core::ConfigError`] when `config` is invalid.
    pub fn new(me: I, config: Config, seed: u64) -> Result<Self, hyparview_core::ConfigError> {
        Ok(HyParViewMembership {
            inner: HyParView::new(me, config, seed)?,
            random_fanout: None,
            attacker: None,
            events: Vec::new(),
        })
    }

    /// Turns this node into a colluder running `role`'s attack. Honest
    /// message handling still goes through the real protocol state machine;
    /// the role only adds hostile traffic on top (see [`crate::adversary`]).
    pub fn with_attacker(mut self, role: AttackerRole<I>) -> Self {
        self.attacker = Some(role);
        self
    }

    /// Whether this node was configured as a colluder.
    pub fn is_attacker(&self) -> bool {
        self.attacker.is_some()
    }

    /// Ablation: replaces the deterministic flood with random selection of
    /// `fanout` gossip targets from the active view, like the probabilistic
    /// baselines do. §5.5 credits the flood (plus symmetric views) for
    /// HyParView's 100% stable-state reliability — this switch lets the
    /// benches quantify that claim.
    pub fn with_random_fanout(mut self, seed: u64) -> Self {
        use rand::SeedableRng;
        self.random_fanout = Some(rand::rngs::StdRng::seed_from_u64(seed));
        self
    }

    /// Access to the underlying protocol state machine.
    pub fn protocol(&self) -> &HyParView<I> {
        &self.inner
    }

    /// Gracefully leaves the overlay: `Disconnect` to every active peer
    /// ([`HyParView::leave`]).
    pub fn leave(&mut self, out: &mut Outbox<I, Message<I>>) {
        self.inner.leave(out);
    }

    /// Rewrites the shuffle payloads of the messages a step appended to
    /// `out` from index `start` on, in queue order. A no-op for honest
    /// nodes, which leave the payloads and the attacker stream untouched.
    fn bias_appended(&mut self, out: &mut Outbox<I, Message<I>>, start: usize) {
        if self.attacker.is_none() {
            return;
        }
        for (to, message) in &mut out.as_mut_slice()[start..] {
            if let Message::Shuffle { nodes, .. } | Message::ShuffleReply { nodes } = message {
                if self.bias_shuffle_payload(*to, nodes) {
                    self.events.push(MembershipEvent::ShuffleBiased);
                }
            }
        }
    }

    /// Infiltration: rewrite an outgoing shuffle payload so every advertised
    /// id is a colluder, poisoning the recipient's passive view. Returns
    /// `true` when the payload was rewritten.
    fn bias_shuffle_payload(&mut self, to: I, nodes: &mut [I]) -> bool {
        let me = self.inner.me();
        let Some(attacker) = self.attacker.as_mut() else { return false };
        if attacker.model != AttackerModel::Infiltration || nodes.is_empty() {
            return false;
        }
        let pool: Vec<I> =
            attacker.colluders.iter().copied().filter(|c| *c != me && *c != to).collect();
        if pool.is_empty() {
            return false;
        }
        for slot in nodes.iter_mut() {
            if let Some(colluder) = attacker.pick(&pool) {
                *slot = colluder;
            }
        }
        true
    }

    /// One attack cycle, replacing the honest periodic shuffle.
    fn attacker_cycle(&mut self, out: &mut Outbox<I, Message<I>>) {
        let Some(mut attacker) = self.attacker.take() else { return };
        attacker.refill_upgrades();
        match attacker.model {
            AttackerModel::Eclipse => {
                // Flood every victim with an eviction-grade request, every
                // cycle: rejections cost the attacker nothing.
                for &victim in attacker.victims.iter() {
                    out.send(victim, Message::Neighbor { priority: Priority::High });
                    self.events.push(MembershipEvent::NeighborFlood { victim });
                }
            }
            AttackerModel::Infiltration => {
                // Keep shuffling like an honest node — the payload is
                // poisoned once the step is done.
                self.inner.shuffle_tick(out);
            }
        }
        // Churn: occasionally re-join through a victim to re-roll earlier
        // rejections (and re-seed ForwardJoin walks from inside the honest
        // overlay).
        if attacker.churn_now() {
            if let Some(contact) = attacker.pick_victim() {
                self.inner.join(contact, out);
                self.events.push(MembershipEvent::AttackerRejoin { contact });
            }
        }
        self.attacker = Some(attacker);
    }
}

impl<I: Identity> Membership<I> for HyParViewMembership<I> {
    type Message = Message<I>;

    fn join(&mut self, contact: I, out: &mut Outbox<I, Self::Message>) {
        let start = out.len();
        self.inner.join(contact, out);
        self.bias_appended(out, start);
    }

    fn handle_message(
        &mut self,
        from: I,
        mut message: Self::Message,
        out: &mut Outbox<I, Self::Message>,
    ) {
        // Colluders accept NEIGHBOR requests greedily: upgrading the incoming
        // priority makes the (honest) state machine admit unconditionally.
        // The per-cycle budget bounds the eviction cascade this causes (see
        // `adversary::UPGRADES_PER_CYCLE`).
        if let Some(attacker) = self.attacker.as_mut() {
            if let Message::Neighbor { priority } = &mut message {
                if attacker.take_upgrade() {
                    *priority = Priority::High;
                }
            }
        }
        let start = out.len();
        self.inner.handle_message(from, message, out);
        self.bias_appended(out, start);
    }

    fn on_cycle(&mut self, out: &mut Outbox<I, Self::Message>) {
        let start = out.len();
        if self.attacker.is_some() {
            self.attacker_cycle(out);
        } else {
            self.inner.shuffle_tick(out);
        }
        self.bias_appended(out, start);
    }

    fn detects_send_failures(&self) -> bool {
        // §4.1.iii: TCP is the failure detector; every member of the active
        // view is implicitly tested at each gossip step.
        true
    }

    fn on_send_failed(&mut self, peer: I, out: &mut Outbox<I, Self::Message>) {
        let start = out.len();
        self.inner.on_peer_failed(peer, out);
        self.bias_appended(out, start);
    }

    fn connected_peers(&self) -> Vec<I> {
        // One open TCP connection per active-view member (§4.1): when a
        // neighbor crashes the broken connection is noticed without a send.
        self.inner.active_view().to_vec()
    }

    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<I>) -> Vec<I> {
        // Colluders black-hole gossip: they accept broadcasts but never
        // forward them, so every active-view slot they capture is a slot
        // that drops traffic.
        if self.attacker.is_some() {
            return Vec::new();
        }
        let mut targets = self.inner.broadcast_targets(exclude);
        if let Some(rng) = self.random_fanout.as_mut() {
            use rand::seq::SliceRandom;
            targets.shuffle(rng);
            targets.truncate(fanout);
        }
        // Default: deterministic flood of the whole active view (§4.1.ii).
        targets
    }

    fn out_view(&self) -> Vec<I> {
        self.inner.active_view().to_vec()
    }

    /// [`HyParView::check_invariants`].
    fn check_invariants(&self) {
        self.inner.check_invariants();
    }

    fn take_events(&mut self) -> Vec<MembershipEvent<I>> {
        let mut events = self.inner.take_events();
        events.append(&mut self.events);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ATTACKER_REJOIN;

    #[test]
    fn adapter_reports_failure_detection() {
        let node = HyParViewMembership::new(1u32, Config::default(), 7).unwrap();
        assert!(node.detects_send_failures());
    }

    #[test]
    fn broadcast_targets_ignore_fanout() {
        let mut node = HyParViewMembership::new(0u32, Config::default(), 7).unwrap();
        let mut out = Outbox::new();
        for peer in 1..=5 {
            node.handle_message(peer, Message::Join, &mut out);
        }
        // fanout 1 requested, but HyParView floods the full active view.
        let targets = node.broadcast_targets(1, None);
        assert_eq!(targets.len(), 5);
        let minus_sender = node.broadcast_targets(1, Some(3));
        assert_eq!(minus_sender.len(), 4);
        assert!(!minus_sender.contains(&3));
    }

    #[test]
    fn view_invariants_hold_when_a_shuffle_offers_this_node_and_its_neighbours() {
        let mut node = HyParViewMembership::new(0u32, Config::default(), 7).unwrap();
        let mut out = Outbox::new();
        for peer in 1..=5 {
            node.handle_message(peer, Message::Join, &mut out);
            node.check_invariants();
        }
        node.handle_message(1, Message::ShuffleReply { nodes: vec![0, 1, 2, 50] }, &mut out);
        node.check_invariants();
        let passive = node.protocol().passive_view();
        assert!(passive.contains(&50) && passive.len() == 1, "{:?}", passive.as_slice());
    }

    #[test]
    fn send_failure_repairs_view() {
        let mut node = HyParViewMembership::new(0u32, Config::default(), 7).unwrap();
        let mut out = Outbox::new();
        node.handle_message(1, Message::Join, &mut out);
        node.handle_message(1, Message::ShuffleReply { nodes: vec![50] }, &mut out);
        out.drain().count();
        node.on_send_failed(1, &mut out);
        assert!(node.out_view().is_empty());
        // Repair request sent to the passive candidate.
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, 50);
        assert!(matches!(msgs[0].1, Message::Neighbor { .. }));
    }

    #[test]
    fn cycle_emits_shuffle_when_connected() {
        let mut node = HyParViewMembership::new(0u32, Config::default(), 7).unwrap();
        let mut out = Outbox::new();
        node.handle_message(1, Message::Join, &mut out);
        out.drain().count();
        node.on_cycle(&mut out);
        assert!(out.as_slice().iter().any(|(_, m)| matches!(m, Message::Shuffle { .. })));
    }

    fn eclipse_role() -> AttackerRole<u32> {
        use std::sync::Arc;
        AttackerRole::new(
            AttackerModel::Eclipse,
            Arc::new(vec![90, 91]),
            Arc::new(vec![0, 1]),
            0xDEAD,
        )
    }

    fn infiltration_role() -> AttackerRole<u32> {
        use std::sync::Arc;
        AttackerRole::new(
            AttackerModel::Infiltration,
            Arc::new(vec![90, 91, 92]),
            Arc::new(vec![0, 1, 2]),
            0xBEEF,
        )
    }

    #[test]
    fn eclipse_attacker_floods_victims_each_cycle() {
        let mut node = HyParViewMembership::new(90u32, Config::default(), 7)
            .unwrap()
            .with_attacker(eclipse_role());
        assert!(node.is_attacker());
        let mut out = Outbox::new();
        node.on_cycle(&mut out);
        let msgs: Vec<_> = out.drain().collect();
        let floods: Vec<_> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, Message::Neighbor { priority: Priority::High }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(floods, vec![0, 1], "one high-priority request per victim");
        assert!(!msgs.iter().any(|(_, m)| matches!(m, Message::Shuffle { .. })));
        // Churn re-joins ride on the attacker stream too; only the floods
        // are certain every cycle.
        let mut events = node.take_events();
        events.retain(|e| !matches!(e, MembershipEvent::AttackerRejoin { .. }));
        assert_eq!(
            events,
            vec![
                MembershipEvent::NeighborFlood { victim: 0 },
                MembershipEvent::NeighborFlood { victim: 1 },
            ]
        );
        assert!(node.take_events().is_empty(), "events drain once");
    }

    #[test]
    fn eclipse_attacker_churns_at_the_rejoin_rate() {
        let mut node = HyParViewMembership::new(90u32, Config::default(), 7)
            .unwrap()
            .with_attacker(eclipse_role());
        let mut out = Outbox::new();
        let cycles = 2000;
        for _ in 0..cycles {
            node.on_cycle(&mut out);
        }
        let joins = out.as_slice().iter().filter(|(_, m)| matches!(m, Message::Join)).count();
        let rejoins = node
            .take_events()
            .iter()
            .filter(|e| matches!(e, MembershipEvent::AttackerRejoin { .. }))
            .count();
        assert_eq!(joins, rejoins, "one Join per churn");
        let rate = joins as f64 / cycles as f64;
        assert!((rate - ATTACKER_REJOIN).abs() < 0.03, "churn rate {rate}");
    }

    #[test]
    fn attacker_upgrades_incoming_neighbor_priority() {
        let mut node = HyParViewMembership::new(90u32, Config::default(), 7)
            .unwrap()
            .with_attacker(eclipse_role());
        let mut out = Outbox::new();
        // Fill the active view; a low-priority request would normally bounce.
        for peer in 1..=5 {
            node.handle_message(peer, Message::Join, &mut out);
        }
        out.drain().count();
        node.handle_message(50, Message::Neighbor { priority: Priority::Low }, &mut out);
        assert!(node.out_view().contains(&50), "colluder accepts unconditionally");
        assert!(out
            .as_slice()
            .iter()
            .any(|(to, m)| *to == 50 && *m == Message::NeighborReply { accepted: true }));
    }

    #[test]
    fn infiltration_biases_shuffle_payloads_to_colluders() {
        let mut node = HyParViewMembership::new(90u32, Config::default(), 7)
            .unwrap()
            .with_attacker(infiltration_role());
        let mut out = Outbox::new();
        for peer in 1..=5 {
            node.handle_message(peer, Message::Join, &mut out);
        }
        out.drain().count();
        node.on_cycle(&mut out);
        let shuffles: Vec<_> = out
            .as_slice()
            .iter()
            .filter_map(|(to, m)| match m {
                Message::Shuffle { nodes, .. } => Some((*to, nodes.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(shuffles.len(), 1);
        let (to, nodes) = &shuffles[0];
        assert!(!nodes.is_empty());
        for id in nodes {
            assert!([90, 91, 92].contains(id), "payload advertises only colluders, got {id}");
            assert_ne!(id, to, "never advertises the recipient to itself");
        }
        assert!(node.take_events().contains(&MembershipEvent::ShuffleBiased));
    }

    #[test]
    fn boosted_colluder_cycle_biases_exactly_the_shuffles_it_queued() {
        let mut node = HyParViewMembership::new(90u32, Config::hardened(), 7)
            .unwrap()
            .with_attacker(infiltration_role());
        let mut out = Outbox::new();
        for peer in 1..=5 {
            node.handle_message(peer, Message::Join, &mut out);
        }
        node.handle_message(1, Message::ShuffleReply { nodes: (100..110).collect() }, &mut out);
        out.drain().count();
        // A calm cycle's biased shuffle stays queued ahead of the next steps:
        // biasing it again would draw from the attacker stream twice.
        node.on_cycle(&mut out);
        node.take_events();
        // Losing an active peer arms the churn boost for the next cycle.
        node.on_send_failed(1, &mut out);
        let cycle_start = out.len();
        node.on_cycle(&mut out);
        let shuffles: Vec<&Vec<u32>> = out.as_slice()[cycle_start..]
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Shuffle { nodes, .. } => Some(nodes),
                _ => None,
            })
            .collect();
        assert_eq!(shuffles.len(), 2, "base shuffle plus one boost shuffle");
        for nodes in shuffles {
            assert!(!nodes.is_empty());
            assert!(nodes.iter().all(|id| [91, 92].contains(id)), "honest id in {nodes:?}");
        }
        let mut events = node.take_events();
        events.retain(|e| !matches!(e, MembershipEvent::AttackerRejoin { .. }));
        assert_eq!(
            events,
            vec![
                MembershipEvent::ShuffleBoosted,
                MembershipEvent::ShuffleBiased,
                MembershipEvent::ShuffleBiased,
            ],
            "the protocol's events first, then one bias per shuffle of this cycle"
        );
    }

    #[test]
    fn attacker_black_holes_broadcasts() {
        let mut node = HyParViewMembership::new(90u32, Config::default(), 7)
            .unwrap()
            .with_attacker(infiltration_role());
        let mut out = Outbox::new();
        for peer in 1..=5 {
            node.handle_message(peer, Message::Join, &mut out);
        }
        assert!(node.broadcast_targets(3, None).is_empty());
    }

    #[test]
    fn honest_node_surfaces_defense_events() {
        let mut node = HyParViewMembership::new(0u32, Config::hardened(), 7).unwrap();
        let mut out = Outbox::new();
        node.handle_message(1, Message::Join, &mut out);
        node.handle_message(1, Message::Join, &mut out);
        assert_eq!(node.take_events(), vec![MembershipEvent::JoinDamped { peer: 1 }]);
    }

    #[test]
    fn backup_view_exposes_passive() {
        let mut node = HyParViewMembership::new(0u32, Config::default(), 7).unwrap();
        let mut out = Outbox::new();
        node.handle_message(1, Message::ShuffleReply { nodes: vec![5, 6] }, &mut out);
        let mut backup = node.protocol().passive_view().to_vec();
        backup.sort_unstable();
        assert_eq!(backup, vec![5, 6]);
    }
}
