//! The SCAMP membership protocol (Ganesh, Kermarrec, Massoulié, 2001/2003),
//! the *reactive strategy* baseline of the HyParView evaluation.
//!
//! Scamp maintains two views: a `PartialView` of gossip targets whose size
//! self-organises around `(c + 1) · log(n)` without any node knowing `n`,
//! and an `InView` of nodes that gossip to it. Subscriptions are integrated
//! probabilistically (probability `1 / (1 + |PartialView|)`) as they are
//! forwarded through the overlay; a lease mechanism forces periodic
//! re-subscription and heartbeats let isolated nodes recover.

use crate::config::{ScampConfig, SCAMP_C, SCAMP_ISOLATION_THRESHOLD, SCAMP_MAX_FORWARD_HOPS};
use hyparview_core::collections::RandomSet;
use hyparview_core::Identity;
use hyparview_gossip::{Membership, Outbox};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scamp wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScampMessage<I> {
    /// New subscription, sent by the joiner to its contact node.
    Subscribe,
    /// A subscription travelling through the overlay looking for a node
    /// that will keep it.
    ForwardedSubscription {
        /// The subscribing node.
        joiner: I,
        /// Hops travelled so far (force-kept at 64).
        hops: u32,
    },
    /// Notifies the receiver that the sender holds it in its `PartialView`
    /// (the receiver records the sender in its `InView`).
    AddedYou,
    /// Periodic liveness signal sent to all `PartialView` members.
    Heartbeat,
    /// Graceful unsubscription: the receiver should drop the sender and
    /// adopt `replacement` instead (if any).
    Unsubscribe {
        /// Node to adopt in place of the leaver.
        replacement: Option<I>,
    },
}

/// A Scamp protocol instance for one node.
///
/// # Examples
///
/// ```
/// use hyparview_baselines::{Scamp, ScampConfig};
/// use hyparview_gossip::{Membership, Outbox};
///
/// let mut node = Scamp::new(1u32, ScampConfig::default(), 7);
/// let mut out = Outbox::new();
/// node.join(0, &mut out);
/// assert_eq!(node.out_view(), vec![0], "partial view starts with the contact");
/// ```
#[derive(Debug, Clone)]
pub struct Scamp<I> {
    me: I,
    config: ScampConfig,
    partial_view: RandomSet<I>,
    in_view: RandomSet<I>,
    rng: StdRng,
    cycles_without_heartbeat: u32,
    cycles_since_subscription: u32,
    resubscriptions: u64,
}

impl<I: Identity> Scamp<I> {
    /// Creates a Scamp instance for node `me`.
    pub fn new(me: I, config: ScampConfig, seed: u64) -> Self {
        Scamp {
            me,
            config,
            partial_view: RandomSet::new(),
            in_view: RandomSet::new(),
            rng: StdRng::seed_from_u64(seed),
            cycles_without_heartbeat: 0,
            cycles_since_subscription: 0,
            resubscriptions: 0,
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &ScampConfig {
        &self.config
    }

    /// The `PartialView` (gossip targets).
    pub fn partial_view(&self) -> &RandomSet<I> {
        &self.partial_view
    }

    /// The `InView` (nodes known to gossip to us).
    pub fn in_view(&self) -> &RandomSet<I> {
        &self.in_view
    }

    /// Number of times this node re-subscribed (lease expiry or isolation).
    pub fn resubscriptions(&self) -> u64 {
        self.resubscriptions
    }

    /// Gracefully leaves the overlay (§ "unsubscription" of the Scamp
    /// paper): each `InView` member is told to replace us with one of our
    /// `PartialView` members, preserving their out-degree.
    pub fn unsubscribe(&mut self, out: &mut Outbox<I, ScampMessage<I>>) {
        let replacements = self.partial_view.to_vec();
        for (idx, member) in self.in_view.to_vec().into_iter().enumerate() {
            let replacement = if replacements.is_empty() {
                None
            } else {
                let candidate = replacements[idx % replacements.len()];
                (candidate != member).then_some(candidate)
            };
            out.send(member, ScampMessage::Unsubscribe { replacement });
        }
        self.partial_view.clear();
        self.in_view.clear();
    }

    /// Keeps `joiner`'s subscription: adds it to the partial view and tells
    /// it so it can record us in its `InView`.
    fn keep(&mut self, joiner: I, out: &mut Outbox<I, ScampMessage<I>>) -> bool {
        if joiner == self.me || self.partial_view.contains(&joiner) {
            return false;
        }
        self.partial_view.insert(joiner);
        out.send(joiner, ScampMessage::AddedYou);
        true
    }

    fn on_subscribe(&mut self, joiner: I, out: &mut Outbox<I, ScampMessage<I>>) {
        if joiner == self.me {
            return;
        }
        if self.partial_view.is_empty() {
            // Bootstrap: the very first contact keeps the subscription
            // itself, otherwise the joiner would dangle.
            self.keep(joiner, out);
            return;
        }
        // Forward to every PartialView member, plus c extra copies to
        // random members (the fault-tolerance knob of Scamp).
        for member in self.partial_view.to_vec() {
            out.send(member, ScampMessage::ForwardedSubscription { joiner, hops: 0 });
        }
        for _ in 0..SCAMP_C {
            if let Some(member) = self.partial_view.choose(&mut self.rng).copied() {
                out.send(member, ScampMessage::ForwardedSubscription { joiner, hops: 0 });
            }
        }
    }

    fn on_forwarded_subscription(
        &mut self,
        joiner: I,
        hops: u32,
        out: &mut Outbox<I, ScampMessage<I>>,
    ) {
        if joiner == self.me {
            return;
        }
        let forced = hops >= SCAMP_MAX_FORWARD_HOPS;
        let keep_probability = 1.0 / (1.0 + self.partial_view.len() as f64);
        if !self.partial_view.contains(&joiner) && (forced || self.rng.gen_bool(keep_probability)) {
            self.keep(joiner, out);
            return;
        }
        if forced {
            // Already known and out of budget: drop.
            return;
        }
        match self.partial_view.choose_excluding(&mut self.rng, &joiner) {
            Some(next) => {
                out.send(next, ScampMessage::ForwardedSubscription { joiner, hops: hops + 1 });
            }
            None => {
                self.keep(joiner, out);
            }
        }
    }

    fn on_unsubscribe(
        &mut self,
        leaver: I,
        replacement: Option<I>,
        out: &mut Outbox<I, ScampMessage<I>>,
    ) {
        self.partial_view.remove(&leaver);
        self.in_view.remove(&leaver);
        if let Some(replacement) = replacement {
            self.keep(replacement, out);
        }
    }

    fn resubscribe(&mut self, out: &mut Outbox<I, ScampMessage<I>>) {
        self.resubscriptions += 1;
        self.cycles_since_subscription = 0;
        if let Some(member) = self.partial_view.choose(&mut self.rng).copied() {
            out.send(member, ScampMessage::Subscribe);
        }
    }
}

impl<I: Identity> Membership<I> for Scamp<I> {
    type Message = ScampMessage<I>;

    /// The joiner's `PartialView` initially contains only the contact; the
    /// contact disseminates the new subscription through the overlay.
    fn join(&mut self, contact: I, out: &mut Outbox<I, Self::Message>) {
        if contact == self.me {
            return;
        }
        self.partial_view.insert(contact);
        out.send(contact, ScampMessage::AddedYou);
        out.send(contact, ScampMessage::Subscribe);
    }

    fn handle_message(
        &mut self,
        from: I,
        message: Self::Message,
        out: &mut Outbox<I, Self::Message>,
    ) {
        if from == self.me {
            return;
        }
        match message {
            ScampMessage::Subscribe => self.on_subscribe(from, out),
            ScampMessage::ForwardedSubscription { joiner, hops } => {
                self.on_forwarded_subscription(joiner, hops, out)
            }
            ScampMessage::AddedYou => {
                self.in_view.insert(from);
            }
            ScampMessage::Heartbeat => {
                self.cycles_without_heartbeat = 0;
                // A heartbeat proves `from` holds us in its PartialView.
                self.in_view.insert(from);
            }
            ScampMessage::Unsubscribe { replacement } => {
                self.on_unsubscribe(from, replacement, out)
            }
        }
    }

    /// Scamp is reactive: the cycle only drives heartbeats, the isolation
    /// check and lease expiry — it never reorganises views by itself
    /// (which is why the paper's Fig 1c shows it cannot recover between
    /// cycles without its lease).
    fn on_cycle(&mut self, out: &mut Outbox<I, Self::Message>) {
        if self.config.heartbeats {
            for member in self.partial_view.to_vec() {
                out.send(member, ScampMessage::Heartbeat);
            }
            self.cycles_without_heartbeat = self.cycles_without_heartbeat.saturating_add(1);
            if self.cycles_without_heartbeat > SCAMP_ISOLATION_THRESHOLD {
                self.cycles_without_heartbeat = 0;
                self.resubscribe(out);
            }
        }
        if let Some(lease) = self.config.lease_cycles {
            self.cycles_since_subscription += 1;
            if self.cycles_since_subscription >= lease {
                self.resubscribe(out);
            }
        }
    }

    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<I>) -> Vec<I> {
        let mut ids: Vec<I> =
            self.partial_view.iter().copied().filter(|id| Some(*id) != exclude).collect();
        use rand::seq::SliceRandom;
        ids.shuffle(&mut self.rng);
        ids.truncate(fanout);
        ids
    }

    fn out_view(&self) -> Vec<I> {
        self.partial_view.to_vec()
    }

    /// Neither view holds this node. Scamp bounds no view (the partial
    /// view settles around `(c + 1) · log n` by itself), and its sets hold
    /// no repeats by construction.
    fn check_invariants(&self) {
        assert!(
            !self.partial_view.contains(&self.me) && !self.in_view.contains(&self.me),
            "{:?} holds itself: partial view {:?}, in-view {:?}",
            self.me,
            self.partial_view.as_slice(),
            self.in_view.as_slice()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32) -> Scamp<u32> {
        Scamp::new(id, ScampConfig::default(), u64::from(id) + 1)
    }

    fn seeded(id: u32, peers: &[u32]) -> Scamp<u32> {
        let mut n = node(id);
        for p in peers {
            n.partial_view.insert(*p);
        }
        n
    }

    #[test]
    fn join_seeds_partial_view_with_contact() {
        let mut n = node(1);
        let mut out = Outbox::new();
        n.join(0, &mut out);
        assert_eq!(n.out_view(), vec![0]);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0], (0, ScampMessage::AddedYou));
        assert_eq!(msgs[1], (0, ScampMessage::Subscribe));
    }

    #[test]
    fn contact_with_empty_view_keeps_joiner() {
        let mut c = node(0);
        let mut out = Outbox::new();
        c.handle_message(9, ScampMessage::Subscribe, &mut out);
        assert!(c.partial_view().contains(&9));
        assert_eq!(out.drain().collect::<Vec<_>>(), vec![(9, ScampMessage::AddedYou)]);
    }

    #[test]
    fn contact_forwards_view_size_plus_c_copies() {
        let mut c = seeded(0, &[1, 2, 3]);
        let mut out = Outbox::new();
        c.handle_message(9, ScampMessage::Subscribe, &mut out);
        let msgs: Vec<_> = out.drain().collect();
        // 3 forwards (one per member) + c = 4 extra copies.
        assert_eq!(msgs.len(), 3 + SCAMP_C);
        for (to, m) in msgs {
            assert!([1, 2, 3].contains(&to));
            assert_eq!(m, ScampMessage::ForwardedSubscription { joiner: 9, hops: 0 });
        }
        assert!(!c.partial_view().contains(&9), "contact itself does not keep");
    }

    #[test]
    fn forwarded_subscription_eventually_kept_or_forwarded() {
        let mut p = seeded(5, &[1, 2]);
        let mut out = Outbox::new();
        p.handle_message(1, ScampMessage::ForwardedSubscription { joiner: 9, hops: 0 }, &mut out);
        let msgs: Vec<_> = out.drain().collect();
        if p.partial_view().contains(&9) {
            assert_eq!(msgs, vec![(9, ScampMessage::AddedYou)]);
        } else {
            assert_eq!(msgs.len(), 1);
            let (to, m) = &msgs[0];
            assert!([1, 2].contains(to));
            assert_eq!(*m, ScampMessage::ForwardedSubscription { joiner: 9, hops: 1 });
        }
    }

    #[test]
    fn forwarded_subscription_force_kept_at_hop_budget() {
        let mut p = seeded(5, &[1, 2]);
        let mut out = Outbox::new();
        let hops = SCAMP_MAX_FORWARD_HOPS;
        p.handle_message(1, ScampMessage::ForwardedSubscription { joiner: 9, hops }, &mut out);
        assert!(p.partial_view().contains(&9), "budget exhausted forces keep");
    }

    #[test]
    fn forwarded_subscription_with_empty_view_kept() {
        let mut p = node(5);
        let mut out = Outbox::new();
        p.handle_message(1, ScampMessage::ForwardedSubscription { joiner: 9, hops: 0 }, &mut out);
        // With an empty view the keep probability is 1/(1+0) = 1.
        assert!(p.partial_view().contains(&9));
    }

    #[test]
    fn own_subscription_is_dropped() {
        let mut p = seeded(5, &[1]);
        let mut out = Outbox::new();
        p.handle_message(1, ScampMessage::ForwardedSubscription { joiner: 5, hops: 0 }, &mut out);
        assert!(out.is_empty());
        assert!(!p.partial_view().contains(&5));
    }

    #[test]
    fn added_you_populates_in_view() {
        let mut p = node(5);
        let mut out = Outbox::new();
        p.handle_message(3, ScampMessage::AddedYou, &mut out);
        assert!(p.in_view().contains(&3));
    }

    #[test]
    fn heartbeats_mark_liveness_and_in_view() {
        let mut p = seeded(5, &[1]);
        let mut out = Outbox::new();
        // Several cycles without heartbeats trigger a resubscription.
        for _ in 0..=SCAMP_ISOLATION_THRESHOLD {
            p.on_cycle(&mut out);
        }
        let resub = out.drain().filter(|(_, m)| *m == ScampMessage::Subscribe).count();
        assert_eq!(resub, 1, "isolated node re-subscribes");
        assert_eq!(p.resubscriptions(), 1);
        // A heartbeat resets the counter and registers the sender.
        p.handle_message(2, ScampMessage::Heartbeat, &mut out);
        assert!(p.in_view().contains(&2));
    }

    #[test]
    fn cycle_sends_heartbeats_to_partial_view() {
        let mut p = seeded(5, &[1, 2]);
        let mut out = Outbox::new();
        p.on_cycle(&mut out);
        let hb: Vec<_> =
            out.drain().filter(|(_, m)| *m == ScampMessage::Heartbeat).map(|(to, _)| to).collect();
        let mut sorted = hb.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn lease_expiry_resubscribes() {
        let mut p = Scamp::new(
            5u32,
            ScampConfig::default().with_lease_cycles(Some(3)).with_heartbeats(false),
            7,
        );
        p.partial_view.insert(1);
        let mut out = Outbox::new();
        for _ in 0..3 {
            p.on_cycle(&mut out);
        }
        let resubs = out.drain().filter(|(_, m)| *m == ScampMessage::Subscribe).count();
        assert_eq!(resubs, 1);
    }

    #[test]
    fn unsubscribe_hands_out_replacements() {
        let mut p = seeded(5, &[10, 11]);
        p.in_view.insert(20);
        p.in_view.insert(21);
        p.in_view.insert(22);
        let mut out = Outbox::new();
        p.unsubscribe(&mut out);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 3, "every InView member notified");
        for (to, m) in &msgs {
            assert!([20, 21, 22].contains(to));
            match m {
                ScampMessage::Unsubscribe { replacement } => {
                    if let Some(r) = replacement {
                        assert!([10, 11].contains(r));
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(p.partial_view().is_empty());
        assert!(p.in_view().is_empty());
    }

    #[test]
    fn unsubscribe_receiver_swaps_in_replacement() {
        let mut p = seeded(5, &[1, 2]);
        let mut out = Outbox::new();
        p.handle_message(1, ScampMessage::Unsubscribe { replacement: Some(9) }, &mut out);
        assert!(!p.partial_view().contains(&1));
        assert!(p.partial_view().contains(&9));
        assert!(out.drain().any(|(to, m)| to == 9 && m == ScampMessage::AddedYou));
    }

    #[test]
    fn broadcast_targets_bounded_by_fanout() {
        let mut p = seeded(5, &(10..30).collect::<Vec<_>>());
        let targets = p.broadcast_targets(4, Some(12));
        assert_eq!(targets.len(), 4);
        assert!(!targets.contains(&12));
    }

    #[test]
    fn scamp_does_not_detect_failures() {
        let p = node(5);
        assert!(!p.detects_send_failures());
    }
}
