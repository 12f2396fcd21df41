//! The HyParView state machine (Algorithm 1 + §4.2–§4.5).
//!
//! [`HyParView`] is a *sans-io* protocol core: each event handler mutates
//! local state and appends the messages to send to the caller's
//! [`Actions`], the membership layer's [`Outbox`]. Link changes are not
//! reported: the active view *is* the overlay, so a caller diffs
//! [`HyParView::active_view`] when it needs them. Defense decisions are
//! buffered as [`MembershipEvent`]s for [`HyParView::take_events`]. The
//! same state machine therefore drives the discrete-event simulator, the
//! TCP runtime and the unit/property tests, and is deterministic given its
//! RNG seed and input sequence.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{Config, ConfigError};
use crate::message::{Message, Priority};
use crate::outbox::{MembershipEvent, Outbox};
use crate::stats::Stats;
use crate::view::{ActiveView, PassiveView};
use crate::Identity;

/// State of an in-flight active-view repair (§4.3).
///
/// At most one `NEIGHBOR` request is outstanding at a time; candidates that
/// reject a low-priority request are remembered in `tried` so the next
/// attempt picks someone else (the paper keeps rejecting nodes in the
/// passive view).
#[derive(Debug, Clone)]
struct Repair<I> {
    /// Candidate we sent a `NEIGHBOR` request to and are waiting on.
    pending: Option<I>,
    /// Candidates that rejected us since the last successful promotion.
    tried: Vec<I>,
}

impl<I> Default for Repair<I> {
    fn default() -> Self {
        Repair { pending: None, tried: Vec::new() }
    }
}

/// HyParView's outbox: the messages one event handler asks the runtime to
/// send.
pub type Actions<I> = Outbox<I, Message<I>>;

/// A HyParView protocol instance for one node.
///
/// # Driving the state machine
///
/// The embedding runtime must:
///
/// 1. call [`HyParView::join`] once with a contact node already in the
///    overlay (or nothing, for the very first node);
/// 2. feed every received message to [`HyParView::handle_message`];
/// 3. call [`HyParView::shuffle_tick`] periodically (the paper's membership
///    cycle);
/// 4. call [`HyParView::on_peer_failed`] whenever the transport fails to
///    reach a peer — this is the "TCP as failure detector" input (§4.1.iii);
/// 5. send every message queued in the [`Actions`] passed to each call.
///
/// # Examples
///
/// ```
/// use hyparview_core::{Actions, Config, HyParView, Message};
///
/// # fn main() -> Result<(), hyparview_core::ConfigError> {
/// let mut node = HyParView::new(1u32, Config::default(), 42)?;
/// let mut actions = Actions::new();
/// node.join(0, &mut actions);
/// assert_eq!(actions.as_slice(), &[(0, Message::Join)]);
/// // The runtime now delivers it to node 0 and sends whatever that queues.
/// assert!(node.active_view().contains(&0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HyParView<I> {
    me: I,
    config: Config,
    active: ActiveView<I>,
    passive: PassiveView<I>,
    rng: StdRng,
    stats: Stats,
    repair: Repair<I>,
    /// Identifiers sent in our last shuffle request; preferred eviction
    /// victims when the reply is integrated (§4.4).
    last_shuffle_sent: Vec<I>,
    /// Membership cycle counter: one increment per [`HyParView::shuffle_tick`].
    /// The clock the cooldown/tenure defenses measure against.
    cycle: u64,
    /// Cycle of each peer's last damped-path admission (`JOIN` or
    /// high-priority `NEIGHBOR`). Maintained only while
    /// [`Config::admission_cooldown`] is non-zero; pruned every tick.
    admitted_at: Vec<(I, u64)>,
    /// Admission cycle of current active members. Maintained only while
    /// [`Config::max_active_tenure`] is non-zero; stale entries are pruned
    /// lazily at each tick.
    active_since: Vec<(I, u64)>,
    /// Eviction-causing high-priority `NEIGHBOR` admissions since the last
    /// tick (compared against [`Config::neighbor_evict_budget`]).
    evict_admissions: usize,
    /// Active-view churn (evictions + transport failures) since the last
    /// tick; a non-zero value arms the shuffle boost.
    churn_events: u32,
    /// Defense decisions awaiting [`HyParView::take_events`]: only the
    /// `JoinDamped`, `NeighborDamped`, `TenureSwapped` and `ShuffleBoosted`
    /// kinds of [`MembershipEvent`].
    events: Vec<MembershipEvent<I>>,
}

impl<I: Identity> HyParView<I> {
    /// Creates a protocol instance for node `me`.
    ///
    /// `seed` makes the instance's random choices reproducible; derive it
    /// from a secure source in production and from the scenario seed in
    /// experiments.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `config` is invalid.
    pub fn new(me: I, config: Config, seed: u64) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(HyParView {
            me,
            active: ActiveView::new(config.active_capacity),
            passive: PassiveView::new(config.passive_capacity),
            rng: StdRng::seed_from_u64(seed),
            stats: Stats::default(),
            repair: Repair::default(),
            last_shuffle_sent: Vec::new(),
            cycle: 0,
            admitted_at: Vec::new(),
            active_since: Vec::new(),
            evict_admissions: 0,
            churn_events: 0,
            events: Vec::new(),
            config,
        })
    }

    /// This node's identifier.
    pub fn me(&self) -> I {
        self.me
    }

    /// The configuration the instance was created with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The current active view (read-only).
    pub fn active_view(&self) -> &ActiveView<I> {
        &self.active
    }

    /// The current passive view (read-only).
    pub fn passive_view(&self) -> &PassiveView<I> {
        &self.passive
    }

    /// Cumulative protocol counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// `true` when the active view is empty — the node cannot currently
    /// receive broadcasts and will issue high-priority `NEIGHBOR` requests.
    pub fn is_isolated(&self) -> bool {
        self.active.is_empty()
    }

    /// The number of shuffle ticks executed so far — the cycle clock the
    /// cooldown and tenure defenses are measured against.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drains the buffered overlay-defense decisions. Always empty unless
    /// a defense knob in [`Config`] is enabled.
    pub fn take_events(&mut self) -> Vec<MembershipEvent<I>> {
        std::mem::take(&mut self.events)
    }

    /// The peers a broadcast layer should flood a message to: the entire
    /// active view except the peer the message arrived from (§4.1.ii).
    pub fn broadcast_targets(&self, exclude: Option<I>) -> Vec<I> {
        self.active.iter().copied().filter(|peer| Some(*peer) != exclude).collect()
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Joins the overlay through `contact` (§4.2).
    ///
    /// The contact is optimistically added to the active view — in the
    /// paper's model the TCP connection to the contact *is* the link — and a
    /// `JOIN` request is sent over it.
    pub fn join(&mut self, contact: I, actions: &mut Actions<I>) {
        if contact == self.me {
            return;
        }
        self.add_to_active(contact, actions);
        actions.send(contact, Message::Join);
    }

    /// Gracefully leaves the overlay, notifying every active peer.
    ///
    /// Not part of the paper (which treats departures as crashes); provided
    /// because real deployments want clean shutdown. After this call the
    /// instance should be dropped.
    pub fn leave(&mut self, actions: &mut Actions<I>) {
        for peer in self.active.to_vec() {
            actions.send(peer, Message::Disconnect);
            self.active.remove(&peer);
        }
    }

    /// Handles a protocol message received from `from`.
    ///
    /// Messages that claim to originate from this node itself are dropped:
    /// they can only be the product of a confused or malicious transport,
    /// and reacting to them would make the node talk to itself.
    pub fn handle_message(&mut self, from: I, message: Message<I>, actions: &mut Actions<I>) {
        if from == self.me {
            return;
        }
        match message {
            Message::Join => self.on_join(from, actions),
            Message::ForwardJoin { new_node, ttl } => {
                self.on_forward_join(from, new_node, ttl, actions)
            }
            Message::ForwardJoinReply => self.on_forward_join_reply(from, actions),
            Message::Neighbor { priority } => self.on_neighbor(from, priority, actions),
            Message::NeighborReply { accepted } => self.on_neighbor_reply(from, accepted, actions),
            Message::Disconnect => self.on_disconnect(from, actions),
            Message::Shuffle { origin, ttl, nodes } => {
                self.on_shuffle(from, origin, ttl, nodes, actions)
            }
            Message::ShuffleReply { nodes } => self.on_shuffle_reply(nodes),
        }
    }

    /// Periodic tick: performs the passive-view shuffle (§4.4) and, if the
    /// active view is under-full, an opportunistic repair attempt. With
    /// defenses enabled it also advances the cooldown clock, rotates
    /// over-tenured members, and boosts the shuffle rate after churn.
    pub fn shuffle_tick(&mut self, actions: &mut Actions<I>) {
        self.cycle += 1;
        self.evict_admissions = 0;
        let churned = std::mem::take(&mut self.churn_events) > 0;
        if self.config.admission_cooldown > 0 {
            let cycle = self.cycle;
            let cooldown = self.config.admission_cooldown;
            self.admitted_at.retain(|(_, at)| cycle.saturating_sub(*at) < cooldown);
        }
        if self.config.max_active_tenure > 0 {
            self.tenure_swap(actions);
        }
        if self.config.promote_on_shuffle && !self.active.is_full() {
            self.try_promote(actions);
        }
        if !self.send_shuffle(actions) {
            return;
        }
        if churned && self.config.churn_shuffle_boost > 0 {
            for _ in 0..self.config.churn_shuffle_boost {
                if self.send_shuffle(actions) {
                    self.events.push(MembershipEvent::ShuffleBoosted);
                }
            }
        }
    }

    /// Sends one shuffle request to a random active peer, recording the
    /// exchanged identifiers for reply integration (§4.4). Returns `false`
    /// when the active view is empty.
    fn send_shuffle(&mut self, actions: &mut Actions<I>) -> bool {
        let Some(target) = self.active.choose(&mut self.rng) else {
            return false;
        };
        self.stats.shuffles_started += 1;
        let mut nodes =
            self.active.sample_excluding(&mut self.rng, self.config.shuffle_active, &target);
        nodes.extend(self.passive.sample(&mut self.rng, self.config.shuffle_passive));
        self.last_shuffle_sent = nodes.clone();
        actions.send(
            target,
            Message::Shuffle { origin: self.me, ttl: self.config.shuffle_ttl, nodes },
        );
        true
    }

    /// Forced swap-out: once the longest-tenured active member has been in
    /// the view for [`Config::max_active_tenure`] cycles *and* the passive
    /// view offers a replacement candidate, rotate it out (Disconnect into
    /// the passive view, exactly like a capacity eviction). Continuous
    /// rotation bounds how long a captured slot stays captured.
    fn tenure_swap(&mut self, actions: &mut Actions<I>) {
        let active = &self.active;
        self.active_since.retain(|(p, _)| active.contains(p));
        if self.passive.is_empty() {
            return;
        }
        let Some((peer, since)) = self.active_since.iter().copied().min_by_key(|(_, at)| *at)
        else {
            return;
        };
        if self.cycle.saturating_sub(since) < self.config.max_active_tenure {
            return;
        }
        if self.active.remove(&peer) {
            self.active_since.retain(|(p, _)| *p != peer);
            self.stats.active_evictions += 1;
            actions.send(peer, Message::Disconnect);
            self.passive.insert(peer, &mut self.rng);
            self.events.push(MembershipEvent::TenureSwapped { peer });
        }
    }

    /// Whether an admission of `peer` through a damped path would be
    /// rejected by the cooldown (a re-admission inside the window).
    fn is_damped(&self, peer: &I) -> bool {
        let cooldown = self.config.admission_cooldown;
        cooldown > 0
            && self
                .admitted_at
                .iter()
                .any(|(p, at)| p == peer && self.cycle.saturating_sub(*at) < cooldown)
    }

    /// Records a damped-path admission of `peer` (no-op with damping off).
    fn record_admission(&mut self, peer: I) {
        if self.config.admission_cooldown == 0 {
            return;
        }
        match self.admitted_at.iter_mut().find(|(p, _)| *p == peer) {
            Some(entry) => entry.1 = self.cycle,
            None => self.admitted_at.push((peer, self.cycle)),
        }
    }

    /// Records when `peer` entered the active view (no-op with the tenure
    /// bound off).
    fn record_tenure(&mut self, peer: I) {
        if self.config.max_active_tenure == 0 {
            return;
        }
        match self.active_since.iter_mut().find(|(p, _)| *p == peer) {
            Some(entry) => entry.1 = self.cycle,
            None => self.active_since.push((peer, self.cycle)),
        }
    }

    /// Whether admitting `peer` now would evict a current active member.
    fn would_evict(&self, peer: &I) -> bool {
        self.active.is_full() && !self.active.contains(peer)
    }

    /// Transport-level failure notification: the runtime could not reach
    /// `peer` (connection refused, reset, or timed out). This is the
    /// reactive half of the active view management (§4.3).
    pub fn on_peer_failed(&mut self, peer: I, actions: &mut Actions<I>) {
        if self.repair.pending == Some(peer) {
            // §4.3: "If the connection fails to establish, node q is
            // considered failed and removed from p's passive view; another
            // node q' is selected at random and a new attempt is made."
            self.repair.pending = None;
        }
        self.passive.remove(&peer);
        if self.active.remove(&peer) {
            self.stats.peer_failures += 1;
            self.churn_events = self.churn_events.saturating_add(1);
        }
        self.try_promote(actions);
    }

    // ------------------------------------------------------------------
    // Message handlers
    // ------------------------------------------------------------------

    /// §4.2: a `JOIN` always lands in the active view, then fans out
    /// `FORWARDJOIN` walks through every other active peer. With admission
    /// damping on, rapid re-`JOIN`s of an identifier admitted within the
    /// cooldown window are dropped (no admission, no fan-out).
    fn on_join(&mut self, new_node: I, actions: &mut Actions<I>) {
        self.stats.joins_handled += 1;
        if self.is_damped(&new_node) {
            self.events.push(MembershipEvent::JoinDamped { peer: new_node });
            return;
        }
        self.record_admission(new_node);
        self.add_to_active(new_node, actions);
        let arwl = self.config.arwl;
        for peer in self.active.to_vec() {
            if peer != new_node {
                actions.send(peer, Message::ForwardJoin { new_node, ttl: arwl });
            }
        }
    }

    /// §4.2 steps i–iv, in the paper's order: accept when the walk expires
    /// or we are nearly isolated; drop a passive-view crumb at `ttl == PRWL`;
    /// otherwise keep walking.
    fn on_forward_join(&mut self, sender: I, new_node: I, ttl: u8, actions: &mut Actions<I>) {
        self.stats.forward_joins_received += 1;
        if new_node == self.me {
            return;
        }
        if ttl == 0 || self.active.len() <= 1 {
            self.accept_forward_join(new_node, actions);
            return;
        }
        if ttl == self.config.prwl {
            self.add_to_passive(new_node);
        }
        match self.choose_walk_hop(&sender) {
            Some(next) => {
                actions.send(next, Message::ForwardJoin { new_node, ttl: ttl - 1 });
            }
            None => self.accept_forward_join(new_node, actions),
        }
    }

    /// Terminal step of a `FORWARDJOIN` walk: insert the joiner and tell it
    /// about us so the link becomes symmetric.
    fn accept_forward_join(&mut self, new_node: I, actions: &mut Actions<I>) {
        if self.active.contains(&new_node) {
            return;
        }
        self.stats.forward_joins_accepted += 1;
        if self.add_to_active(new_node, actions) {
            actions.send(new_node, Message::ForwardJoinReply);
        }
    }

    fn on_forward_join_reply(&mut self, sender: I, actions: &mut Actions<I>) {
        self.add_to_active(sender, actions);
    }

    /// §4.3: high-priority requests are always accepted (evicting a random
    /// active peer if needed); low-priority ones only with a free slot.
    /// The defenses narrow the high-priority rule: a re-admission inside
    /// the cooldown window is rejected, and eviction-causing admissions
    /// are limited to [`Config::neighbor_evict_budget`] per cycle.
    fn on_neighbor(&mut self, sender: I, priority: Priority, actions: &mut Actions<I>) {
        self.stats.neighbor_requests_received += 1;
        let budget = self.config.neighbor_evict_budget;
        let accepted = match priority {
            Priority::High => {
                if self.is_damped(&sender)
                    || (budget > 0 && self.would_evict(&sender) && self.evict_admissions >= budget)
                {
                    self.events.push(MembershipEvent::NeighborDamped { peer: sender });
                    false
                } else {
                    if self.would_evict(&sender) {
                        self.evict_admissions += 1;
                    }
                    self.record_admission(sender);
                    self.add_to_active(sender, actions);
                    true
                }
            }
            Priority::Low => {
                if self.active.contains(&sender) {
                    true
                } else if self.active.is_full() {
                    false
                } else {
                    self.add_to_active(sender, actions)
                }
            }
        };
        if accepted {
            self.stats.neighbor_requests_accepted += 1;
        }
        actions.send(sender, Message::NeighborReply { accepted });
    }

    fn on_neighbor_reply(&mut self, sender: I, accepted: bool, actions: &mut Actions<I>) {
        if self.repair.pending == Some(sender) {
            self.repair.pending = None;
        }
        if accepted {
            // §4.3: "If the node q accepts the NEIGHBOR request, p will
            // remove q's identifier from its passive view and add it to the
            // active view."
            self.passive.remove(&sender);
            if self.add_to_active(sender, actions) {
                self.stats.promotions += 1;
            }
            self.repair.tried.clear();
            if !self.active.is_full() {
                self.try_promote(actions);
            }
        } else {
            // §4.3: on rejection, select another node *without* removing the
            // rejecting node from the passive view.
            self.repair.tried.push(sender);
            self.try_promote(actions);
        }
    }

    /// Algorithm 1: the disconnected peer moves from our active to our
    /// passive view (it is still correct — only the link was closed), and we
    /// try to refill the slot.
    fn on_disconnect(&mut self, peer: I, actions: &mut Actions<I>) {
        self.stats.disconnects_received += 1;
        if self.active.remove(&peer) {
            self.add_to_passive(peer);
            self.try_promote(actions);
        }
    }

    /// §4.4: walk while `ttl > 0` and we have more than one active peer;
    /// otherwise accept, reply straight to the origin and integrate.
    fn on_shuffle(
        &mut self,
        sender: I,
        origin: I,
        ttl: u8,
        nodes: Vec<I>,
        actions: &mut Actions<I>,
    ) {
        if origin == self.me {
            return;
        }
        let ttl = ttl.saturating_sub(1);
        if ttl > 0 && self.active.len() > 1 {
            if let Some(next) = self.choose_walk_hop(&sender) {
                self.stats.shuffles_forwarded += 1;
                actions.send(next, Message::Shuffle { origin, ttl, nodes });
                return;
            }
        }
        self.stats.shuffles_accepted += 1;
        // Reply with as many passive entries as we received (the +1 accounts
        // for the origin's own identifier in the exchange list).
        let mut reply = self.passive.sample(&mut self.rng, nodes.len() + 1);
        reply.retain(|n| *n != origin);
        actions.send(origin, Message::ShuffleReply { nodes: reply.clone() });
        // Integrate the received identifiers, preferring to evict what we
        // just sent back to the origin.
        let mut sent = reply;
        self.integrate_shuffle(origin, &nodes, &mut sent);
    }

    fn on_shuffle_reply(&mut self, nodes: Vec<I>) {
        let mut sent = std::mem::take(&mut self.last_shuffle_sent);
        for node in nodes {
            self.add_to_passive_preferring(node, &mut sent);
        }
    }

    // ------------------------------------------------------------------
    // View manipulation primitives (Algorithm 1)
    // ------------------------------------------------------------------

    /// `addNodeActiveView`: inserts `peer`, evicting (and notifying) a random
    /// member when full. Returns `true` if `peer` was inserted.
    fn add_to_active(&mut self, peer: I, actions: &mut Actions<I>) -> bool {
        if peer == self.me || self.active.contains(&peer) {
            return false;
        }
        if self.active.is_full() {
            if let Some(dropped) = self.active.evict_random(&mut self.rng) {
                self.stats.active_evictions += 1;
                self.churn_events = self.churn_events.saturating_add(1);
                actions.send(dropped, Message::Disconnect);
                self.passive.insert(dropped, &mut self.rng);
            }
        }
        self.passive.remove(&peer);
        if self.repair.pending == Some(peer) {
            self.repair.pending = None;
        }
        let inserted = self.active.insert(peer);
        if inserted {
            self.record_tenure(peer);
        }
        inserted
    }

    /// `addNodePassiveView`: inserts `peer` unless it is us or already known.
    fn add_to_passive(&mut self, peer: I) {
        if peer == self.me || self.active.contains(&peer) {
            return;
        }
        self.passive.insert(peer, &mut self.rng);
    }

    fn add_to_passive_preferring(&mut self, peer: I, sent: &mut Vec<I>) {
        if peer == self.me || self.active.contains(&peer) {
            return;
        }
        self.passive.insert_preferring_eviction_of(peer, sent, &mut self.rng);
    }

    fn integrate_shuffle(&mut self, origin: I, nodes: &[I], sent: &mut Vec<I>) {
        self.add_to_passive_preferring(origin, sent);
        for node in nodes {
            self.add_to_passive_preferring(*node, sent);
        }
    }

    /// Picks the next hop of a random walk: a random active peer different
    /// from the peer the request arrived from.
    fn choose_walk_hop(&mut self, sender: &I) -> Option<I> {
        self.active.choose_excluding(&mut self.rng, sender)
    }

    /// §4.3: attempt to promote one passive-view member into the active
    /// view. No-op while a request is outstanding or the active view is
    /// full. Candidates that already rejected us are skipped until a
    /// promotion succeeds.
    fn try_promote(&mut self, actions: &mut Actions<I>) {
        if self.repair.pending.is_some() || self.active.is_full() {
            return;
        }
        let tried = self.repair.tried.clone();
        let Some(candidate) = self.passive.choose_not_in(&mut self.rng, &tried) else {
            // Passive view exhausted: forget rejections so future triggers
            // can retry the same nodes (their situation may have changed).
            self.repair.tried.clear();
            return;
        };
        let priority = if self.active.is_empty() { Priority::High } else { Priority::Low };
        self.repair.pending = Some(candidate);
        self.stats.neighbor_requests_sent += 1;
        actions.send(candidate, Message::Neighbor { priority });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32) -> HyParView<u32> {
        HyParView::new(id, Config::default(), u64::from(id) + 1).unwrap()
    }

    fn sends(actions: &Actions<u32>) -> Vec<(u32, Message<u32>)> {
        actions.as_slice().to_vec()
    }

    #[test]
    fn join_adds_contact_and_sends_join() {
        let mut n = node(1);
        let mut actions = Actions::new();
        n.join(0, &mut actions);
        assert!(n.active_view().contains(&0));
        let s = sends(&actions);
        assert_eq!(s, vec![(0, Message::Join)]);
    }

    #[test]
    fn join_to_self_is_ignored() {
        let mut n = node(1);
        let mut actions = Actions::new();
        n.join(1, &mut actions);
        assert!(n.active_view().is_empty());
        assert!(actions.is_empty());
    }

    #[test]
    fn contact_fans_out_forward_joins() {
        let mut c = node(0);
        let mut actions = Actions::new();
        // Pre-populate the contact's active view.
        for peer in [10, 11, 12] {
            c.handle_message(peer, Message::Join, &mut actions);
        }
        actions.drain().count();
        c.handle_message(99, Message::Join, &mut actions);
        assert!(c.active_view().contains(&99));
        let fj: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::ForwardJoin { .. }))
            .collect();
        assert_eq!(fj.len(), 3, "one FORWARDJOIN per other active peer");
        for (to, m) in fj {
            assert_ne!(to, 99);
            assert_eq!(m, Message::ForwardJoin { new_node: 99, ttl: 6 });
        }
    }

    #[test]
    fn join_when_full_evicts_with_disconnect() {
        let mut c = node(0);
        let mut actions = Actions::new();
        for peer in 1..=5 {
            c.handle_message(peer, Message::Join, &mut actions);
        }
        assert!(c.active_view().is_full());
        actions.drain().count();
        c.handle_message(6, Message::Join, &mut actions);
        assert!(c.active_view().contains(&6));
        assert_eq!(c.active_view().len(), 5);
        let disconnects: Vec<_> =
            sends(&actions).into_iter().filter(|(_, m)| *m == Message::Disconnect).collect();
        assert_eq!(disconnects.len(), 1);
        let (dropped, _) = disconnects[0];
        assert!(!c.active_view().contains(&dropped));
        assert!(c.passive_view().contains(&dropped), "evicted peer goes to passive view");
    }

    #[test]
    fn forward_join_ttl_zero_accepts_and_replies() {
        let mut p = node(5);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(2, Message::Join, &mut actions);
        actions.drain().count();
        p.handle_message(1, Message::ForwardJoin { new_node: 77, ttl: 0 }, &mut actions);
        assert!(p.active_view().contains(&77));
        assert!(sends(&actions).contains(&(77, Message::ForwardJoinReply)));
    }

    #[test]
    fn forward_join_with_single_active_member_accepts() {
        let mut p = node(5);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        actions.drain().count();
        // active view = {1}: #active == 1 forces acceptance regardless of ttl.
        p.handle_message(1, Message::ForwardJoin { new_node: 77, ttl: 6 }, &mut actions);
        assert!(p.active_view().contains(&77));
    }

    #[test]
    fn forward_join_at_prwl_populates_passive_and_forwards() {
        let mut p = node(5);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(2, Message::Join, &mut actions);
        p.handle_message(3, Message::Join, &mut actions);
        actions.drain().count();
        let prwl = p.config().prwl;
        p.handle_message(1, Message::ForwardJoin { new_node: 77, ttl: prwl }, &mut actions);
        assert!(!p.active_view().contains(&77));
        assert!(p.passive_view().contains(&77), "ttl == PRWL inserts into passive view");
        let fwd: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::ForwardJoin { .. }))
            .collect();
        assert_eq!(fwd.len(), 1);
        let (to, m) = &fwd[0];
        assert_ne!(*to, 1, "walk never returns to the sender");
        assert_eq!(*m, Message::ForwardJoin { new_node: 77, ttl: prwl - 1 });
    }

    #[test]
    fn forward_join_about_self_is_dropped() {
        let mut p = node(5);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(2, Message::Join, &mut actions);
        actions.drain().count();
        p.handle_message(1, Message::ForwardJoin { new_node: 5, ttl: 0 }, &mut actions);
        assert!(!p.active_view().contains(&5));
        assert!(actions.is_empty());
    }

    #[test]
    fn high_priority_neighbor_always_accepted() {
        let mut q = node(9);
        let mut actions = Actions::new();
        for peer in 1..=5 {
            q.handle_message(peer, Message::Join, &mut actions);
        }
        assert!(q.active_view().is_full());
        actions.drain().count();
        q.handle_message(50, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(q.active_view().contains(&50));
        assert!(sends(&actions).contains(&(50, Message::NeighborReply { accepted: true })));
        // Someone got evicted with a DISCONNECT.
        assert!(sends(&actions).iter().any(|(_, m)| *m == Message::Disconnect));
    }

    #[test]
    fn low_priority_neighbor_rejected_when_full() {
        let mut q = node(9);
        let mut actions = Actions::new();
        for peer in 1..=5 {
            q.handle_message(peer, Message::Join, &mut actions);
        }
        actions.drain().count();
        q.handle_message(50, Message::Neighbor { priority: Priority::Low }, &mut actions);
        assert!(!q.active_view().contains(&50));
        assert_eq!(sends(&actions), vec![(50, Message::NeighborReply { accepted: false })]);
    }

    #[test]
    fn low_priority_neighbor_accepted_with_free_slot() {
        let mut q = node(9);
        let mut actions = Actions::new();
        q.handle_message(1, Message::Join, &mut actions);
        actions.drain().count();
        q.handle_message(50, Message::Neighbor { priority: Priority::Low }, &mut actions);
        assert!(q.active_view().contains(&50));
        assert!(sends(&actions).contains(&(50, Message::NeighborReply { accepted: true })));
    }

    #[test]
    fn disconnect_moves_peer_to_passive_and_repairs() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(2, Message::Join, &mut actions);
        // Seed the passive view so a repair candidate exists.
        p.handle_message(1, Message::ShuffleReply { nodes: vec![100, 101] }, &mut actions);
        actions.drain().count();
        p.handle_message(1, Message::Disconnect, &mut actions);
        assert!(!p.active_view().contains(&1));
        assert!(p.passive_view().contains(&1), "disconnected (correct) peer moves to passive");
        let neighbor_reqs: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::Neighbor { .. }))
            .collect();
        assert_eq!(neighbor_reqs.len(), 1, "repair starts immediately");
    }

    #[test]
    fn peer_failure_triggers_high_priority_when_isolated() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(1, Message::ShuffleReply { nodes: vec![100] }, &mut actions);
        actions.drain().count();
        p.on_peer_failed(1, &mut actions);
        assert!(p.is_isolated());
        let s = sends(&actions);
        assert_eq!(s, vec![(100, Message::Neighbor { priority: Priority::High })]);
    }

    #[test]
    fn failed_promotion_candidate_is_dropped_from_passive() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(1, Message::ShuffleReply { nodes: vec![100, 101] }, &mut actions);
        actions.drain().count();
        p.on_peer_failed(1, &mut actions);
        let (candidate, _) = sends(&actions)[0].clone();
        actions.drain().count();
        // The candidate is dead too: the runtime reports the failure.
        p.on_peer_failed(candidate, &mut actions);
        assert!(!p.passive_view().contains(&candidate), "failed candidate leaves passive view");
        // A new attempt goes to the remaining candidate.
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].1, Message::Neighbor { .. }));
        assert_ne!(s[0].0, candidate);
    }

    #[test]
    fn rejected_candidate_stays_in_passive_but_is_skipped() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(1, Message::ShuffleReply { nodes: vec![100, 101] }, &mut actions);
        actions.drain().count();
        p.on_peer_failed(1, &mut actions);
        let (first, _) = sends(&actions)[0].clone();
        actions.drain().count();
        p.handle_message(first, Message::NeighborReply { accepted: false }, &mut actions);
        assert!(p.passive_view().contains(&first), "rejecting node stays in passive view");
        let s = sends(&actions);
        assert_eq!(s.len(), 1, "retry with a different candidate");
        assert_ne!(s[0].0, first);
    }

    #[test]
    fn accepted_promotion_moves_candidate_to_active() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(1, Message::ShuffleReply { nodes: vec![100] }, &mut actions);
        actions.drain().count();
        p.on_peer_failed(1, &mut actions);
        actions.drain().count();
        p.handle_message(100, Message::NeighborReply { accepted: true }, &mut actions);
        assert!(p.active_view().contains(&100));
        assert!(!p.passive_view().contains(&100));
        assert_eq!(p.stats().promotions, 1);
    }

    #[test]
    fn shuffle_tick_emits_shuffle_with_paper_payload() {
        let mut p = node(3);
        let mut actions = Actions::new();
        for peer in [1, 2, 3, 4] {
            p.handle_message(peer, Message::Join, &mut actions);
        }
        p.handle_message(1, Message::ShuffleReply { nodes: (100..110).collect() }, &mut actions);
        actions.drain().count();
        p.shuffle_tick(&mut actions);
        let shuffles: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|(to, m)| match m {
                Message::Shuffle { origin, ttl, nodes } => Some((to, origin, ttl, nodes)),
                _ => None,
            })
            .collect();
        assert_eq!(shuffles.len(), 1);
        let (to, origin, ttl, nodes) = &shuffles[0];
        assert!(p.active_view().contains(to));
        assert_eq!(*origin, 3);
        assert_eq!(*ttl, p.config().shuffle_ttl);
        // ka=3 active (but one active member is the target, so <= 3) + kp=4 passive.
        assert!(nodes.len() <= 7);
        assert!(nodes.len() >= 4, "got {nodes:?}");
        assert!(!nodes.contains(to), "target not included in exchange list");
        assert!(!nodes.contains(&3), "own id travels as origin, not in list");
    }

    #[test]
    fn shuffle_tick_without_active_view_is_silent() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.shuffle_tick(&mut actions);
        assert!(actions.is_empty());
        assert_eq!(p.stats().shuffles_started, 0);
    }

    #[test]
    fn shuffle_walk_forwards_while_ttl_remains() {
        let mut q = node(7);
        let mut actions = Actions::new();
        q.handle_message(1, Message::Join, &mut actions);
        q.handle_message(2, Message::Join, &mut actions);
        q.handle_message(3, Message::Join, &mut actions);
        actions.drain().count();
        q.handle_message(
            1,
            Message::Shuffle { origin: 50, ttl: 4, nodes: vec![60, 61] },
            &mut actions,
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        let (to, m) = &s[0];
        assert_ne!(*to, 1, "walk does not go back to sender");
        assert_eq!(*m, Message::Shuffle { origin: 50, ttl: 3, nodes: vec![60, 61] });
        assert!(!q.passive_view().contains(&60), "forwarding nodes do not integrate");
    }

    #[test]
    fn shuffle_accepted_at_ttl_zero_replies_to_origin_and_integrates() {
        let mut q = node(7);
        let mut actions = Actions::new();
        q.handle_message(1, Message::Join, &mut actions);
        q.handle_message(2, Message::Join, &mut actions);
        q.handle_message(1, Message::ShuffleReply { nodes: vec![200, 201, 202] }, &mut actions);
        actions.drain().count();
        q.handle_message(
            2,
            Message::Shuffle { origin: 50, ttl: 1, nodes: vec![60, 61] },
            &mut actions,
        );
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        let (to, m) = &s[0];
        assert_eq!(*to, 50, "reply goes directly to the origin");
        match m {
            Message::ShuffleReply { nodes } => {
                assert!(nodes.len() <= 3, "reply bounded by request size + 1");
                assert!(!nodes.contains(&50));
            }
            other => panic!("expected ShuffleReply, got {other:?}"),
        }
        assert!(q.passive_view().contains(&50), "origin integrated into passive view");
        assert!(q.passive_view().contains(&60));
        assert!(q.passive_view().contains(&61));
    }

    #[test]
    fn shuffle_from_self_origin_is_dropped() {
        let mut q = node(7);
        let mut actions = Actions::new();
        q.handle_message(1, Message::Join, &mut actions);
        actions.drain().count();
        q.handle_message(1, Message::Shuffle { origin: 7, ttl: 2, nodes: vec![60] }, &mut actions);
        assert!(actions.is_empty());
        assert!(!q.passive_view().contains(&60));
    }

    #[test]
    fn shuffle_reply_integration_prefers_evicting_sent_ids() {
        let mut cfg_small = Config::default().with_passive_capacity(4);
        cfg_small.shuffle_passive = 4;
        let mut p_small = HyParView::new(3u32, cfg_small, 7).unwrap();
        let mut actions = Actions::new();
        p_small.handle_message(1, Message::Join, &mut actions);
        p_small.handle_message(
            1,
            Message::ShuffleReply { nodes: vec![100, 101, 102, 103] },
            &mut actions,
        );
        assert_eq!(p_small.passive_view().len(), 4);
        actions.drain().count();
        let before = *p_small.stats();
        p_small.shuffle_tick(&mut actions);
        assert_eq!(p_small.stats().shuffles_started, before.shuffles_started + 1);
        actions.drain().count();
        // The reply brings fresh ids; the sent ones should be evicted first.
        p_small.handle_message(
            1,
            Message::ShuffleReply { nodes: vec![300, 301, 302, 303] },
            &mut actions,
        );
        assert_eq!(p_small.passive_view().len(), 4);
        for id in [300, 301, 302, 303] {
            assert!(p_small.passive_view().contains(&id));
        }
    }

    #[test]
    fn leave_disconnects_all_active_peers() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        p.handle_message(2, Message::Join, &mut actions);
        actions.drain().count();
        p.leave(&mut actions);
        assert!(p.active_view().is_empty());
        let disconnects: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| *m == Message::Disconnect)
            .map(|(to, _)| to)
            .collect();
        let mut sorted = disconnects.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn broadcast_targets_exclude_sender() {
        let mut p = node(3);
        let mut actions = Actions::new();
        for peer in [1, 2, 4] {
            p.handle_message(peer, Message::Join, &mut actions);
        }
        let mut targets = p.broadcast_targets(Some(2));
        targets.sort_unstable();
        assert_eq!(targets, vec![1, 4]);
        let mut all = p.broadcast_targets(None);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 4]);
    }

    #[test]
    fn node_never_adds_itself_anywhere() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(3, Message::Join, &mut actions);
        p.handle_message(1, Message::ShuffleReply { nodes: vec![3, 3, 3] }, &mut actions);
        assert!(!p.active_view().contains(&3));
        assert!(!p.passive_view().contains(&3));
    }

    #[test]
    fn active_and_passive_views_stay_disjoint() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::ShuffleReply { nodes: vec![10, 11] }, &mut actions);
        assert!(p.passive_view().contains(&10));
        p.handle_message(10, Message::Join, &mut actions);
        assert!(p.active_view().contains(&10));
        assert!(!p.passive_view().contains(&10), "promotion removes from passive");
    }

    #[test]
    fn low_priority_neighbor_from_existing_member_is_accepted() {
        let mut q = node(9);
        let mut actions = Actions::new();
        q.handle_message(1, Message::Join, &mut actions);
        actions.drain().count();
        // Peer 1 is already in the active view; a duplicate request must be
        // acknowledged positively without disturbing the view.
        q.handle_message(1, Message::Neighbor { priority: Priority::Low }, &mut actions);
        assert!(sends(&actions).contains(&(1, Message::NeighborReply { accepted: true })));
        assert_eq!(q.active_view().len(), 1);
    }

    #[test]
    fn message_claiming_to_be_from_self_is_dropped() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(3, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(actions.is_empty(), "no reply to a self-addressed message");
        assert!(p.active_view().is_empty());
    }

    #[test]
    fn unsolicited_neighbor_reply_is_harmless() {
        let mut p = node(3);
        let mut actions = Actions::new();
        // No repair in flight: an accepted=false reply from a stranger must
        // not trigger new requests (the passive view is empty anyway).
        p.handle_message(42, Message::NeighborReply { accepted: false }, &mut actions);
        assert!(actions.is_empty());
        // accepted=true from a stranger adds them (symmetric link exists on
        // their side) — bounded by capacity like everything else.
        p.handle_message(42, Message::NeighborReply { accepted: true }, &mut actions);
        assert!(p.active_view().contains(&42));
    }

    #[test]
    fn disconnect_from_non_member_is_ignored() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::Join, &mut actions);
        actions.drain().count();
        p.handle_message(77, Message::Disconnect, &mut actions);
        assert!(actions.is_empty());
        assert!(!p.passive_view().contains(&77), "stranger not adopted into passive view");
    }

    #[test]
    fn promotion_chain_refills_multiple_slots() {
        let mut p = node(3);
        let mut actions = Actions::new();
        for peer in [1, 2, 3, 4] {
            p.handle_message(peer, Message::Join, &mut actions);
        }
        p.handle_message(1, Message::ShuffleReply { nodes: (100..110).collect() }, &mut actions);
        actions.drain().count();
        // Two members fail back to back; only one NEIGHBOR request may be
        // outstanding at a time.
        p.on_peer_failed(1, &mut actions);
        p.on_peer_failed(2, &mut actions);
        let first_requests: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::Neighbor { .. }))
            .collect();
        assert_eq!(first_requests.len(), 1, "single in-flight repair request");
        let (candidate, _) = first_requests[0];
        actions.drain().count();
        // The accept triggers the next promotion immediately.
        p.handle_message(candidate, Message::NeighborReply { accepted: true }, &mut actions);
        let followups: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, Message::Neighbor { .. }))
            .collect();
        assert_eq!(followups.len(), 1, "chain continues while slots remain");
    }

    #[test]
    fn shuffle_reply_from_unexpected_peer_still_bounded() {
        let mut p = node(3);
        let mut actions = Actions::new();
        p.handle_message(1, Message::ShuffleReply { nodes: (0..200).collect() }, &mut actions);
        assert!(p.passive_view().len() <= p.config().passive_capacity);
    }

    #[test]
    fn stats_track_protocol_activity() {
        let mut c = node(0);
        let mut actions = Actions::new();
        for peer in 1..=6 {
            c.handle_message(peer, Message::Join, &mut actions);
        }
        assert_eq!(c.stats().joins_handled, 6);
        assert_eq!(c.stats().active_evictions, 1, "sixth join evicted someone");
        let before = *c.stats();
        c.handle_message(1, Message::ForwardJoin { new_node: 50, ttl: 0 }, &mut actions);
        let after = *c.stats();
        assert_eq!(after.forward_joins_received, before.forward_joins_received + 1);
        assert_eq!(after.joins_handled, before.joins_handled, "only the walk was counted");
    }

    // ------------------------------------------------------------------
    // Overlay defenses (all off by default)
    // ------------------------------------------------------------------

    fn defended(id: u32, config: Config) -> HyParView<u32> {
        HyParView::new(id, config, u64::from(id) + 1).unwrap()
    }

    #[test]
    fn defenses_off_buffer_no_events() {
        let mut n = node(0);
        let mut actions = Actions::new();
        for peer in 1..=8 {
            n.handle_message(peer, Message::Join, &mut actions);
            n.handle_message(peer, Message::Join, &mut actions);
            n.handle_message(peer, Message::Neighbor { priority: Priority::High }, &mut actions);
        }
        n.shuffle_tick(&mut actions);
        assert!(n.take_events().is_empty());
        assert_eq!(n.cycle(), 1);
    }

    #[test]
    fn admission_cooldown_damps_rapid_rejoins() {
        let mut n = defended(0, Config::default().with_admission_cooldown(10));
        let mut actions = Actions::new();
        n.handle_message(1, Message::Join, &mut actions);
        assert!(n.active_view().contains(&1), "first JOIN admitted normally");
        actions.drain().count();
        // The attacker churns and re-joins within the window.
        n.handle_message(1, Message::Join, &mut actions);
        assert!(actions.is_empty(), "damped JOIN produces no fan-out");
        assert_eq!(n.take_events(), vec![MembershipEvent::JoinDamped { peer: 1 }]);
        // A different first-time joiner is unaffected.
        n.handle_message(2, Message::Join, &mut actions);
        assert!(n.active_view().contains(&2));
        assert!(n.take_events().is_empty());
    }

    #[test]
    fn admission_cooldown_expires_after_window() {
        let mut n = defended(0, Config::default().with_admission_cooldown(2));
        let mut actions = Actions::new();
        n.handle_message(1, Message::Join, &mut actions);
        n.handle_message(2, Message::Join, &mut actions);
        for _ in 0..3 {
            n.shuffle_tick(&mut actions);
        }
        actions.drain().count();
        n.handle_message(1, Message::Join, &mut actions);
        assert!(n.take_events().is_empty(), "cooldown expired: JOIN admitted again");
    }

    #[test]
    fn cooldown_damps_high_priority_neighbor_readmission() {
        let mut n = defended(0, Config::default().with_admission_cooldown(10));
        let mut actions = Actions::new();
        n.handle_message(1, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(n.active_view().contains(&1));
        actions.drain().count();
        n.handle_message(1, Message::Disconnect, &mut actions);
        actions.drain().count();
        n.handle_message(1, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(!n.active_view().contains(&1), "re-admission inside the window rejected");
        assert!(sends(&actions).contains(&(1, Message::NeighborReply { accepted: false })));
        assert_eq!(n.take_events(), vec![MembershipEvent::NeighborDamped { peer: 1 }]);
    }

    #[test]
    fn neighbor_evict_budget_limits_eviction_admissions_per_cycle() {
        let mut n = defended(0, Config::default().with_neighbor_evict_budget(1));
        let mut actions = Actions::new();
        for peer in 1..=5 {
            n.handle_message(peer, Message::Join, &mut actions);
        }
        assert!(n.active_view().is_full());
        n.shuffle_tick(&mut actions);
        actions.drain().count();
        // First eviction-causing request spends the budget …
        n.handle_message(50, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(n.active_view().contains(&50));
        // … further ones are rejected until the next tick.
        n.handle_message(51, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(!n.active_view().contains(&51));
        assert!(sends(&actions).contains(&(51, Message::NeighborReply { accepted: false })));
        assert_eq!(n.take_events(), vec![MembershipEvent::NeighborDamped { peer: 51 }]);
        n.shuffle_tick(&mut actions);
        actions.drain().count();
        n.handle_message(51, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(n.active_view().contains(&51), "budget resets at the tick");
    }

    #[test]
    fn evict_budget_exempts_free_slots_and_existing_members() {
        let mut n = defended(0, Config::default().with_neighbor_evict_budget(1));
        let mut actions = Actions::new();
        // Free slots: several high-priority admissions in one cycle, none
        // evicting, all accepted.
        for peer in 1..=4 {
            n.handle_message(peer, Message::Neighbor { priority: Priority::High }, &mut actions);
            assert!(n.active_view().contains(&peer));
        }
        // Re-confirming an existing member spends nothing either.
        n.handle_message(1, Message::Neighbor { priority: Priority::High }, &mut actions);
        assert!(n.take_events().is_empty());
    }

    #[test]
    fn tenure_swap_rotates_longest_tenured_member() {
        let mut n = defended(0, Config::default().with_max_active_tenure(3));
        let mut actions = Actions::new();
        n.handle_message(1, Message::Join, &mut actions);
        n.shuffle_tick(&mut actions); // cycle 1
        n.handle_message(2, Message::Join, &mut actions);
        // Provide a passive-view replacement candidate.
        n.handle_message(2, Message::ShuffleReply { nodes: vec![100] }, &mut actions);
        actions.drain().count();
        n.shuffle_tick(&mut actions); // cycle 2: tenure(1) = 2 < 3, no swap yet
        assert!(n.active_view().contains(&1));
        actions.drain().count();
        n.shuffle_tick(&mut actions); // cycle 3: tenure(1) = 3, swap fires
        assert!(!n.active_view().contains(&1), "longest-tenured member rotated out");
        assert!(n.passive_view().contains(&1), "swapped member lands in passive view");
        assert!(sends(&actions).iter().any(|(to, m)| *to == 1 && *m == Message::Disconnect));
        assert!(n.take_events().contains(&MembershipEvent::TenureSwapped { peer: 1 }));
    }

    #[test]
    fn tenure_swap_waits_for_replacement_candidates() {
        let mut n = defended(0, Config::default().with_max_active_tenure(1));
        let mut actions = Actions::new();
        n.handle_message(1, Message::Join, &mut actions);
        for _ in 0..5 {
            n.shuffle_tick(&mut actions);
        }
        assert!(n.active_view().contains(&1), "no passive candidate: no swap-out");
        assert!(n.take_events().is_empty());
    }

    #[test]
    fn churn_boost_sends_extra_shuffles() {
        let mut n = defended(0, Config::default().with_churn_shuffle_boost(2));
        let mut actions = Actions::new();
        for peer in 1..=5 {
            n.handle_message(peer, Message::Join, &mut actions);
        }
        // A sixth join evicts someone: churn observed this cycle.
        n.handle_message(6, Message::Join, &mut actions);
        actions.drain().count();
        n.shuffle_tick(&mut actions);
        let shuffles =
            sends(&actions).iter().filter(|(_, m)| matches!(m, Message::Shuffle { .. })).count();
        assert_eq!(shuffles, 3, "base shuffle plus two boost shuffles");
        let boosts =
            n.take_events().iter().filter(|e| matches!(e, MembershipEvent::ShuffleBoosted)).count();
        assert_eq!(boosts, 2);
        actions.drain().count();
        // A calm cycle reverts to the base rate.
        n.shuffle_tick(&mut actions);
        let calm =
            sends(&actions).iter().filter(|(_, m)| matches!(m, Message::Shuffle { .. })).count();
        assert_eq!(calm, 1);
    }

    #[test]
    fn instance_is_deterministic_given_seed() {
        let trace = |seed: u64| -> Vec<String> {
            let mut p = HyParView::new(3u32, Config::default(), seed).unwrap();
            let mut actions = Actions::new();
            let mut log = Vec::new();
            for peer in 1..=8 {
                p.handle_message(peer, Message::Join, &mut actions);
            }
            p.handle_message(
                1,
                Message::ShuffleReply { nodes: (100..120).collect() },
                &mut actions,
            );
            p.shuffle_tick(&mut actions);
            for a in actions.drain() {
                log.push(format!("{a:?}"));
            }
            log
        };
        assert_eq!(trace(7), trace(7));
        // Different seeds almost surely diverge (eviction choices differ).
        // We only assert equality for equal seeds — inequality is not guaranteed.
    }
}
