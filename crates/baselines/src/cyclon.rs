//! The Cyclon membership protocol (Voulgaris, Gavidia, van Steen, 2005),
//! the *cyclic strategy* baseline of the HyParView evaluation.
//!
//! Cyclon maintains one fixed-size partial view of `(id, age)` entries.
//! Every cycle a node performs an *enhanced shuffle*: it picks the oldest
//! entry `q`, removes it, and exchanges a sample of its view (containing its
//! own fresh identifier) with `q`. Joins are performed with fixed-length
//! random walks that each end in a shuffle of length one, preserving the
//! in-degree distribution.
//!
//! The paper's configuration (§5.1): view size 35, shuffle length 14, join
//! random-walk TTL 5.

use crate::config::{CyclonConfig, CYCLON_JOIN_WALK_TTL, CYCLON_SHUFFLE_LEN};
use hyparview_core::Identity;
use hyparview_gossip::{Membership, Outbox};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A `(peer, age)` pair stored in the Cyclon view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<I> {
    /// Peer identifier.
    pub id: I,
    /// Number of cycles since this entry was created at `id`.
    pub age: u32,
}

impl<I: Identity> Entry<I> {
    /// Creates a fresh (age 0) entry for `id`.
    pub fn fresh(id: I) -> Self {
        Entry { id, age: 0 }
    }
}

/// Cyclon wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CyclonMessage<I> {
    /// Shuffle initiated by the sender; `entries` contains the sender's own
    /// fresh entry plus a random sample of its view.
    ShuffleRequest {
        /// Exchanged entries (first entry is the initiator itself).
        entries: Vec<Entry<I>>,
    },
    /// Answer to [`CyclonMessage::ShuffleRequest`] with the receiver's own
    /// random sample.
    ShuffleReply {
        /// Exchanged entries.
        entries: Vec<Entry<I>>,
    },
    /// Join random walk: forwarded `ttl` hops, then the final node swaps one
    /// of its entries for the joiner.
    JoinWalk {
        /// The joining node.
        joiner: I,
        /// Remaining hops.
        ttl: u8,
    },
    /// Sent to the joiner by a walk-end node: the entry it displaced (used
    /// to fill the joiner's view).
    JoinReply {
        /// Entry displaced in favour of the joiner (or the acceptor itself
        /// when its view had room).
        entry: Entry<I>,
    },
}

/// A Cyclon protocol instance for one node.
///
/// # Examples
///
/// ```
/// use hyparview_baselines::{Cyclon, CyclonConfig};
/// use hyparview_gossip::{Membership, Outbox};
///
/// let mut node = Cyclon::new(1u32, CyclonConfig::default(), 7);
/// let mut out = Outbox::new();
/// node.join(0, &mut out);
/// assert!(!out.is_empty(), "join walk messages sent to the introducer");
/// ```
#[derive(Debug, Clone)]
pub struct Cyclon<I> {
    me: I,
    config: CyclonConfig,
    view: Vec<Entry<I>>,
    rng: StdRng,
    /// Entries sent in the last shuffle we initiated; the replacement
    /// candidates when the reply is integrated.
    pending_sent: Vec<I>,
    /// Number of shuffles initiated (metrics).
    shuffles_started: u64,
}

impl<I: Identity> Cyclon<I> {
    /// Creates a Cyclon instance for node `me`.
    pub fn new(me: I, config: CyclonConfig, seed: u64) -> Self {
        Cyclon {
            me,
            view: Vec::with_capacity(config.view_capacity),
            rng: StdRng::seed_from_u64(seed),
            pending_sent: Vec::new(),
            shuffles_started: 0,
            config,
        }
    }

    /// The node's configuration.
    pub fn config(&self) -> &CyclonConfig {
        &self.config
    }

    /// Current view entries (unspecified order).
    pub fn view(&self) -> &[Entry<I>] {
        &self.view
    }

    /// Identifiers currently in the view.
    pub fn view_ids(&self) -> Vec<I> {
        self.view.iter().map(|e| e.id).collect()
    }

    /// Number of shuffles this node has initiated.
    pub fn shuffles_started(&self) -> u64 {
        self.shuffles_started
    }

    /// Removes `peer` from the view (used by CyclonAcked's failure
    /// detection). Returns `true` if it was present.
    pub fn remove_peer(&mut self, peer: I) -> bool {
        let before = self.view.len();
        self.view.retain(|e| e.id != peer);
        self.view.len() != before
    }

    fn contains(&self, id: I) -> bool {
        self.view.iter().any(|e| e.id == id)
    }

    /// Inserts `entry` following Cyclon's integration rule: use an empty
    /// slot first, otherwise replace one of the entries in `replaceable`
    /// (ids we just sent to the peer). Entries pointing at ourselves or at
    /// peers already in the view are discarded.
    fn integrate(&mut self, entry: Entry<I>, replaceable: &mut Vec<I>) {
        if entry.id == self.me || self.contains(entry.id) {
            return;
        }
        if self.view.len() < self.config.view_capacity {
            self.view.push(entry);
            return;
        }
        while let Some(victim) = replaceable.pop() {
            if let Some(pos) = self.view.iter().position(|e| e.id == victim) {
                self.view[pos] = entry;
                return;
            }
        }
        // View full and nothing replaceable: the entry is dropped (Cyclon
        // never evicts arbitrary entries during integration).
    }

    /// Random sample of up to `count` entries, excluding `excluded`.
    fn sample_entries(&mut self, count: usize, excluded: Option<I>) -> Vec<Entry<I>> {
        let mut candidates: Vec<Entry<I>> =
            self.view.iter().filter(|e| Some(e.id) != excluded).copied().collect();
        candidates.shuffle(&mut self.rng);
        candidates.truncate(count);
        candidates
    }

    fn oldest(&self) -> Option<Entry<I>> {
        self.view.iter().max_by_key(|e| e.age).copied()
    }

    fn on_shuffle_request(
        &mut self,
        from: I,
        entries: Vec<Entry<I>>,
        out: &mut Outbox<I, CyclonMessage<I>>,
    ) {
        // Reply with our own random sample of the same size.
        let reply = self.sample_entries(entries.len(), Some(from));
        let mut replaceable: Vec<I> = reply.iter().map(|e| e.id).collect();
        out.send(from, CyclonMessage::ShuffleReply { entries: reply });
        for entry in entries {
            self.integrate(entry, &mut replaceable);
        }
    }

    fn on_shuffle_reply(&mut self, entries: Vec<Entry<I>>) {
        let mut replaceable = std::mem::take(&mut self.pending_sent);
        for entry in entries {
            self.integrate(entry, &mut replaceable);
        }
    }

    fn on_join_walk(&mut self, from: I, joiner: I, ttl: u8, out: &mut Outbox<I, CyclonMessage<I>>) {
        if joiner == self.me {
            return;
        }
        // Forward while hops remain and a next hop exists.
        if ttl > 0 {
            let next = {
                let candidates: Vec<I> = self
                    .view
                    .iter()
                    .map(|e| e.id)
                    .filter(|id| *id != from && *id != joiner)
                    .collect();
                candidates.choose(&mut self.rng).copied()
            };
            if let Some(next) = next {
                out.send(next, CyclonMessage::JoinWalk { joiner, ttl: ttl - 1 });
                return;
            }
        }
        // Walk ends here: shuffle of length one with the joiner.
        if self.contains(joiner) {
            return;
        }
        let displaced = if self.view.len() >= self.config.view_capacity {
            let idx = self.rng.gen_range(0..self.view.len());
            let displaced = self.view[idx];
            self.view[idx] = Entry::fresh(joiner);
            displaced
        } else {
            self.view.push(Entry::fresh(joiner));
            Entry::fresh(self.me)
        };
        let entry = if displaced.id == joiner { Entry::fresh(self.me) } else { displaced };
        out.send(joiner, CyclonMessage::JoinReply { entry });
    }
}

impl<I: Identity> Membership<I> for Cyclon<I> {
    type Message = CyclonMessage<I>;

    /// Join via 5-hop random walks (the paper's TTL) started at the
    /// introducer — one walk per view slot, so a fully-joined node ends up
    /// with a full view without inflating anyone's in-degree.
    fn join(&mut self, contact: I, out: &mut Outbox<I, Self::Message>) {
        if contact == self.me {
            return;
        }
        if !self.contains(contact) && self.view.len() < self.config.view_capacity {
            self.view.push(Entry::fresh(contact));
        }
        for _ in 0..self.config.view_capacity {
            out.send(
                contact,
                CyclonMessage::JoinWalk { joiner: self.me, ttl: CYCLON_JOIN_WALK_TTL },
            );
        }
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
            CyclonMessage::ShuffleRequest { entries } => {
                self.on_shuffle_request(from, entries, out)
            }
            CyclonMessage::ShuffleReply { entries } => self.on_shuffle_reply(entries),
            CyclonMessage::JoinWalk { joiner, ttl } => self.on_join_walk(from, joiner, ttl, out),
            CyclonMessage::JoinReply { entry } => {
                let mut none = Vec::new();
                self.integrate(entry, &mut none);
            }
        }
    }

    /// One Cyclon cycle: age all entries, remove the oldest peer `q`, and
    /// send it a sample headed by our own fresh entry.
    fn on_cycle(&mut self, out: &mut Outbox<I, Self::Message>) {
        for entry in &mut self.view {
            entry.age = entry.age.saturating_add(1);
        }
        let Some(oldest) = self.oldest() else { return };
        self.shuffles_started += 1;
        // Removing the oldest entry up front is Cyclon's self-healing: if q
        // is dead and never answers, it is already gone from the view.
        self.view.retain(|e| e.id != oldest.id);
        let mut entries = self.sample_entries(CYCLON_SHUFFLE_LEN - 1, None);
        entries.insert(0, Entry::fresh(self.me));
        self.pending_sent = entries.iter().map(|e| e.id).collect();
        out.send(oldest.id, CyclonMessage::ShuffleRequest { entries });
    }

    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<I>) -> Vec<I> {
        let mut ids: Vec<I> =
            self.view.iter().map(|e| e.id).filter(|id| Some(*id) != exclude).collect();
        ids.shuffle(&mut self.rng);
        ids.truncate(fanout);
        ids
    }

    fn out_view(&self) -> Vec<I> {
        self.view_ids()
    }

    /// The view holds at most [`CyclonConfig::view_capacity`] entries and
    /// none for this node. Repeats are left to the property tests: this
    /// runs after every debug step, and a scan for them is quadratic in
    /// the view.
    fn check_invariants(&self) {
        let mut holds = self.view.len() <= self.config.view_capacity;
        let mut i = 0;
        while holds && i < self.view.len() {
            holds = self.view[i].id != self.me;
            i += 1;
        }
        assert!(
            holds,
            "{:?} breaks a view invariant: view {:?} (capacity {})",
            self.me,
            self.view_ids(),
            self.config.view_capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32) -> Cyclon<u32> {
        Cyclon::new(id, CyclonConfig::default(), u64::from(id) + 1)
    }

    fn small(id: u32, capacity: usize) -> Cyclon<u32> {
        Cyclon::new(id, CyclonConfig::default().with_view_capacity(capacity), u64::from(id) + 1)
    }

    #[test]
    fn join_sends_walks_and_seeds_view() {
        let mut n = node(1);
        let mut out = Outbox::new();
        n.join(0, &mut out);
        assert!(n.view_ids().contains(&0));
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), CyclonConfig::default().view_capacity);
        for (to, m) in msgs {
            assert_eq!(to, 0);
            assert_eq!(m, CyclonMessage::JoinWalk { joiner: 1, ttl: 5 });
        }
    }

    #[test]
    fn join_to_self_ignored() {
        let mut n = node(1);
        let mut out = Outbox::new();
        n.join(1, &mut out);
        assert!(out.is_empty());
        assert!(n.view().is_empty());
    }

    #[test]
    fn walk_forwards_with_decremented_ttl() {
        let mut n = node(5);
        let mut out = Outbox::new();
        n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(7) }, &mut out);
        n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(8) }, &mut out);
        n.handle_message(2, CyclonMessage::JoinWalk { joiner: 99, ttl: 3 }, &mut out);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        let (to, m) = &msgs[0];
        assert!(*to == 7 || *to == 8, "forwarded to a view member, not back to sender");
        assert_eq!(*m, CyclonMessage::JoinWalk { joiner: 99, ttl: 2 });
        assert!(!n.view_ids().contains(&99), "forwarding nodes do not adopt the joiner");
    }

    #[test]
    fn walk_end_swaps_entry_and_replies_to_joiner() {
        let mut n = small(5, 2);
        let mut out = Outbox::new();
        n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(7) }, &mut out);
        n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(8) }, &mut out);
        assert_eq!(n.view().len(), 2);
        n.handle_message(2, CyclonMessage::JoinWalk { joiner: 99, ttl: 0 }, &mut out);
        assert!(n.view_ids().contains(&99));
        assert_eq!(n.view().len(), 2, "swap keeps the view size constant");
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        let (to, m) = &msgs[0];
        assert_eq!(*to, 99);
        match m {
            CyclonMessage::JoinReply { entry } => {
                assert!(entry.id == 7 || entry.id == 8, "joiner receives the displaced entry");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn walk_end_with_room_adds_without_displacing() {
        let mut n = node(5);
        let mut out = Outbox::new();
        n.handle_message(2, CyclonMessage::JoinWalk { joiner: 99, ttl: 0 }, &mut out);
        assert!(n.view_ids().contains(&99));
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].1, CyclonMessage::JoinReply { entry: Entry::fresh(5) });
    }

    #[test]
    fn cycle_removes_oldest_and_sends_sample_headed_by_self() {
        let mut n = node(5);
        let mut out = Outbox::new();
        for peer in 10..30 {
            n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(peer) }, &mut out);
        }
        // Age entry 10 artificially by running a first cycle, then check.
        n.on_cycle(&mut out);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        let (to, m) = &msgs[0];
        assert!(!n.view_ids().contains(to), "shuffle target was removed from the view");
        match m {
            CyclonMessage::ShuffleRequest { entries } => {
                assert!(entries.len() <= CYCLON_SHUFFLE_LEN);
                assert_eq!(entries[0], Entry::fresh(5), "own fresh entry heads the sample");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cycle_with_empty_view_is_silent() {
        let mut n = node(5);
        let mut out = Outbox::new();
        n.on_cycle(&mut out);
        assert!(out.is_empty());
        assert_eq!(n.shuffles_started(), 0);
    }

    #[test]
    fn shuffle_request_gets_reply_of_same_size() {
        let mut n = node(5);
        let mut out = Outbox::new();
        for peer in 10..20 {
            n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(peer) }, &mut out);
        }
        let incoming = vec![Entry::fresh(40), Entry::fresh(41), Entry::fresh(42)];
        n.handle_message(40, CyclonMessage::ShuffleRequest { entries: incoming }, &mut out);
        let msgs: Vec<_> = out.drain().collect();
        assert_eq!(msgs.len(), 1);
        let (to, m) = &msgs[0];
        assert_eq!(*to, 40);
        match m {
            CyclonMessage::ShuffleReply { entries } => assert!(entries.len() <= 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(n.view_ids().contains(&41), "received entries integrated");
    }

    #[test]
    fn integration_discards_self_and_duplicates() {
        let mut n = node(5);
        let mut out = Outbox::new();
        n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(7) }, &mut out);
        n.handle_message(
            2,
            CyclonMessage::ShuffleReply {
                entries: vec![Entry::fresh(5), Entry::fresh(7), Entry::fresh(9)],
            },
            &mut out,
        );
        let ids = n.view_ids();
        assert!(!ids.contains(&5), "own id discarded");
        assert_eq!(ids.iter().filter(|i| **i == 7).count(), 1, "duplicate discarded");
        assert!(ids.contains(&9));
    }

    #[test]
    fn integration_replaces_only_sent_entries_when_full() {
        let mut n = small(5, 3);
        let mut out = Outbox::new();
        for peer in [10, 11, 12] {
            n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(peer) }, &mut out);
        }
        // Incoming shuffle of size 2: we reply with 2 of ours, and those two
        // are the only replaceable slots.
        n.handle_message(
            40,
            CyclonMessage::ShuffleRequest { entries: vec![Entry::fresh(40), Entry::fresh(41)] },
            &mut out,
        );
        assert_eq!(n.view().len(), 3, "view size never exceeds capacity");
        let replies: Vec<_> = out.drain().collect();
        let sent_ids: Vec<u32> = match &replies[0].1 {
            CyclonMessage::ShuffleReply { entries } => entries.iter().map(|e| e.id).collect(),
            other => panic!("unexpected {other:?}"),
        };
        // Entries not sent must still be present.
        for id in [10, 11, 12] {
            if !sent_ids.contains(&id) {
                assert!(n.view_ids().contains(&id), "unsent entry {id} must survive");
            }
        }
    }

    #[test]
    fn ages_increase_each_cycle() {
        let mut n = node(5);
        let mut out = Outbox::new();
        for peer in [10, 11] {
            n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(peer) }, &mut out);
        }
        n.on_cycle(&mut out);
        assert!(n.view().iter().all(|e| e.age >= 1), "all surviving entries aged");
    }

    #[test]
    fn broadcast_targets_sample_without_replacement() {
        let mut n = node(5);
        let mut out = Outbox::new();
        for peer in 10..20 {
            n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(peer) }, &mut out);
        }
        let targets = n.broadcast_targets(4, Some(15));
        assert_eq!(targets.len(), 4);
        assert!(!targets.contains(&15));
        let mut dedup = targets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn plain_cyclon_does_not_detect_failures() {
        let n = node(5);
        assert!(!n.detects_send_failures());
    }

    #[test]
    fn remove_peer_works() {
        let mut n = node(5);
        let mut out = Outbox::new();
        n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(9) }, &mut out);
        assert!(n.remove_peer(9));
        assert!(!n.remove_peer(9));
        assert!(n.view().is_empty());
    }
}
