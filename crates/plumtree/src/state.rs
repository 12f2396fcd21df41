//! The sans-io Plumtree state machine.
//!
//! It owns no clock and arms no timer of its own. The runtime arms what a
//! [`TimerRequest`] asks for, and it tells the state the time
//! ([`PlumtreeState::advance`], in the same timer units) before a step that
//! can store a broadcast; the message store ages out by that reading.
//!
//! An id is never announced to a peer known to hold it: one whose `IHave`
//! was waiting when the payload arrived is skipped, and one whose `IHave` or
//! payload lands before the flush has its queued announcement taken back
//! ([`PlumtreeStats::ihave_suppressed`] counts both). The knowledge is what
//! the node kept anyway: pending announcers and the per-peer flush queue.
//!
//! A payload is kept only while a peer may still graft it from this node. A
//! `Graft` goes to an announcer of the id (the missing-message timer pulls
//! from nobody else), and only from a peer that does not hold the id yet.
//! So the payload stays while some peer it was announced to (queued or
//! sent) has not shown that it holds the id, by an `IHave` or a payload of
//! it, and has not left the view; with the last such peer it goes. Over
//! §4.1's TCP links a peer's frames arrive in order, so its `Graft` always
//! comes before its own `IHave` or payload of the id. A first receipt that
//! announces the id to no one (every lazy peer holds it, or there is none)
//! keeps no payload at all. The id itself is remembered as long as ever:
//! duplicate detection and tree optimization do not change.

use crate::config::PlumtreeConfig;
use crate::message::{Announcement, MsgId, PlumtreeMessage};
use hyparview_core::collections::{RandomSet, RecentMap};
use hyparview_core::{Identity, Outbox};
use std::collections::{HashMap, HashSet};

/// Maximum number of announcements per `IHaveBatch` message. Flushes chunk
/// longer queues so one batch always fits a wire frame (20 bytes per
/// announcement, well under `hyparview-net`'s 64 KiB frame cap).
pub const MAX_IHAVE_BATCH: usize = 1024;

/// A local delivery produced by the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlumtreeDelivery<P> {
    /// Broadcast identifier.
    pub id: MsgId,
    /// Hops travelled before delivery (0 = this node is the origin).
    pub round: u32,
    /// Application payload.
    pub payload: P,
}

/// The timers a Plumtree runtime must support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlumtreeTimer {
    /// Missing-message timer: an `IHave` arrived for an undelivered
    /// message; on expiration the node grafts from an announcer.
    Missing(MsgId),
    /// Lazy-flush timer: announcements are queued; on expiration the
    /// per-peer queues drain as (batched) `IHave`s.
    LazyFlush,
}

/// A request to schedule a timer.
///
/// The runtime must call [`PlumtreeState::on_timer`] with `timer` after
/// `delay` timer units. Timers need no cancellation support: an expiration
/// that is no longer relevant (message already delivered, queues empty) is
/// a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Which timer to arm.
    pub timer: PlumtreeTimer,
    /// Delay in abstract timer units (see [`PlumtreeConfig`]).
    pub delay: u64,
}

/// Effects emitted by one state-machine event: the same [`Outbox`] that
/// HyParView fills (`hyparview_core::Actions`), plus deliveries and timers.
#[derive(Debug, Clone)]
pub struct PlumtreeOut<I: Identity, P> {
    /// Protocol messages to ship, in FIFO order.
    pub outbox: Outbox<I, PlumtreeMessage<P>>,
    /// Payloads to hand to the application, in delivery order.
    pub deliveries: Vec<PlumtreeDelivery<P>>,
    /// Timers the runtime must arm.
    pub timers: Vec<TimerRequest>,
}

impl<I: Identity, P> Default for PlumtreeOut<I, P> {
    fn default() -> Self {
        PlumtreeOut { outbox: Outbox::new(), deliveries: Vec::new(), timers: Vec::new() }
    }
}

impl<I: Identity, P> PlumtreeOut<I, P> {
    /// Creates an empty effect buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no effect of any kind is pending.
    pub fn is_empty(&self) -> bool {
        self.outbox.is_empty() && self.deliveries.is_empty() && self.timers.is_empty()
    }
}

/// Cumulative per-node counters (diagnostics and experiment output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlumtreeStats {
    /// Payload messages sent (eager pushes and graft replies).
    pub gossip_sent: u64,
    /// `IHave` announcements sent (batched announcements count
    /// individually; see [`PlumtreeStats::ihave_batches_sent`] for frames).
    pub ihave_sent: u64,
    /// Announcements not sent because the peer was known to hold the id: it
    /// had announced it before the payload arrived here, or it announced or
    /// pushed it while this node's announcement was still queued.
    pub ihave_suppressed: u64,
    /// `IHaveBatch` frames sent (each carrying ≥ 2 announcements).
    pub ihave_batches_sent: u64,
    /// `Graft` repairs sent (payload-pulling grafts only).
    pub grafts_sent: u64,
    /// `Prune` demotions sent.
    pub prunes_sent: u64,
    /// Tree optimizations performed (§3.8): a shorter lazy path was
    /// swapped into the tree (one payload-free `Graft` + one `Prune`).
    pub optimizations: u64,
    /// The subset of [`PlumtreeStats::optimizations`] triggered by an
    /// `IHave` that arrived *after* its payload had been delivered — the
    /// paper's original race. Arrival order can only disagree with round
    /// order like that when link latencies vary, so this stays 0 under a
    /// unit-latency runtime (there the swap is evaluated against the
    /// pending announcers at delivery time instead).
    pub late_optimizations: u64,
    /// Missing messages abandoned after
    /// [`PlumtreeConfig::graft_retry_limit`] failed `Graft` attempts.
    pub graft_dead_letters: u64,
    /// First-time payload deliveries (own broadcasts included).
    pub delivered: u64,
    /// Redundant payload receipts.
    pub redundant: u64,
}

/// The `plumtree.*` registry names, field order of [`PlumtreeStats`].
pub const METRIC_NAMES: [&str; 11] = [
    "plumtree.gossip_sent",
    "plumtree.ihave_sent",
    "plumtree.ihave_suppressed",
    "plumtree.ihave_batches_sent",
    "plumtree.grafts_sent",
    "plumtree.prunes_sent",
    "plumtree.optimizations",
    "plumtree.late_optimizations",
    "plumtree.graft_dead_letters",
    "plumtree.delivered",
    "plumtree.redundant",
];

impl PlumtreeStats {
    /// Writes this snapshot into `registry` under the canonical
    /// `plumtree.*` names (absolute values, so republishing a refreshed
    /// snapshot never double-counts). [`PlumtreeStats`] stays the
    /// plain-struct *view*; the registry is the cross-layer form that
    /// cluster aggregation merges.
    ///
    /// It finds every name anew; a frequent refresh registers
    /// [`METRIC_NAMES`] once and sets [`PlumtreeStats::values`] by handle.
    pub fn fill_registry(&self, registry: &mut hyparview_obsv::Registry) {
        let ids = registry.register_counters(&METRIC_NAMES);
        registry.set_counters(&ids, self.values());
    }

    /// The counters in [`METRIC_NAMES`] order.
    pub fn values(&self) -> [u64; 11] {
        [
            self.gossip_sent,
            self.ihave_sent,
            self.ihave_suppressed,
            self.ihave_batches_sent,
            self.grafts_sent,
            self.prunes_sent,
            self.optimizations,
            self.late_optimizations,
            self.graft_dead_letters,
            self.delivered,
            self.redundant,
        ]
    }
}

impl std::ops::AddAssign for PlumtreeStats {
    fn add_assign(&mut self, rhs: PlumtreeStats) {
        self.gossip_sent += rhs.gossip_sent;
        self.ihave_sent += rhs.ihave_sent;
        self.ihave_suppressed += rhs.ihave_suppressed;
        self.ihave_batches_sent += rhs.ihave_batches_sent;
        self.grafts_sent += rhs.grafts_sent;
        self.prunes_sent += rhs.prunes_sent;
        self.optimizations += rhs.optimizations;
        self.late_optimizations += rhs.late_optimizations;
        self.graft_dead_letters += rhs.graft_dead_letters;
        self.delivered += rhs.delivered;
        self.redundant += rhs.redundant;
    }
}

#[derive(Debug, Clone)]
struct Cached<I, P> {
    round: u32,
    /// [`PlumtreeState::advance`]'s reading at the first receipt, truncated
    /// to 32 bits: it sits in the padding a `u128`-keyed store entry has
    /// anyway, where a `u64` would add 16 bytes to every remembered
    /// message. Ages are taken with `wrapping_sub`, so a wrap can only make
    /// an entry look *younger* than it is: kept longer, never dropped early.
    stamp: u32,
    /// The eager peer that delivered the payload — the node's parent in
    /// this message's tree, and the link tree optimization prunes when a
    /// shorter lazy path shows up — or the node itself for its own
    /// broadcasts. A node is never its own neighbour, so no sender matches
    /// that, and a plain `I` leaves room for `payload`'s tag in the padding.
    parent: I,
    /// The peers this node announced the id to, queued or sent, that have
    /// not shown since that they hold it: bit `s` for the neighbour in slot
    /// `s` of [`PlumtreeState`]'s slot table, [`UNTRACKED`] for any peer
    /// without one. It sits in the padding too.
    owed: u16,
    /// The payload while `owed` is not zero, `None` once no peer can graft
    /// it (see the module docs).
    payload: Option<P>,
}

/// Neighbours with an `owed` bit of their own.
const SLOTS: usize = 15;

/// The `owed` bit of every peer beyond [`SLOTS`]: never cleared, so a
/// payload announced to one is held until its id is evicted.
const UNTRACKED: u16 = 1 << SLOTS;

impl<I, P> Cached<I, P> {
    /// The peers in `bits` are owed the id no longer; with the last one
    /// owed, the payload goes.
    fn settle(&mut self, bits: u16) {
        self.owed &= !bits;
        if self.owed == 0 {
            self.payload = None;
        }
    }
}

// The simulator's store slot (`P = ()`) stays two `u128`s wide: an
// `Option<I>` parent next to the `Option<P>` payload would make it 48 bytes,
// and `tests/footprint.rs` measures what one remembered message costs.
const _: () = assert!(std::mem::size_of::<(MsgId, Cached<u32, ()>)>() == 32);

/// Announcers and graft attempts of one undelivered message.
#[derive(Debug, Clone)]
struct MissingEntry<I> {
    /// Announcers in arrival order, each with the round it announced.
    announcers: Vec<(I, u32)>,
    /// `Graft`s already sent for this message.
    grafts: u32,
}

impl<I> Default for MissingEntry<I> {
    fn default() -> Self {
        MissingEntry { announcers: Vec::new(), grafts: 0 }
    }
}

/// Per-node Plumtree state: eager/lazy peer sets, the message store and the
/// missing-message bookkeeping.
///
/// The message store is the node's whole memory of past broadcasts: id to
/// delivery round and tree parent of every first receipt younger
/// than [`PlumtreeConfig::retention`] by the runtime's clock
/// ([`PlumtreeState::advance`]), and of at most
/// [`PlumtreeConfig::cache_capacity`] of them; whichever bound is reached
/// first evicts, oldest id first, when a new id is stored. Duplicate
/// detection, graft replies and tree optimization forget an evicted id at
/// once, so a copy that turns up after its id left the store, be it older
/// than the retention window or more than `cache_capacity` ids back, is
/// taken for a new broadcast: delivered and pushed on. The window is a
/// multiple of the longest time a neighbour can go on asking for a payload,
/// so only a copy the protocol no longer has a use for arrives that late. A
/// state whose clock is never advanced ages nothing and is bounded by the
/// count alone. An entry also holds the payload, but only while some peer
/// this node announced the id to has neither shown that it holds the id
/// (an `IHave` or a payload of it) nor left the view
/// ([`PlumtreeState::held_payloads`]): the count bounds the ids, and the
/// announcements still owed an answer bound the payloads. Each neighbour
/// takes one of 15 slots when it comes up, and an entry marks the slots it
/// is owed by in a 16-bit mask; a neighbour beyond the fifteenth keeps an
/// id it was announced held until the id is evicted.
///
/// Neighbor maintenance is driven by the membership layer: feed active-view
/// changes through [`PlumtreeState::on_neighbor_up`] /
/// [`PlumtreeState::on_neighbor_down`], or let
/// [`PlumtreeState::sync_neighbors`] diff a full view snapshot (works with
/// any [`Membership`](hyparview_gossip::Membership) implementation). New
/// links start *eager*, exactly like HyParView's freshly-promoted
/// active-view members (§4.1's symmetric views make the tree edges
/// bidirectional).
#[derive(Debug, Clone)]
pub struct PlumtreeState<I: Identity, P: Clone> {
    me: I,
    config: PlumtreeConfig,
    eager: RandomSet<I>,
    lazy: RandomSet<I>,
    /// The message store (see the type's docs), oldest id evicted first.
    cache: RecentMap<MsgId, Cached<I, P>>,
    /// Undelivered messages we have heard announcements for.
    missing: HashMap<MsgId, MissingEntry<I>>,
    /// Messages with an armed missing-message timer.
    timer_armed: HashSet<MsgId>,
    /// Per-peer queued lazy announcements, in lazy-set insertion order
    /// (a `Vec` keeps flush order deterministic for the simulator).
    lazy_queue: Vec<(I, Vec<Announcement>)>,
    /// The neighbour behind each bit of a store entry's `owed` mask; a free
    /// slot holds `me`, which is never a neighbour.
    slots: [I; SLOTS],
    /// Whether a [`PlumtreeTimer::LazyFlush`] is in flight.
    flush_armed: bool,
    /// The runtime's last reading ([`PlumtreeState::advance`]).
    now: u64,
    stats: PlumtreeStats,
}

impl<I: Identity, P: Clone> PlumtreeState<I, P> {
    /// Creates the state machine for node `me`.
    pub fn new(me: I, config: PlumtreeConfig) -> Self {
        let cache_capacity = config.cache_capacity;
        PlumtreeState {
            me,
            config,
            eager: RandomSet::new(),
            lazy: RandomSet::new(),
            cache: RecentMap::new(cache_capacity),
            missing: HashMap::new(),
            timer_armed: HashSet::new(),
            lazy_queue: Vec::new(),
            slots: [me; SLOTS],
            flush_armed: false,
            now: 0,
            stats: PlumtreeStats::default(),
        }
    }

    /// Tells the state the time, in timer units on the runtime's clock: the
    /// reading for the step that follows. First receipts are stamped with
    /// it and age against it. Monotone: a smaller reading is ignored.
    pub fn advance(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    /// This node's identifier.
    pub fn me(&self) -> I {
        self.me
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &PlumtreeConfig {
        &self.config
    }

    /// Peers receiving eager payload pushes (the node's tree links).
    pub fn eager_peers(&self) -> Vec<I> {
        self.eager.to_vec()
    }

    /// Peers receiving lazy `IHave` announcements only.
    pub fn lazy_peers(&self) -> Vec<I> {
        self.lazy.to_vec()
    }

    /// [`PlumtreeState::eager_peers`] without the copy.
    pub fn eager(&self) -> &[I] {
        self.eager.as_slice()
    }

    /// [`PlumtreeState::lazy_peers`] without the copy.
    pub fn lazy(&self) -> &[I] {
        self.lazy.as_slice()
    }

    /// `true` if `peer` is currently tracked (eager or lazy).
    pub fn is_neighbor(&self, peer: &I) -> bool {
        self.eager.contains(peer) || self.lazy.contains(peer)
    }

    /// Panics unless the tree links are exactly the membership out-view
    /// `view`: eager and lazy are disjoint, neither holds this node, and
    /// together they are the view's peers, which repeat none. Read-only;
    /// debug builds of a node run it after every step, so it scans views
    /// of a handful of peers with plain loops instead of building sets.
    pub fn check_links(&self, view: &[I]) {
        let (eager, lazy, me) = (self.eager(), self.lazy(), self.me);
        // As many links as the view has peers, the view's peers distinct
        // and each one linked: then the links are exactly the view's peers.
        let mut exact = eager.len() + lazy.len() == view.len();
        let mut i = 0;
        while exact && i < view.len() {
            let peer = &view[i];
            exact = *peer != me
                && !holds(view, i + 1, peer)
                && (holds(eager, 0, peer) || holds(lazy, 0, peer));
            i += 1;
        }
        assert!(exact, "{me:?} links eager {eager:?}, lazy {lazy:?} over out-view {view:?}");
    }

    /// `true` once `id` has been delivered (and is still remembered by the
    /// bounded message store).
    pub fn has_seen(&self, id: MsgId) -> bool {
        self.cache.contains_key(&id)
    }

    /// Number of ids the message store remembers: the duplicate-detection
    /// window, bounded by [`PlumtreeConfig::cache_capacity`] and
    /// [`PlumtreeConfig::retention`].
    pub fn cached_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of remembered ids whose payload is still held for a `Graft`:
    /// those announced (or queued) to a peer that has neither shown it holds
    /// the id, by an `IHave` or a payload of it, nor left the view.
    pub fn held_payloads(&self) -> usize {
        self.cache.values().filter(|cached| cached.payload.is_some()).count()
    }

    /// Number of lazy announcements queued for the next flush (0 when
    /// batching is disabled).
    pub fn queued_announcements(&self) -> usize {
        self.lazy_queue.iter().map(|(_, anns)| anns.len()).sum()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &PlumtreeStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Neighbor maintenance
    // ------------------------------------------------------------------

    /// `peer` entered the active view: new links start eager so fresh
    /// overlay repairs immediately carry payloads (Plumtree §3.5). It takes
    /// a free `owed` slot, if one is left.
    pub fn on_neighbor_up(&mut self, peer: I) {
        if peer == self.me || self.is_neighbor(&peer) {
            return;
        }
        self.eager.insert(peer);
        let me = self.me;
        if let Some(slot) = self.slots.iter_mut().find(|slot| **slot == me) {
            *slot = peer;
        }
    }

    /// `peer` left the active view: forget it entirely, including its
    /// outstanding `IHave` announcements and queued lazy pushes. It can no
    /// longer graft over this link, so no payload is held for it.
    pub fn on_neighbor_down(&mut self, peer: I) {
        self.eager.remove(&peer);
        self.lazy.remove(&peer);
        for entry in self.missing.values_mut() {
            entry.announcers.retain(|(p, _)| *p != peer);
        }
        if let Some(at) = self.lazy_queue.iter().position(|(p, _)| *p == peer) {
            self.lazy_queue.remove(at);
        }
        let bit = self.owed_bit(peer);
        if bit != 0 {
            self.slots[bit.trailing_zeros() as usize] = self.me;
            for cached in self.cache.values_mut() {
                cached.settle(bit);
            }
        }
    }

    /// Reconciles the eager/lazy sets against a fresh active-view snapshot:
    /// view members we do not track yet come up (eager), tracked peers that
    /// left the view go down. This is the adapter that plugs Plumtree into
    /// any `Membership` implementation without a neighbor-event callback.
    pub fn sync_neighbors(&mut self, view: &[I]) {
        let gone: Vec<I> = self
            .eager
            .iter()
            .chain(self.lazy.iter())
            .filter(|p| !view.contains(p))
            .copied()
            .collect();
        for peer in gone {
            self.on_neighbor_down(peer);
        }
        for peer in view {
            self.on_neighbor_up(*peer);
        }
    }

    // ------------------------------------------------------------------
    // Broadcast and message handling
    // ------------------------------------------------------------------

    /// Starts a broadcast at this node: delivers locally, eager-pushes the
    /// payload and lazily announces it.
    pub fn broadcast(&mut self, id: MsgId, payload: P, out: &mut PlumtreeOut<I, P>) {
        if !self.remember(id, 0, self.me) {
            return; // id collision with a cached broadcast: drop
        }
        self.stats.delivered += 1;
        self.eager_push(id, 1, &payload, None, out);
        let owed = self.lazy_push(id, 1, &[], out);
        self.hold(id, owed, &payload);
        out.deliveries.push(PlumtreeDelivery { id, round: 0, payload });
    }

    /// Handles one Plumtree message received from `from`.
    pub fn handle_message(
        &mut self,
        from: I,
        message: PlumtreeMessage<P>,
        out: &mut PlumtreeOut<I, P>,
    ) {
        match message {
            PlumtreeMessage::Gossip { id, round, payload } => {
                self.on_gossip(from, id, round, payload, out)
            }
            PlumtreeMessage::IHave { id, round } => self.on_ihave(from, id, round, out),
            PlumtreeMessage::IHaveBatch { anns } => {
                for ann in anns {
                    self.on_ihave(from, ann.id, ann.round, out);
                }
            }
            PlumtreeMessage::Graft { id, round } => self.on_graft(from, id, round, out),
            PlumtreeMessage::Prune => self.on_prune(from),
        }
    }

    /// A timer armed by an earlier [`TimerRequest`] expired.
    pub fn on_timer(&mut self, timer: PlumtreeTimer, out: &mut PlumtreeOut<I, P>) {
        match timer {
            PlumtreeTimer::Missing(id) => self.on_missing_timer(id, out),
            PlumtreeTimer::LazyFlush => self.on_flush_timer(out),
        }
    }

    fn on_missing_timer(&mut self, id: MsgId, out: &mut PlumtreeOut<I, P>) {
        self.timer_armed.remove(&id);
        if self.has_seen(id) {
            self.missing.remove(&id);
            return;
        }
        let Some(entry) = self.missing.get_mut(&id) else {
            return;
        };
        if entry.announcers.is_empty() {
            self.missing.remove(&id);
            return;
        }
        if entry.grafts >= self.config.graft_retry_limit {
            // Every retry failed (partitioned overlay, dead announcers):
            // stop re-arming and count the message as a dead letter.
            self.missing.remove(&id);
            self.stats.graft_dead_letters += 1;
            return;
        }
        entry.grafts += 1;
        // Pull from the earliest announcer and move the link into the tree;
        // if it too is gone, the next expiration tries the next one.
        let (peer, round) = entry.announcers.remove(0);
        self.promote_eager(peer);
        self.stats.grafts_sent += 1;
        out.outbox.send(peer, PlumtreeMessage::Graft { id: Some(id), round });
        self.arm_missing_timer(id, self.config.graft_timeout, out);
    }

    /// Drains the per-peer announcement queues as (batched) `IHave`s.
    fn on_flush_timer(&mut self, out: &mut PlumtreeOut<I, P>) {
        self.flush_armed = false;
        let queue = std::mem::take(&mut self.lazy_queue);
        for (peer, anns) in queue {
            if !self.is_neighbor(&peer) {
                continue;
            }
            if anns.len() <= MAX_IHAVE_BATCH {
                self.announce(peer, anns, out);
            } else {
                for chunk in anns.chunks(MAX_IHAVE_BATCH) {
                    self.announce(peer, chunk.to_vec(), out);
                }
            }
        }
    }

    /// One frame for one peer: nothing for an empty list (every queued id
    /// was withdrawn, see [`PlumtreeState::withdraw`]), a plain `IHave` for
    /// one announcement, the list itself as an `IHaveBatch` otherwise.
    fn announce(&mut self, peer: I, anns: Vec<Announcement>, out: &mut PlumtreeOut<I, P>) {
        self.stats.ihave_sent += anns.len() as u64;
        match anns[..] {
            [] => {}
            [ann] => out.outbox.send(peer, PlumtreeMessage::IHave { id: ann.id, round: ann.round }),
            _ => {
                self.stats.ihave_batches_sent += 1;
                out.outbox.send(peer, PlumtreeMessage::IHaveBatch { anns });
            }
        }
    }

    fn on_gossip(
        &mut self,
        from: I,
        id: MsgId,
        round: u32,
        payload: P,
        out: &mut PlumtreeOut<I, P>,
    ) {
        if self.remember(id, round, from) {
            self.stats.delivered += 1;
            let pending = self.missing.remove(&id);
            // The sender is our parent in the tree for this message.
            self.promote_eager(from);
            self.eager_push(id, round + 1, &payload, Some(from), out);
            let holders = pending.as_ref().map_or(&[][..], |entry| &entry.announcers);
            let owed = self.lazy_push(id, round + 1, holders, out);
            self.hold(id, owed, &payload);
            out.deliveries.push(PlumtreeDelivery { id, round, payload });
            // Over unit-latency links payloads and announcements arrive in
            // strict round order, so the announcement of a shorter lazy
            // path always *precedes* the eager delivery — it is waiting in
            // the missing entry rather than arriving as a late IHave.
            // Consider the shortest still-lazy announcer for optimization
            // (after the pushes above, which must use the pre-swap sets).
            if let Some(entry) = pending {
                let best = entry
                    .announcers
                    .iter()
                    .filter(|(peer, _)| self.lazy.contains(peer))
                    .min_by_key(|(_, ann_round)| *ann_round)
                    .copied();
                if let Some((peer, ann_round)) = best {
                    self.maybe_optimize(peer, id, ann_round, out);
                }
            }
        } else {
            self.stats.redundant += 1;
            self.withdraw(from, id);
            if self.cache.get(&id).is_some_and(|cached| cached.parent == from) {
                // The tree parent's own payload a second time is the
                // transport repeating a frame (or a second reply to a
                // retried graft), not a cycle: the link stays in the tree.
                return;
            }
            // Redundant payload: demote the link and tell the sender.
            self.demote_lazy(from);
            self.stats.prunes_sent += 1;
            out.outbox.send(from, PlumtreeMessage::Prune);
        }
    }

    fn on_ihave(&mut self, from: I, id: MsgId, round: u32, out: &mut PlumtreeOut<I, P>) {
        if self.has_seen(id) {
            self.withdraw(from, id);
            let swaps_before = self.stats.optimizations;
            self.maybe_optimize(from, id, round, out);
            if self.stats.optimizations > swaps_before {
                // The announcement lost the race against its payload yet
                // still revealed a shorter path: the variable-latency case.
                self.stats.late_optimizations += 1;
            }
            return;
        }
        // A peer is listed once, at its lowest round: a repeated `IHave`
        // must not make the timer graft it twice before the next announcer.
        let announcers = &mut self.missing.entry(id).or_default().announcers;
        match announcers.iter_mut().find(|(peer, _)| *peer == from) {
            Some((_, listed)) => *listed = round.min(*listed),
            None => announcers.push((from, round)),
        }
        if !self.timer_armed.contains(&id) {
            self.arm_missing_timer(id, self.config.ihave_timeout, out);
        }
    }

    /// Plumtree §3.8 tree optimization: an `IHave` for an already-delivered
    /// message whose announced round beats the eager delivery round by at
    /// least [`PlumtreeConfig::optimization_threshold`] reveals a shorter
    /// path through the overlay. Swap it into the tree: promote the lazy
    /// announcer with a payload-free `Graft` and `Prune` the current eager
    /// parent, keeping the tree shallow as the overlay evolves.
    fn maybe_optimize(&mut self, from: I, id: MsgId, round: u32, out: &mut PlumtreeOut<I, P>) {
        let Some(threshold) = self.config.optimization_threshold else {
            return;
        };
        if !self.lazy.contains(&from) {
            return;
        }
        let Some(cached) = self.cache.get(&id) else {
            return;
        };
        let (eager_round, parent) = (cached.round, cached.parent);
        if parent == self.me {
            return; // own broadcast: this node is the root
        }
        if parent == from || !self.eager.contains(&parent) {
            return;
        }
        if round >= eager_round || eager_round - round < threshold {
            return;
        }
        self.promote_eager(from);
        out.outbox.send(from, PlumtreeMessage::Graft { id: None, round });
        self.demote_lazy(parent);
        self.stats.prunes_sent += 1;
        out.outbox.send(parent, PlumtreeMessage::Prune);
        if let Some(cached) = self.cache.get_mut(&id) {
            // The swap makes `from` the expected parent at *its* announced
            // round: later announcements must beat the new path, not the
            // original delivery, or a worse announcer could undo the swap.
            cached.parent = from;
            cached.round = round;
        }
        self.stats.optimizations += 1;
    }

    fn on_graft(&mut self, from: I, id: Option<MsgId>, _round: u32, out: &mut PlumtreeOut<I, P>) {
        self.promote_eager(from);
        let Some(id) = id else {
            return; // optimization graft: promotion only, no payload pull
        };
        // A released payload is owed to no peer: every one it was announced
        // to has shown it holds the id or has left. Only a peer off the
        // protocol, or a frame the transport repeated or reordered past the
        // peer's own `IHave`, asks for it: answered like an evicted id.
        if let Some(Cached { round, payload: Some(payload), .. }) = self.cache.get(&id) {
            self.stats.gossip_sent += 1;
            out.outbox.send(
                from,
                PlumtreeMessage::Gossip { id, round: round + 1, payload: payload.clone() },
            );
        }
    }

    fn on_prune(&mut self, from: I) {
        self.demote_lazy(from);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Marks the missing-message timer for `id` armed and asks the runtime
    /// to schedule it.
    fn arm_missing_timer(&mut self, id: MsgId, delay: u64, out: &mut PlumtreeOut<I, P>) {
        self.timer_armed.insert(id);
        out.timers.push(TimerRequest { timer: PlumtreeTimer::Missing(id), delay });
    }

    /// Stores `id` without a payload ([`PlumtreeState::hold`] adds it),
    /// returning `true` on first sight. Only then does the store forget
    /// anything: its oldest id if it was full, and every id
    /// [`PlumtreeConfig::retention`] old.
    fn remember(&mut self, id: MsgId, round: u32, parent: I) -> bool {
        let stamp = self.now as u32;
        if !self.cache.insert(id, Cached { round, stamp, parent, owed: 0, payload: None }).0 {
            return false;
        }
        // At least 1, so the loop stops at the entry just stored (age 0).
        let retention = self.config.retention().max(1);
        while let Some((_, oldest)) = self.cache.oldest() {
            if u64::from(stamp.wrapping_sub(oldest.stamp)) < retention {
                break;
            }
            self.cache.pop_oldest();
        }
        true
    }

    /// Keeps the payload of the just-remembered `id` if it is `owed` to a
    /// peer it was announced to.
    fn hold(&mut self, id: MsgId, owed: u16, payload: &P) {
        if owed == 0 {
            return;
        }
        if let Some(cached) = self.cache.get_mut(&id) {
            cached.owed = owed;
            cached.payload = Some(payload.clone());
        }
    }

    /// The `owed` bit of `peer`'s slot, 0 for a peer without one.
    fn owed_bit(&self, peer: I) -> u16 {
        match self.slots.iter().position(|slot| *slot == peer) {
            Some(slot) if peer != self.me => 1 << slot,
            _ => 0,
        }
    }

    fn eager_push(
        &mut self,
        id: MsgId,
        round: u32,
        payload: &P,
        exclude: Option<I>,
        out: &mut PlumtreeOut<I, P>,
    ) {
        for &peer in &self.eager {
            if Some(peer) == exclude {
                continue;
            }
            self.stats.gossip_sent += 1;
            out.outbox.send(peer, PlumtreeMessage::Gossip { id, round, payload: payload.clone() });
        }
    }

    /// Announces `id` to every lazy peer except `holders`, the peers whose own
    /// announcement of it was waiting when the payload arrived: an announcement
    /// exists so that a peer can ask for the payload, and one that announced
    /// the id never will. (The payload's sender is a tree link by now.) A
    /// holder that shows itself before the flush: [`PlumtreeState::withdraw`].
    /// Returns the `owed` bits of the peers announced to or queued for.
    fn lazy_push(
        &mut self,
        id: MsgId,
        round: u32,
        holders: &[(I, u32)],
        out: &mut PlumtreeOut<I, P>,
    ) -> u16 {
        let ann = Announcement { id, round };
        let (mut owed, mut queued) = (0, false);
        for &peer in &self.lazy {
            if holders.iter().any(|(holder, _)| *holder == peer) {
                self.stats.ihave_suppressed += 1;
                continue;
            }
            owed |= match self.owed_bit(peer) {
                0 => UNTRACKED,
                bit => bit,
            };
            if self.config.lazy_flush_interval == 0 {
                // Batching disabled: one IHave frame per message per peer.
                self.stats.ihave_sent += 1;
                out.outbox.send(peer, PlumtreeMessage::IHave { id, round });
                continue;
            }
            match self.lazy_queue.iter_mut().find(|(p, _)| *p == peer) {
                Some((_, anns)) => anns.push(ann),
                None => self.lazy_queue.push((peer, vec![ann])),
            }
            queued = true;
        }
        if queued && !self.flush_armed {
            self.flush_armed = true;
            out.timers.push(TimerRequest {
                timer: PlumtreeTimer::LazyFlush,
                delay: self.config.lazy_flush_interval,
            });
        }
        owed
    }

    /// `peer` has just shown (an `IHave` or a payload) that it holds the
    /// delivered `id`: drop the announcement still queued for it, if any. It
    /// will not graft the id, so it is owed it no longer, and the payload
    /// goes with the last peer that was.
    fn withdraw(&mut self, peer: I, id: MsgId) {
        if let Some((_, anns)) = self.lazy_queue.iter_mut().find(|(p, _)| *p == peer) {
            if let Some(at) = anns.iter().position(|ann| ann.id == id) {
                anns.remove(at);
                self.stats.ihave_suppressed += 1;
            }
        }
        let bit = self.owed_bit(peer);
        if bit != 0 {
            if let Some(cached) = self.cache.get_mut(&id) {
                cached.settle(bit);
            }
        }
    }

    /// Moves a *known* neighbor into the eager set. Senders that are not in
    /// the active view (stale links, in-flight membership changes) are left
    /// alone — the eager/lazy sets stay within the view by construction.
    fn promote_eager(&mut self, peer: I) {
        if self.lazy.remove(&peer) {
            self.eager.insert(peer);
        }
    }

    fn demote_lazy(&mut self, peer: I) {
        if self.eager.remove(&peer) {
            self.lazy.insert(peer);
        }
    }
}

/// Whether `peers[from..]` holds `peer`: `<[I]>::contains` without the
/// iterator and slicing calls, which unoptimized builds pay for on every
/// message.
fn holds<I: PartialEq>(peers: &[I], mut from: usize, peer: &I) -> bool {
    while from < peers.len() {
        if peers[from] == *peer {
            return true;
        }
        from += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    type State = PlumtreeState<u32, &'static str>;

    fn node_with_neighbors(neighbors: &[u32]) -> State {
        node_with_config(neighbors, PlumtreeConfig::default())
    }

    fn node_with_config(neighbors: &[u32], config: PlumtreeConfig) -> State {
        let mut s = State::new(0, config);
        for &p in neighbors {
            s.on_neighbor_up(p);
        }
        s
    }

    fn sends(
        out: &mut PlumtreeOut<u32, &'static str>,
    ) -> Vec<(u32, PlumtreeMessage<&'static str>)> {
        out.outbox.drain().collect()
    }

    #[test]
    fn new_links_start_eager() {
        let s = node_with_neighbors(&[1, 2, 3]);
        let mut eager = s.eager_peers();
        eager.sort_unstable();
        assert_eq!(eager, vec![1, 2, 3]);
        assert!(s.lazy_peers().is_empty());
    }

    #[test]
    fn self_is_never_a_neighbor() {
        let mut s = node_with_neighbors(&[]);
        s.on_neighbor_up(0);
        assert!(s.eager_peers().is_empty());
    }

    #[test]
    fn broadcast_pushes_eager_and_announces_lazy() {
        let mut s = node_with_neighbors(&[1, 2]);
        // Demote 2 to lazy via a prune.
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.broadcast(9, "m", &mut out);
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].round, 0);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().any(
            |(to, m)| *to == 1 && matches!(m, PlumtreeMessage::Gossip { id: 9, round: 1, .. })
        ));
        assert!(msgs
            .iter()
            .any(|(to, m)| *to == 2 && matches!(m, PlumtreeMessage::IHave { id: 9, round: 1 })));
    }

    #[test]
    fn duplicate_gossip_prunes_the_link() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 1, payload: "m" }, &mut out);
        assert_eq!(out.deliveries.len(), 1);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Gossip { id: 5, round: 2, payload: "m" }, &mut out);
        assert!(out.deliveries.is_empty(), "duplicates do not deliver");
        let msgs = sends(&mut out);
        assert_eq!(msgs, vec![(2, PlumtreeMessage::Prune)]);
        assert!(s.lazy_peers().contains(&2), "redundant sender demoted to lazy");
        assert!(s.eager_peers().contains(&1), "tree parent stays eager");
        assert_eq!(s.stats().redundant, 1);
    }

    #[test]
    fn first_gossip_forwards_to_other_eager_peers_only() {
        let mut s = node_with_neighbors(&[1, 2, 3]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 4, round: 2, payload: "m" }, &mut out);
        let msgs = sends(&mut out);
        let targets: Vec<u32> = msgs.iter().map(|(to, _)| *to).collect();
        assert!(!targets.contains(&1), "never echo back to the sender");
        assert_eq!(msgs.len(), 2);
        for (_, m) in &msgs {
            assert!(matches!(m, PlumtreeMessage::Gossip { id: 4, round: 3, .. }));
        }
    }

    #[test]
    fn ihave_arms_one_timer_and_records_announcers() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        assert_eq!(
            out.timers,
            vec![TimerRequest {
                timer: PlumtreeTimer::Missing(6),
                delay: s.config().ihave_timeout
            }]
        );
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 4 }, &mut out);
        assert!(out.timers.is_empty(), "second announcement reuses the armed timer");
    }

    #[test]
    fn ihave_batch_is_equivalent_to_single_ihaves() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        let anns = vec![Announcement { id: 6, round: 3 }, Announcement { id: 7, round: 4 }];
        s.handle_message(1, PlumtreeMessage::IHaveBatch { anns }, &mut out);
        let timers: Vec<PlumtreeTimer> = out.timers.iter().map(|t| t.timer).collect();
        assert_eq!(timers, vec![PlumtreeTimer::Missing(6), PlumtreeTimer::Missing(7)]);
        // The announcers are recorded per id: both messages graft from 1.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        s.on_timer(PlumtreeTimer::Missing(7), &mut out);
        let msgs = sends(&mut out);
        assert_eq!(
            msgs,
            vec![
                (1, PlumtreeMessage::Graft { id: Some(6), round: 3 }),
                (1, PlumtreeMessage::Graft { id: Some(7), round: 4 }),
            ]
        );
    }

    #[test]
    fn ihave_for_delivered_message_is_ignored() {
        let mut s = node_with_neighbors(&[1]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 6, round: 1, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 1 }, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn timer_grafts_from_first_announcer_and_rearms() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(1);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 5 }, &mut out);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs, vec![(1, PlumtreeMessage::Graft { id: Some(6), round: 3 })]);
        assert!(s.eager_peers().contains(&1), "grafted link rejoins the tree");
        assert_eq!(
            out.timers,
            vec![TimerRequest {
                timer: PlumtreeTimer::Missing(6),
                delay: s.config().graft_timeout
            }]
        );
        // Second expiration tries the next announcer.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs, vec![(2, PlumtreeMessage::Graft { id: Some(6), round: 5 })]);
        // Third expiration has nobody left: it stops quietly.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn graft_retries_cap_at_the_limit_and_count_dead_letters() {
        let config = PlumtreeConfig::default().with_graft_retry_limit(2);
        let mut s = node_with_config(&[1, 2, 3, 4], config);
        let mut out = PlumtreeOut::new();
        // More announcers than retries for a message that never arrives
        // (they are all partitioned away); a repeat does not add one.
        for round in 0..8 {
            let from = 1 + round % 4;
            s.handle_message(from, PlumtreeMessage::IHave { id: 6, round }, &mut out);
        }
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert_eq!(sends(&mut out).len(), 1, "first graft");
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert_eq!(sends(&mut out).len(), 1, "second graft");
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty(), "retry cap reached: no further grafts, no re-arm");
        assert_eq!(s.stats().graft_dead_letters, 1);
        assert_eq!(s.stats().grafts_sent, 2);
        // Later expirations for the dropped entry are no-ops.
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn timer_after_delivery_is_a_no_op() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.handle_message(2, PlumtreeMessage::Gossip { id: 6, round: 2, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn graft_returns_cached_payload_and_promotes() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 3, round: 1, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Graft { id: Some(3), round: 1 }, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], (2, PlumtreeMessage::Gossip { id: 3, round: 2, payload: "m" })));
        assert!(s.eager_peers().contains(&2));
    }

    #[test]
    fn graft_for_unknown_id_sends_nothing() {
        let mut s = node_with_neighbors(&[1]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Graft { id: Some(99), round: 1 }, &mut out);
        assert!(sends(&mut out).is_empty());
    }

    #[test]
    fn optimization_graft_promotes_without_pulling() {
        let mut s = node_with_neighbors(&[1]);
        s.on_prune(1);
        let mut out = PlumtreeOut::new();
        s.broadcast(3, "m", &mut out);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Graft { id: None, round: 1 }, &mut out);
        assert!(sends(&mut out).is_empty(), "no payload reply to an optimization graft");
        assert!(s.eager_peers().contains(&1), "the link is promoted");
    }

    #[test]
    fn neighbor_down_forgets_link_and_announcements() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.on_neighbor_down(1);
        assert!(!s.is_neighbor(&1));
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::Missing(6), &mut out);
        assert!(out.is_empty(), "downed announcer is never grafted");
    }

    #[test]
    fn sync_neighbors_diffs_the_view() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(2); // 2 is lazy
        s.sync_neighbors(&[2, 3]);
        assert!(!s.is_neighbor(&1), "1 left the view");
        assert!(s.lazy_peers().contains(&2), "2 keeps its lazy role");
        assert!(s.eager_peers().contains(&3), "3 comes up eager");
    }

    #[test]
    fn eager_and_lazy_stay_disjoint() {
        let mut s = node_with_neighbors(&[1, 2, 3]);
        let mut out = PlumtreeOut::new();
        s.on_prune(1);
        s.handle_message(1, PlumtreeMessage::Graft { id: Some(1), round: 0 }, &mut out);
        s.on_prune(2);
        s.on_prune(2);
        for p in [1u32, 2, 3] {
            assert!(
                !(s.eager_peers().contains(&p) && s.lazy_peers().contains(&p)),
                "peer {p} in both sets"
            );
        }
    }

    #[test]
    fn cache_eviction_drops_payloads() {
        let mut s: PlumtreeState<u32, &'static str> =
            PlumtreeState::new(0, PlumtreeConfig::default().with_cache_capacity(2));
        let mut out = PlumtreeOut::new();
        for id in 0..3u128 {
            s.broadcast(id, "m", &mut out);
        }
        assert_eq!(s.cached_len(), 2, "cache tracks the bounded index");
        assert!(!s.has_seen(0), "oldest id evicted");
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Graft { id: Some(0), round: 0 }, &mut out);
        assert!(sends(&mut out).is_empty(), "evicted payloads cannot be grafted");
    }

    #[test]
    fn eviction_forgets_an_id_everywhere_at_once() {
        // Deep delivery of id 5 through eager parent 1, lazy shortcut 2:
        // while 5 is remembered, a round-2 announcement from 2 would swap.
        let config =
            PlumtreeConfig::default().with_cache_capacity(2).with_optimization_threshold(Some(3));
        let mut s = node_with_config(&[1, 2], config);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        s.handle_message(1, PlumtreeMessage::Gossip { id: 6, round: 8, payload: "m" }, &mut out);
        assert!(s.has_seen(5));
        s.handle_message(1, PlumtreeMessage::Gossip { id: 7, round: 8, payload: "m" }, &mut out);
        assert!(!s.has_seen(5) && s.has_seen(6) && s.has_seen(7));
        assert_eq!(s.cached_len(), 2);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Graft { id: Some(5), round: 2 }, &mut out);
        assert!(out.is_empty(), "no payload left to answer the graft with");
        s.on_prune(2);
        s.maybe_optimize(2, 5, 2, &mut out);
        assert!(out.is_empty(), "no delivery round left to optimize against");
        assert_eq!(s.stats().optimizations, 0);
        s.maybe_optimize(2, 6, 2, &mut out);
        assert_eq!(s.stats().optimizations, 1, "a remembered id still swaps");
    }

    #[test]
    fn cached_len_counts_exactly_the_ids_has_seen_remembers() {
        let config = PlumtreeConfig::default()
            .with_cache_capacity(4)
            .with_optimization_threshold(Some(1))
            .with_lazy_flush_interval(2);
        let mut s: PlumtreeState<u32, u32> = PlumtreeState::new(0, config);
        s.sync_neighbors(&[1, 2, 3]);
        // SplitMix64: a seeded stream with no dev-dependency on `rand`.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        const IDS: u64 = 12;
        let mut out = PlumtreeOut::new();
        let mut evictions = 0;
        for step in 0..3_000 {
            let (from, id, round) = (1 + next(3) as u32, next(IDS) as MsgId, next(9) as u32);
            let remembered = s.has_seen(id);
            match next(6) {
                0 | 1 => {
                    let gossip = PlumtreeMessage::Gossip { id, round, payload: step };
                    s.handle_message(from, gossip, &mut out);
                    assert!(s.has_seen(id), "a payload receipt is always remembered");
                    evictions += usize::from(!remembered && s.cached_len() == 4);
                }
                2 => s.handle_message(from, PlumtreeMessage::IHave { id, round }, &mut out),
                3 => {
                    s.handle_message(from, PlumtreeMessage::Graft { id: Some(id), round }, &mut out)
                }
                4 => s.on_timer(PlumtreeTimer::Missing(id), &mut out),
                _ => s.on_timer(PlumtreeTimer::LazyFlush, &mut out),
            }
            let seen = (0..IDS).filter(|&i| s.has_seen(i as MsgId)).count();
            assert_eq!(s.cached_len(), seen, "step {step}: store and has_seen disagree");
            assert!(seen <= 4, "step {step}: the store outgrew cache_capacity");
            out = PlumtreeOut::new();
        }
        assert!(evictions > 100, "the stream must keep the store full: {evictions}");
    }

    // ------------------------------------------------------------------
    // Retention: the store ages out by the runtime's clock
    // ------------------------------------------------------------------

    /// Node 0 with tree link 1 and lazy link 2, tree optimization on.
    fn aging_node(capacity: usize) -> State {
        let config = PlumtreeConfig::default()
            .with_cache_capacity(capacity)
            .with_optimization_threshold(Some(3));
        let mut s = node_with_config(&[1, 2], config);
        s.on_prune(2);
        s
    }

    fn first_receipt(s: &mut State, id: MsgId) {
        let before = s.stats().delivered;
        let gossip = PlumtreeMessage::Gossip { id, round: 8, payload: "m" };
        s.handle_message(1, gossip, &mut PlumtreeOut::new());
        assert_eq!(s.stats().delivered, before + 1, "id {id} must be new to the store");
    }

    #[test]
    fn an_id_younger_than_retention_is_answered_as_by_a_store_that_never_ages() {
        let retention = PlumtreeConfig::default().retention();
        // `aged` runs on a clock that stops one unit short of id 5's
        // horizon; `frozen` is never told the time at all.
        let (mut aged, mut frozen) = (aging_node(1 << 16), aging_node(1 << 16));
        aged.advance(1_000);
        for s in [&mut aged, &mut frozen] {
            first_receipt(s, 5);
        }
        for newer in 0..300u64 {
            aged.advance(1_000 + (retention - 1) * newer / 299);
            for s in [&mut aged, &mut frozen] {
                first_receipt(s, 100 + MsgId::from(newer));
            }
        }
        assert_eq!((aged.cached_len(), frozen.cached_len()), (301, 301));
        // The graft comes first: once 2 has shown it holds id 5, it is owed
        // the payload no longer, aged or not.
        for message in [
            PlumtreeMessage::Graft { id: Some(5), round: 2 },
            PlumtreeMessage::Gossip { id: 5, round: 9, payload: "m" },
            PlumtreeMessage::IHave { id: 5, round: 2 },
        ] {
            let (mut out, mut expected) = (PlumtreeOut::new(), PlumtreeOut::new());
            aged.handle_message(2, message.clone(), &mut out);
            frozen.handle_message(2, message.clone(), &mut expected);
            assert!(!expected.outbox.is_empty(), "{message:?} must be answered");
            assert_eq!(sends(&mut out), sends(&mut expected), "{message:?}");
            assert_eq!((out.deliveries, out.timers), (expected.deliveries, expected.timers));
        }
        assert_eq!(aged.stats(), frozen.stats());
        assert_eq!(aged.stats().optimizations, 1, "the IHave found id 5's round and parent");
    }

    #[test]
    fn an_id_retention_old_goes_with_the_next_new_id_and_not_before() {
        let mut s = aging_node(1 << 16);
        let retention = s.config().retention();
        s.advance(7);
        first_receipt(&mut s, 5);
        s.advance(7 + retention - 1);
        first_receipt(&mut s, 6);
        assert!(s.has_seen(5), "one unit short of the horizon");

        // Past the horizon, but nothing new is stored: no step evicts.
        s.advance(7 + retention);
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Gossip { id: 6, round: 9, payload: "m" }, &mut out);
        s.handle_message(2, PlumtreeMessage::IHave { id: 9, round: 1 }, &mut out);
        s.on_timer(PlumtreeTimer::Missing(9), &mut out);
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Graft { id: Some(5), round: 1 }, &mut out);
        assert_eq!(sends(&mut out).len(), 1, "still there to answer a graft with");
        assert_eq!(s.cached_len(), 2);

        first_receipt(&mut s, 7);
        assert!(!s.has_seen(5) && s.has_seen(6) && s.has_seen(7), "6 is only one unit old");
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::Graft { id: Some(5), round: 1 }, &mut out);
        assert!(out.is_empty(), "the payload went with the id");
    }

    #[test]
    fn the_count_cap_evicts_whether_the_clock_stands_still_or_was_never_read() {
        for reading in [None, Some(50)] {
            let mut s = aging_node(64);
            if let Some(now) = reading {
                s.advance(now);
            }
            for id in 0..200 {
                first_receipt(&mut s, id);
            }
            assert_eq!(s.cached_len(), 64, "clock at {reading:?}");
            assert!(!s.has_seen(135) && (136..200).all(|id| s.has_seen(id)));
        }
    }

    #[test]
    fn advance_ignores_a_smaller_reading() {
        let mut s = aging_node(1 << 16);
        let retention = s.config().retention();
        s.advance(2 * retention);
        first_receipt(&mut s, 5);
        // Taken at face value, this would stamp id 6 in id 5's distant past.
        s.advance(3);
        first_receipt(&mut s, 6);
        assert!(s.has_seen(5), "id 6 carries the reading id 5 does");
        s.advance(3 * retention);
        first_receipt(&mut s, 7);
        assert!(!s.has_seen(5) && !s.has_seen(6), "both were stamped at 2 x retention");
    }

    #[test]
    fn stamps_straddling_the_u32_wrap_never_evict_early() {
        let mut s = aging_node(1 << 16);
        let retention = s.config().retention();
        let start = u64::from(u32::MAX) - 10;
        s.advance(start);
        first_receipt(&mut s, 5);
        s.advance(start + 20);
        first_receipt(&mut s, 6);
        assert!(s.has_seen(5), "20 units old across the wrap");
        s.advance(start + retention - 1);
        first_receipt(&mut s, 7);
        assert!(s.has_seen(5));
        s.advance(start + retention);
        first_receipt(&mut s, 8);
        assert!(!s.has_seen(5) && s.has_seen(6), "and no later than without the wrap");

        // A whole wrap later an entry reads 2^32 units younger than it is:
        // the error keeps it, it never drops one early.
        s.advance(start + retention + (1 << 32) + 25);
        first_receipt(&mut s, 9);
        assert!(!s.has_seen(6), "looks 5 units past the horizon");
        assert!(s.has_seen(7) && s.has_seen(8), "look 26 and 25 units old");
    }

    #[test]
    fn broadcast_id_collision_is_dropped() {
        let mut s = node_with_neighbors(&[1]);
        let mut out = PlumtreeOut::new();
        s.broadcast(7, "a", &mut out);
        out = PlumtreeOut::new();
        s.broadcast(7, "b", &mut out);
        assert!(out.is_empty());
    }

    // ------------------------------------------------------------------
    // Tree optimization (§3.8)
    // ------------------------------------------------------------------

    fn optimizing_node() -> State {
        // Node 0 with eager parent 1 and lazy shortcut 2.
        let mut s = node_with_config(
            &[1, 2],
            PlumtreeConfig::default().with_optimization_threshold(Some(3)),
        );
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        // Deep eager delivery: round 8 through parent 1.
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        s
    }

    #[test]
    fn short_ihave_swaps_the_lazy_link_into_the_tree() {
        let mut s = optimizing_node();
        let mut out = PlumtreeOut::new();
        // The lazy peer announces the same message at round 2: 8 − 2 ≥ 3.
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 2 }, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(
            msgs,
            vec![(2, PlumtreeMessage::Graft { id: None, round: 2 }), (1, PlumtreeMessage::Prune),]
        );
        assert!(s.eager_peers().contains(&2), "shorter path promoted");
        assert!(s.lazy_peers().contains(&1), "old parent demoted");
        assert_eq!(s.stats().optimizations, 1);
        assert_eq!(s.stats().late_optimizations, 1, "the IHave arrived after the payload");
        assert!(out.timers.is_empty(), "no missing timer for a delivered message");
    }

    #[test]
    fn pending_short_announcement_optimizes_at_delivery() {
        // Unit-latency order: the short lazy announcement arrives *before*
        // the deep eager payload. The swap must still happen, evaluated
        // when the payload lands.
        let mut s = node_with_config(
            &[1, 2],
            PlumtreeConfig::default().with_optimization_threshold(Some(3)),
        );
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 2 }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        let msgs = sends(&mut out);
        assert!(
            msgs.contains(&(2, PlumtreeMessage::Graft { id: None, round: 2 })),
            "promote the shorter lazy path: {msgs:?}"
        );
        assert!(msgs.contains(&(1, PlumtreeMessage::Prune)), "prune the deep parent: {msgs:?}");
        assert!(s.eager_peers().contains(&2) && s.lazy_peers().contains(&1));
        assert_eq!(s.stats().optimizations, 1);
        assert_eq!(s.stats().late_optimizations, 0, "the announcement preceded the payload");
    }

    #[test]
    fn optimization_tracks_the_swapped_round() {
        // After swapping to a round-2 path, a later round-5 announcement
        // must NOT win (5 ≥ 2), even though it beats the original round-8
        // delivery — otherwise a worse announcer undoes the optimization.
        let mut s = node_with_config(
            &[1, 2, 3],
            PlumtreeConfig::default().with_optimization_threshold(Some(3)),
        );
        s.on_prune(2);
        s.on_prune(3);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 8, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 2 }, &mut out);
        assert_eq!(s.stats().optimizations, 1, "first swap: 8 − 2 ≥ 3");
        out = PlumtreeOut::new();
        s.handle_message(3, PlumtreeMessage::IHave { id: 5, round: 5 }, &mut out);
        assert!(out.is_empty(), "round 5 must not displace the round-2 parent");
        assert!(s.eager_peers().contains(&2), "the round-2 parent keeps its tree link");
        assert_eq!(s.stats().optimizations, 1);
    }

    #[test]
    fn optimization_respects_the_threshold() {
        let mut s = optimizing_node();
        let mut out = PlumtreeOut::new();
        // 8 − 6 = 2 < threshold 3: no swap.
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 6 }, &mut out);
        assert!(out.is_empty());
        assert!(s.eager_peers().contains(&1), "parent keeps its tree link");
        assert_eq!(s.stats().optimizations, 0);
    }

    #[test]
    fn optimization_disabled_by_default() {
        let mut s = node_with_neighbors(&[1, 2]);
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 9, payload: "m" }, &mut out);
        out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 1 }, &mut out);
        assert!(out.is_empty(), "threshold None never optimizes");
    }

    #[test]
    fn optimization_skips_own_broadcasts_and_repeat_announcers() {
        let mut s = node_with_config(
            &[1, 2],
            PlumtreeConfig::default().with_optimization_threshold(Some(1)),
        );
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        s.broadcast(5, "m", &mut out);
        out = PlumtreeOut::new();
        // This node is the root for id 5: nothing to optimize.
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 0 }, &mut out);
        assert!(out.is_empty());
        // A second message delivered through 1, then announced *by 1*:
        // the announcer is the parent itself, no swap.
        s.handle_message(1, PlumtreeMessage::Gossip { id: 6, round: 7, payload: "m" }, &mut out);
        s.on_prune(1);
        out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::IHave { id: 6, round: 1 }, &mut out);
        assert!(sends(&mut out).is_empty());
    }

    // ------------------------------------------------------------------
    // Lazy-link batching
    // ------------------------------------------------------------------

    fn batching_node() -> State {
        let mut s =
            node_with_config(&[1, 2, 3], PlumtreeConfig::default().with_lazy_flush_interval(4));
        s.on_prune(2);
        s.on_prune(3);
        s
    }

    #[test]
    fn batching_queues_announcements_until_the_flush_timer() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        s.broadcast(11, "b", &mut out);
        let msgs = sends(&mut out);
        assert!(
            msgs.iter().all(|(_, m)| m.carries_payload()),
            "no IHave leaves before the flush: {msgs:?}"
        );
        assert_eq!(s.queued_announcements(), 4, "2 messages × 2 lazy peers");
        // Exactly one flush timer armed for the pair of broadcasts.
        let flushes: Vec<_> =
            out.timers.iter().filter(|t| t.timer == PlumtreeTimer::LazyFlush).collect();
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].delay, 4);

        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 2, "one batch per lazy peer");
        for (to, m) in &msgs {
            assert!([2, 3].contains(to));
            let anns = m.announcements();
            assert_eq!(anns.len(), 2, "both announcements batched: {m:?}");
            assert_eq!(anns[0], Announcement { id: 10, round: 1 });
            assert_eq!(anns[1], Announcement { id: 11, round: 1 });
        }
        assert_eq!(s.queued_announcements(), 0);
        assert_eq!(s.stats().ihave_sent, 4);
        assert_eq!(s.stats().ihave_batches_sent, 2);
    }

    #[test]
    fn single_queued_announcement_flushes_as_plain_ihave() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        for (_, m) in sends(&mut out) {
            assert!(matches!(m, PlumtreeMessage::IHave { id: 10, round: 1 }));
        }
        assert_eq!(s.stats().ihave_batches_sent, 0);
    }

    #[test]
    fn flush_rearms_only_after_new_announcements() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        assert_eq!(out.timers.len(), 1);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        assert!(out.timers.is_empty(), "an empty queue does not re-arm");
        out = PlumtreeOut::new();
        s.broadcast(11, "b", &mut out);
        assert_eq!(out.timers.len(), 1, "new announcements arm a fresh flush");
    }

    #[test]
    fn flush_skips_departed_peers() {
        let mut s = batching_node();
        let mut out = PlumtreeOut::new();
        s.broadcast(10, "a", &mut out);
        s.on_neighbor_down(2);
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, 3, "only the surviving lazy peer is announced to");
    }

    #[test]
    fn oversized_queues_chunk_at_the_batch_cap() {
        let mut s =
            node_with_config(&[1, 2], PlumtreeConfig::default().with_lazy_flush_interval(1));
        s.on_prune(2);
        let mut out = PlumtreeOut::new();
        for id in 0..(MAX_IHAVE_BATCH as u128 + 5) {
            s.broadcast(id, "m", &mut out);
        }
        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        let msgs = sends(&mut out);
        assert_eq!(msgs.len(), 2, "queue splits into a full batch and a remainder");
        assert_eq!(msgs[0].1.announcements().len(), MAX_IHAVE_BATCH);
        assert_eq!(msgs[1].1.announcements().len(), 5);
    }

    // ------------------------------------------------------------------
    // No announcement to a peer known to hold the id
    // ------------------------------------------------------------------

    /// Node 0 with tree link 1 and lazy links 2, 3 and 4.
    fn node_with_three_lazy_links(lazy_flush_interval: u64) -> State {
        let config = PlumtreeConfig::default().with_lazy_flush_interval(lazy_flush_interval);
        let mut s = node_with_config(&[1, 2, 3, 4], config);
        for peer in [2, 3, 4] {
            s.on_prune(peer);
        }
        s
    }

    /// The ids announced to `peer` in `msgs`, in order.
    fn announced_to(msgs: &[(u32, PlumtreeMessage<&'static str>)], peer: u32) -> Vec<MsgId> {
        let mut ids = Vec::new();
        for (to, message) in msgs {
            match message {
                PlumtreeMessage::IHave { id, .. } if *to == peer => ids.push(*id),
                PlumtreeMessage::IHaveBatch { anns } if *to == peer => {
                    ids.extend(anns.iter().map(|ann| ann.id))
                }
                _ => {}
            }
        }
        ids
    }

    #[test]
    fn an_announcer_is_not_announced_to_and_every_other_lazy_peer_is_once() {
        for flush in [0, 4] {
            let mut s = node_with_three_lazy_links(flush);
            let mut out = PlumtreeOut::new();
            s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
            s.handle_message(
                1,
                PlumtreeMessage::Gossip { id: 6, round: 2, payload: "m" },
                &mut out,
            );
            s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
            let msgs = sends(&mut out);
            assert_eq!(announced_to(&msgs, 2), [], "flush {flush}: 2 announced id 6 itself");
            assert_eq!(announced_to(&msgs, 3), [6], "flush {flush}");
            assert_eq!(announced_to(&msgs, 4), [6], "flush {flush}");
            assert_eq!((s.stats().ihave_sent, s.stats().ihave_suppressed), (2, 1));
        }
    }

    #[test]
    fn an_ihave_before_the_flush_withdraws_that_peers_announcement_of_that_id_only() {
        let mut s = node_with_three_lazy_links(4);
        let mut out = PlumtreeOut::new();
        for id in [10, 11] {
            s.handle_message(1, PlumtreeMessage::Gossip { id, round: 2, payload: "m" }, &mut out);
        }
        assert_eq!(s.queued_announcements(), 6, "2 ids x 3 lazy peers");
        // 2 turns out to hold id 10, 3 to hold both (one by a late payload).
        s.handle_message(2, PlumtreeMessage::IHave { id: 10, round: 5 }, &mut out);
        s.handle_message(3, PlumtreeMessage::IHave { id: 10, round: 5 }, &mut out);
        s.handle_message(3, PlumtreeMessage::Gossip { id: 11, round: 5, payload: "m" }, &mut out);
        // An id nobody queued, and a repeat, withdraw nothing.
        s.handle_message(2, PlumtreeMessage::IHave { id: 10, round: 5 }, &mut out);
        assert_eq!(s.queued_announcements(), 3);
        assert_eq!(s.stats().ihave_suppressed, 3);

        out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        assert!(out.timers.is_empty());
        assert_eq!(
            sends(&mut out),
            vec![
                (2, PlumtreeMessage::IHave { id: 11, round: 3 }),
                (
                    4,
                    PlumtreeMessage::IHaveBatch {
                        anns: vec![
                            Announcement { id: 10, round: 3 },
                            Announcement { id: 11, round: 3 }
                        ]
                    }
                ),
            ],
            "a queue of one goes out as a plain IHave, an emptied queue as no frame"
        );
        assert_eq!((s.stats().ihave_sent, s.stats().ihave_batches_sent), (3, 1));

        // The withdrawn queue entry is no obstacle to the next round.
        s.handle_message(1, PlumtreeMessage::Gossip { id: 12, round: 2, payload: "m" }, &mut out);
        assert_eq!(out.timers.len(), 1, "the next announcement arms a fresh flush");
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        assert_eq!(announced_to(&sends(&mut out), 3), [12]);
    }

    #[test]
    fn a_peer_that_left_and_came_back_is_announced_to_again() {
        let mut s = node_with_three_lazy_links(0);
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        // The link breaks and a new one to the same peer comes up: what the
        // old one announced is forgotten with it.
        s.on_neighbor_down(2);
        s.on_neighbor_up(2);
        s.on_prune(2);
        s.handle_message(1, PlumtreeMessage::Gossip { id: 6, round: 2, payload: "m" }, &mut out);
        assert_eq!(announced_to(&sends(&mut out), 2), [6]);
        assert_eq!(s.stats().ihave_suppressed, 0);
    }

    #[test]
    fn the_origin_announces_to_every_lazy_peer() {
        let mut s = node_with_three_lazy_links(0);
        let mut out = PlumtreeOut::new();
        // Announcements of other ids are no reason to skip anyone.
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.broadcast(7, "m", &mut out);
        let msgs = sends(&mut out);
        for peer in [2, 3, 4] {
            assert_eq!(announced_to(&msgs, peer), [7]);
        }
        assert_eq!(s.stats().ihave_suppressed, 0);
    }

    #[test]
    fn a_duplicate_from_the_tree_parent_keeps_the_link_and_any_other_still_prunes() {
        let mut s = node_with_neighbors(&[1, 2]);
        let mut out = PlumtreeOut::new();
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 1, payload: "m" }, &mut out);
        let eager = s.eager_peers();
        out = PlumtreeOut::new();
        // The transport repeats the parent's frame.
        s.handle_message(1, PlumtreeMessage::Gossip { id: 5, round: 1, payload: "m" }, &mut out);
        assert!(out.is_empty(), "no Prune, no delivery, no timer: {out:?}");
        assert_eq!(s.eager_peers(), eager);
        assert_eq!((s.stats().redundant, s.stats().prunes_sent), (1, 0));
        // The same payload over a second path is a cycle.
        s.handle_message(2, PlumtreeMessage::Gossip { id: 5, round: 2, payload: "m" }, &mut out);
        assert_eq!(sends(&mut out), vec![(2, PlumtreeMessage::Prune)]);
        assert_eq!(s.eager_peers(), [1]);
        assert_eq!((s.stats().redundant, s.stats().prunes_sent), (2, 1));
    }

    #[test]
    fn a_repeated_ihave_lists_its_sender_once_at_the_lowest_round() {
        let mut s = node_with_three_lazy_links(0);
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 5 }, &mut out);
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 3 }, &mut out);
        s.handle_message(3, PlumtreeMessage::IHave { id: 6, round: 4 }, &mut out);
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 7 }, &mut out);
        let mut grafts = Vec::new();
        for _ in 0..3 {
            out = PlumtreeOut::new();
            s.on_timer(PlumtreeTimer::Missing(6), &mut out);
            grafts.extend(sends(&mut out));
        }
        assert_eq!(
            grafts,
            vec![
                (2, PlumtreeMessage::Graft { id: Some(6), round: 3 }),
                (3, PlumtreeMessage::Graft { id: Some(6), round: 4 }),
            ],
            "one attempt per announcer, then the timer stops quietly"
        );
        assert_eq!(s.stats().graft_dead_letters, 0);
    }

    // ------------------------------------------------------------------
    // A payload is held only while a peer it was announced to may graft it
    // ------------------------------------------------------------------

    /// A shared buffer like `Bytes`: the store's clone shows in the count.
    type Page = std::rc::Rc<str>;

    /// Node 0 with tree link 1 and lazy links `lazy`, threshold-3
    /// optimization, announcements batched over `flush` units.
    fn paging_node(lazy: &[u32], flush: u64) -> PlumtreeState<u32, Page> {
        let config = PlumtreeConfig::default()
            .with_lazy_flush_interval(flush)
            .with_optimization_threshold(Some(3));
        let mut s = PlumtreeState::new(0, config);
        s.on_neighbor_up(1);
        for &peer in lazy {
            s.on_neighbor_up(peer);
            s.on_prune(peer);
        }
        s
    }

    /// The first receipt of `id` from tree parent 1 at round 8; the
    /// handler's own copies are dropped with `out`.
    fn page_in(s: &mut PlumtreeState<u32, Page>, id: MsgId, page: &Page) {
        let mut out = PlumtreeOut::new();
        let gossip = PlumtreeMessage::Gossip { id, round: 8, payload: page.clone() };
        s.handle_message(1, gossip, &mut out);
        assert_eq!(out.deliveries.len(), 1, "id {id} must be new to the store");
    }

    /// What a `Graft` for `id` from `peer` is answered with.
    fn graft(s: &mut PlumtreeState<u32, Page>, peer: u32, id: MsgId) -> Vec<(u32, MsgId)> {
        let mut out = PlumtreeOut::new();
        s.handle_message(peer, PlumtreeMessage::Graft { id: Some(id), round: 1 }, &mut out);
        out.outbox
            .drain()
            .filter_map(|(to, message)| match message {
                PlumtreeMessage::Gossip { id, .. } => Some((to, id)),
                _ => None,
            })
            .collect()
    }

    /// A second copy of `id` from `peer`: redundant, never delivered.
    fn duplicate_is_caught(s: &mut PlumtreeState<u32, Page>, peer: u32, id: MsgId, page: &Page) {
        let redundant = s.stats().redundant;
        let mut out = PlumtreeOut::new();
        let gossip = PlumtreeMessage::Gossip { id, round: 9, payload: page.clone() };
        s.handle_message(peer, gossip, &mut out);
        assert!(out.deliveries.is_empty() && s.has_seen(id));
        assert_eq!(s.stats().redundant, redundant + 1);
    }

    #[test]
    fn a_node_with_no_lazy_peer_or_only_holders_keeps_no_payload() {
        let page: Page = "8 KiB".into();
        let mut s = paging_node(&[], 0);
        s.on_neighbor_up(2); // a second tree link
        page_in(&mut s, 5, &page);
        assert_eq!((s.cached_len(), s.held_payloads()), (1, 0));
        assert_eq!(std::rc::Rc::strong_count(&page), 1, "the store dropped its copy");
        duplicate_is_caught(&mut s, 1, 5, &page);
        // Only a peer off the protocol asks: promoted, sent nothing.
        s.on_prune(2);
        assert_eq!(graft(&mut s, 2, 5), []);
        assert!(s.eager_peers().contains(&2));

        // The one lazy peer announced the id first, at a round short
        // enough to swap it into the tree: the swap still happens.
        let mut s = paging_node(&[2], 0);
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 6, round: 2 }, &mut out);
        page_in(&mut s, 6, &page);
        assert_eq!((s.cached_len(), s.held_payloads()), (1, 0));
        assert_eq!(std::rc::Rc::strong_count(&page), 1);
        assert_eq!(s.stats().optimizations, 1, "the pending announcer took the parent's place");
        assert_eq!((s.eager_peers(), s.lazy_peers()), (vec![2], vec![1]));
        duplicate_is_caught(&mut s, 2, 6, &page);
    }

    #[test]
    fn an_announced_id_answers_the_announcees_graft_with_its_payload() {
        let page: Page = "8 KiB".into();
        for flush in [0, 4] {
            let mut s = paging_node(&[2], flush);
            page_in(&mut s, 5, &page);
            assert_eq!(s.held_payloads(), 1, "flush {flush}");
            assert_eq!(std::rc::Rc::strong_count(&page), 2, "flush {flush}");
            s.on_timer(PlumtreeTimer::LazyFlush, &mut PlumtreeOut::new());
            assert_eq!(graft(&mut s, 2, 5), [(2, 5)], "flush {flush}");
            duplicate_is_caught(&mut s, 1, 5, &page);
            assert_eq!(s.held_payloads(), 1, "2 has not shown it holds id 5");
        }
        // A late, shorter announcement still swaps a held id into the tree.
        let mut s = paging_node(&[2, 3], 0);
        page_in(&mut s, 7, &page);
        s.handle_message(3, PlumtreeMessage::IHave { id: 7, round: 2 }, &mut PlumtreeOut::new());
        assert_eq!(s.stats().late_optimizations, 1);
    }

    #[test]
    fn withdrawing_every_queued_announcement_releases_the_payload_by_the_flush() {
        let page: Page = "8 KiB".into();
        let mut s = paging_node(&[2, 3, 4], 4);
        page_in(&mut s, 10, &page);
        page_in(&mut s, 11, &page);
        assert_eq!((s.queued_announcements(), s.held_payloads()), (6, 2));
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 10, round: 5 }, &mut out);
        s.handle_message(3, PlumtreeMessage::IHave { id: 10, round: 5 }, &mut out);
        assert_eq!(s.held_payloads(), 2, "4 is still owed id 10");
        duplicate_is_caught(&mut s, 4, 10, &page);
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        assert_eq!((s.cached_len(), s.held_payloads()), (2, 1), "id 11 went out to all three");
        assert_eq!(graft(&mut s, 2, 10), [], "announced to nobody");
        assert_eq!(graft(&mut s, 3, 11), [(3, 11)]);
        drop(out);
        assert_eq!(std::rc::Rc::strong_count(&page), 2, "the store keeps one copy, of id 11");
    }

    #[test]
    fn the_last_queued_peer_going_down_releases_the_payload() {
        let page: Page = "8 KiB".into();
        let mut s = paging_node(&[2, 3], 4);
        page_in(&mut s, 10, &page);
        s.on_neighbor_down(2);
        assert_eq!(s.held_payloads(), 1, "3 is still owed id 10");
        s.on_neighbor_down(3);
        assert_eq!((s.cached_len(), s.held_payloads(), s.queued_announcements()), (1, 0, 0));
        assert_eq!(std::rc::Rc::strong_count(&page), 1);
        let mut out = PlumtreeOut::new();
        s.on_timer(PlumtreeTimer::LazyFlush, &mut out);
        assert!(out.is_empty());
        duplicate_is_caught(&mut s, 1, 10, &page);
        assert!(s.eager_peers() == [1] && s.lazy_peers().is_empty());
    }

    #[test]
    fn an_ihave_after_the_flush_releases_the_payload_with_the_last_owed_peer() {
        let page: Page = "8 KiB".into();
        let mut s = paging_node(&[2, 3], 4);
        page_in(&mut s, 5, &page);
        s.on_timer(PlumtreeTimer::LazyFlush, &mut PlumtreeOut::new());
        assert_eq!((s.queued_announcements(), s.held_payloads()), (0, 1));
        let mut out = PlumtreeOut::new();
        s.handle_message(2, PlumtreeMessage::IHave { id: 5, round: 9 }, &mut out);
        assert_eq!(s.held_payloads(), 1, "3 is still owed id 5");
        assert_eq!(std::rc::Rc::strong_count(&page), 2);
        s.handle_message(3, PlumtreeMessage::IHave { id: 5, round: 9 }, &mut out);
        assert!(out.is_empty(), "nothing to answer: {out:?}");
        assert_eq!((s.cached_len(), s.held_payloads()), (1, 0));
        assert_eq!(std::rc::Rc::strong_count(&page), 1, "the store dropped its copy");
        duplicate_is_caught(&mut s, 1, 5, &page);
        assert_eq!(s.stats().ihave_suppressed, 0, "both announcements had gone out");
    }

    #[test]
    fn a_redundant_payload_from_a_lazy_peer_counts_as_showing_the_id() {
        let page: Page = "8 KiB".into();
        for flush in [0, 4] {
            let mut s = paging_node(&[2], flush);
            page_in(&mut s, 5, &page);
            s.on_timer(PlumtreeTimer::LazyFlush, &mut PlumtreeOut::new());
            assert_eq!(s.held_payloads(), 1, "flush {flush}");
            duplicate_is_caught(&mut s, 2, 5, &page);
            assert_eq!(s.held_payloads(), 0, "flush {flush}");
            assert_eq!(std::rc::Rc::strong_count(&page), 1, "flush {flush}");
        }
    }

    #[test]
    fn an_owed_peers_graft_after_the_flush_is_answered() {
        let page: Page = "8 KiB".into();
        let mut s = paging_node(&[2, 3], 4);
        page_in(&mut s, 5, &page);
        s.on_timer(PlumtreeTimer::LazyFlush, &mut PlumtreeOut::new());
        s.handle_message(3, PlumtreeMessage::IHave { id: 5, round: 9 }, &mut PlumtreeOut::new());
        assert_eq!(graft(&mut s, 2, 5), [(2, 5)], "2 never showed it holds id 5");
        assert_eq!(s.held_payloads(), 1, "a graft leaves what is owed as it was");
        assert_eq!(graft(&mut s, 3, 5), [(3, 5)], "held, so answered whoever asks");
    }

    #[test]
    fn a_peer_going_down_is_owed_nothing_and_its_slot_starts_clean() {
        let page: Page = "8 KiB".into();
        let mut s = paging_node(&[2, 3], 4);
        page_in(&mut s, 5, &page);
        s.on_timer(PlumtreeTimer::LazyFlush, &mut PlumtreeOut::new());
        s.on_neighbor_down(2);
        assert_eq!(s.held_payloads(), 1, "3 is still owed id 5");
        // 4 takes the slot 2 left; it was never announced id 5.
        s.on_neighbor_up(4);
        s.on_prune(4);
        s.handle_message(3, PlumtreeMessage::IHave { id: 5, round: 9 }, &mut PlumtreeOut::new());
        assert_eq!((s.held_payloads(), std::rc::Rc::strong_count(&page)), (0, 1));
        // The slot's next id is 4's own.
        page_in(&mut s, 6, &page);
        s.on_timer(PlumtreeTimer::LazyFlush, &mut PlumtreeOut::new());
        s.handle_message(3, PlumtreeMessage::IHave { id: 6, round: 9 }, &mut PlumtreeOut::new());
        assert_eq!(s.held_payloads(), 1, "4 is owed id 6");
        s.on_neighbor_down(4);
        assert_eq!((s.held_payloads(), std::rc::Rc::strong_count(&page)), (0, 1));
    }

    #[test]
    fn a_peer_beyond_the_slots_keeps_the_payload_until_the_id_goes() {
        let page: Page = "8 KiB".into();
        // Tree link 1 and lazy links 2 to 15 fill the 15 slots.
        let lazy: Vec<u32> = (2..=17).collect();
        let mut s = paging_node(&lazy, 0);
        page_in(&mut s, 5, &page);
        for &peer in &lazy {
            let ihave = PlumtreeMessage::IHave { id: 5, round: 9 };
            s.handle_message(peer, ihave, &mut PlumtreeOut::new());
        }
        assert_eq!(s.held_payloads(), 1, "16 and 17 have no slot to settle");
        assert_eq!(graft(&mut s, 17, 5), [(17, 5)]);
        // With the slotless peers gone, an id owed to slotted peers only
        // is released as usual.
        for peer in [16, 17] {
            s.on_neighbor_down(peer);
        }
        assert_eq!(s.held_payloads(), 1, "going down settles no slotless peer");
        page_in(&mut s, 6, &page);
        for peer in 2..=15 {
            let ihave = PlumtreeMessage::IHave { id: 6, round: 9 };
            s.handle_message(peer, ihave, &mut PlumtreeOut::new());
        }
        assert_eq!(s.held_payloads(), 1, "id 5's payload only");
    }

    #[test]
    fn stats_add_assign_sums_every_field() {
        let mut a = PlumtreeStats {
            gossip_sent: 1,
            ihave_sent: 2,
            ihave_suppressed: 11,
            ihave_batches_sent: 3,
            grafts_sent: 4,
            prunes_sent: 5,
            optimizations: 6,
            late_optimizations: 10,
            graft_dead_letters: 7,
            delivered: 8,
            redundant: 9,
        };
        a += a;
        assert_eq!(
            a,
            PlumtreeStats {
                gossip_sent: 2,
                ihave_sent: 4,
                ihave_suppressed: 22,
                ihave_batches_sent: 6,
                grafts_sent: 8,
                prunes_sent: 10,
                optimizations: 12,
                late_optimizations: 20,
                graft_dead_letters: 14,
                delivered: 16,
                redundant: 18,
            }
        );
    }
}
