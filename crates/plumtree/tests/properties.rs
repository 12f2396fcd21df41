//! Property-based tests of the Plumtree state machine invariants:
//!
//! * eager and lazy sets stay disjoint and together equal the active view
//!   under arbitrary interleavings of messages, timers and neighbor churn;
//! * no announcement goes to a peer known to hold the id, and every other
//!   lazy peer gets exactly one;
//! * a full in-memory overlay delivers every broadcast to every node (the
//!   tree spans the network), with and without pruning warm-up;
//! * a node holds a payload exactly while a peer it announced the id to
//!   has not shown that it holds the id, and answers every `Graft` of an id
//!   it announced to the grafting peer while it remembers the id, unless
//!   the peer had shown it first (a frame repeated or reordered by a lossy
//!   transport; never over ordered, lossless links).

use hyparview_plumtree::{
    Announcement, MsgId, PlumtreeConfig, PlumtreeMessage, PlumtreeOut, PlumtreeState, PlumtreeTimer,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// A tiny synchronous network of Plumtree nodes over a fixed overlay:
/// messages are exchanged in FIFO order, timers fire after all traffic
/// quiesces (the worst case for repair latency).
struct MiniNet {
    nodes: Vec<PlumtreeState<u32, u64>>,
    /// `adjacency[v]` = active view of node `v` (symmetric).
    adjacency: Vec<Vec<u32>>,
}

impl MiniNet {
    fn ring_with_chords(n: usize, chord_stride: usize) -> MiniNet {
        MiniNet::ring_with_chords_cfg(n, chord_stride, PlumtreeConfig::default())
    }

    fn ring_with_chords_cfg(n: usize, chord_stride: usize, config: PlumtreeConfig) -> MiniNet {
        let mut adjacency = vec![Vec::new(); n];
        let mut link = |a: usize, b: usize| {
            if a != b && !adjacency[a].contains(&(b as u32)) {
                adjacency[a].push(b as u32);
                adjacency[b].push(a as u32);
            }
        };
        for v in 0..n {
            link(v, (v + 1) % n);
            if chord_stride > 1 {
                link(v, (v + chord_stride) % n);
            }
        }
        let mut nodes = Vec::with_capacity(n);
        for (v, view) in adjacency.iter().enumerate() {
            let mut node = PlumtreeState::new(v as u32, config.clone());
            node.sync_neighbors(view);
            nodes.push(node);
        }
        MiniNet { nodes, adjacency }
    }

    /// Runs one broadcast to quiescence (including timer-driven grafts) and
    /// returns how many nodes delivered it.
    fn broadcast(&mut self, origin: usize, id: u64) -> usize {
        let mut out = PlumtreeOut::new();
        self.nodes[origin].broadcast(id as u128, id, &mut out);
        let mut delivered = out.deliveries.len();
        let mut wire: VecDeque<(u32, u32, PlumtreeMessage<u64>)> = VecDeque::new();
        let mut timers: VecDeque<(u32, PlumtreeTimer)> = VecDeque::new();
        let enqueue = |from: u32,
                       out: &mut PlumtreeOut<u32, u64>,
                       wire: &mut VecDeque<(u32, u32, PlumtreeMessage<u64>)>,
                       timers: &mut VecDeque<(u32, PlumtreeTimer)>| {
            for (to, msg) in out.outbox.drain() {
                wire.push_back((from, to, msg));
            }
            for t in out.timers.drain(..) {
                timers.push_back((from, t.timer));
            }
        };
        enqueue(origin as u32, &mut out, &mut wire, &mut timers);
        loop {
            while let Some((from, to, msg)) = wire.pop_front() {
                let mut out = PlumtreeOut::new();
                self.nodes[to as usize].handle_message(from, msg, &mut out);
                delivered += out.deliveries.len();
                enqueue(to, &mut out, &mut wire, &mut timers);
            }
            // All traffic quiesced: fire pending timers (worst case).
            let Some((node, timer)) = timers.pop_front() else { break };
            let mut out = PlumtreeOut::new();
            self.nodes[node as usize].on_timer(timer, &mut out);
            delivered += out.deliveries.len();
            enqueue(node, &mut out, &mut wire, &mut timers);
        }
        delivered
    }

    /// Every node's links are exactly its view (`PlumtreeState::check_links`).
    fn check_invariants(&self) {
        for (node, view) in self.nodes.iter().zip(&self.adjacency) {
            node.check_links(view);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every broadcast over a connected overlay reaches every node, the
    /// per-message tree spans the network, and the eager/lazy invariants
    /// hold before and after pruning converges.
    #[test]
    fn broadcasts_span_the_overlay(n in 4usize..40, stride in 2usize..7, origin_salt in any::<u64>()) {
        let mut net = MiniNet::ring_with_chords(n, stride % n.max(2));
        for round in 0..5u64 {
            let origin = ((origin_salt.wrapping_add(round)) % n as u64) as usize;
            let delivered = net.broadcast(origin, round);
            prop_assert_eq!(delivered, n, "broadcast {} did not span the overlay", round);
            net.check_invariants();
        }
    }

    /// After the tree converges, payload traffic drops to one gossip per
    /// overlay edge of the spanning tree: stats stay consistent and
    /// redundant receipts vanish in steady state.
    #[test]
    fn pruning_converges_to_a_tree(n in 4usize..30, stride in 2usize..5) {
        let mut net = MiniNet::ring_with_chords(n, stride % n.max(2));
        for warmup in 0..8u64 {
            net.broadcast(0, warmup);
        }
        let redundant_before: u64 = net.nodes.iter().map(|s| s.stats().redundant).sum();
        net.broadcast(0, 100);
        let redundant_after: u64 = net.nodes.iter().map(|s| s.stats().redundant).sum();
        prop_assert_eq!(redundant_after, redundant_before,
            "steady-state broadcast produced redundant payload receipts");
        net.check_invariants();
    }

    /// With tree optimization and lazy batching enabled, broadcasts still
    /// span the overlay and the eager/lazy invariants hold — the adaptive
    /// machinery must never cost reliability.
    #[test]
    fn adaptive_broadcasts_span_the_overlay(
        n in 4usize..40,
        stride in 2usize..7,
        threshold in 1u32..4,
        flush in 1u64..6,
    ) {
        let config = PlumtreeConfig::default()
            .with_optimization_threshold(Some(threshold))
            .with_lazy_flush_interval(flush);
        let mut net = MiniNet::ring_with_chords_cfg(n, stride % n.max(2), config);
        for round in 0..6u64 {
            let delivered = net.broadcast(round as usize % n, round);
            prop_assert_eq!(delivered, n, "adaptive broadcast {} did not span", round);
            net.check_invariants();
        }
        // Any connected overlay with n ≥ 4 produces at least one redundant
        // delivery, so pruning demotes links and later broadcasts announce
        // over them — through the flush-timer queue, since flush > 0. A
        // zero here means the batched lazy path went dead.
        let announced: u64 = net.nodes.iter().map(|s| s.stats().ihave_sent).sum();
        prop_assert!(announced > 0, "flushed lazy links never announced anything");
    }

    /// Arbitrary neighbor churn keeps the state machine's sets disjoint and
    /// equal to the view, and broadcasts still deliver wherever the overlay
    /// stays connected through the synced views.
    #[test]
    fn neighbor_churn_preserves_invariants(n in 6usize..24, drops in proptest::collection::vec((0usize..24, 0usize..24), 1..12)) {
        let mut net = MiniNet::ring_with_chords(n, 2);
        net.broadcast(0, 1);
        for (a, b) in drops {
            let (a, b) = (a % n, b % n);
            if a == b { continue; }
            // Drop the symmetric link a↔b if present, then resync.
            net.adjacency[a].retain(|p| *p != b as u32);
            net.adjacency[b].retain(|p| *p != a as u32);
            let view_a = net.adjacency[a].clone();
            let view_b = net.adjacency[b].clone();
            net.nodes[a].sync_neighbors(&view_a);
            net.nodes[b].sync_neighbors(&view_b);
        }
        net.check_invariants();
    }

    /// Over a random stream of messages and timers at one node: once an
    /// `IHave` or a payload of an id from a peer has been handled, no
    /// announcement of that id is ever emitted to that peer, and a first
    /// receipt owes exactly one announcement to every lazy peer that had
    /// shown neither, paid by the last flush unless the peer shows one
    /// first. One thing un-tells the node: a `Graft` spends the announcement
    /// it answers (the peer becomes a tree link and is pushed the payload;
    /// should it prune first, it is announced to like anybody else). The
    /// retry limit is out of reach, since a dead letter drops an id's
    /// announcers by design, and nothing is evicted (the clock stands still).
    #[test]
    fn a_peer_known_to_hold_an_id_is_never_announced_it(
        flush in 0u64..4,
        threshold in proptest::option::of(1u32..4),
        steps in proptest::collection::vec((0u8..9, 1u32..7, 0u128..24, 0u32..9), 200..600),
    ) {
        let config = PlumtreeConfig::default()
            .with_lazy_flush_interval(flush)
            .with_optimization_threshold(threshold)
            .with_graft_retry_limit(u32::MAX);
        let mut node: PlumtreeState<u32, u64> = PlumtreeState::new(0, config);
        node.sync_neighbors(&[1, 2, 3, 4, 5, 6]);
        let mut holds: HashSet<(u32, MsgId)> = HashSet::new();
        let mut owed: HashSet<(u32, MsgId)> = HashSet::new();
        let mut announced: HashMap<(u32, MsgId), u32> = HashMap::new();
        let mut out = PlumtreeOut::new();
        let last_flush = (0u8, 0, 0, 0);
        for (step, (kind, from, id, round)) in steps.into_iter().chain([last_flush]).enumerate() {
            let message = match kind {
                0 => {
                    node.on_timer(PlumtreeTimer::LazyFlush, &mut out);
                    None
                }
                1 => {
                    node.on_timer(PlumtreeTimer::Missing(id), &mut out);
                    None
                }
                2 | 3 => Some(PlumtreeMessage::Gossip { id, round, payload: 0 }),
                4 | 5 => Some(PlumtreeMessage::IHave { id, round }),
                6 => {
                    let anns = vec![Announcement { id, round }, Announcement { id: id ^ 1, round }];
                    Some(PlumtreeMessage::IHaveBatch { anns })
                }
                7 => Some(PlumtreeMessage::Graft { id: (round > 0).then_some(id), round }),
                _ => Some(PlumtreeMessage::Prune),
            };
            if let Some(message) = message {
                let shown: Vec<MsgId> = match &message {
                    PlumtreeMessage::Gossip { id, .. } | PlumtreeMessage::IHave { id, .. } => {
                        vec![*id]
                    }
                    other => other.announcements().iter().map(|ann| ann.id).collect(),
                };
                node.handle_message(from, message, &mut out);
                for id in shown {
                    holds.insert((from, id));
                    if !announced.contains_key(&(from, id)) {
                        owed.remove(&(from, id));
                    }
                }
            }
            for delivery in out.deliveries.drain(..) {
                for &peer in node.lazy() {
                    if !holds.contains(&(peer, delivery.id)) {
                        owed.insert((peer, delivery.id));
                    }
                }
            }
            out.timers.clear();
            for (to, message) in out.outbox.drain() {
                let ids: Vec<MsgId> = match &message {
                    PlumtreeMessage::IHave { id, .. } => vec![*id],
                    PlumtreeMessage::Graft { id: Some(id), .. } => {
                        holds.remove(&(to, *id));
                        continue;
                    }
                    other => other.announcements().iter().map(|ann| ann.id).collect(),
                };
                for id in ids {
                    prop_assert!(!holds.contains(&(to, id)), "step {}: {} holds {}", step, to, id);
                    prop_assert!(owed.contains(&(to, id)), "step {}: {} not owed {}", step, to, id);
                    *announced.entry((to, id)).or_default() += 1;
                }
            }
        }
        prop_assert!(owed.len() > 20, "the stream must make announcements due: {}", owed.len());
        for key in &owed {
            prop_assert_eq!(announced.get(key), Some(&1), "(peer, id) {:?}", key);
        }
        prop_assert_eq!(announced.len(), owed.len());
        prop_assert_eq!(node.stats().ihave_sent, owed.len() as u64);
    }
}

/// SplitMix64: a seeded stream with no dev-dependency on `rand`.
struct Stream(u64);

impl Stream {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

/// What one seeded schedule exercised.
#[derive(Default)]
struct GraftTally {
    /// `Graft`s for a remembered id from a peer the node had announced it to.
    checked: usize,
    /// The subset left unanswered: each from a peer that had shown first
    /// that it holds the id, its `Graft` a frame the transport repeated or
    /// carried past that peer's own `IHave` or payload.
    stale: usize,
    /// Steps after which some remembered id held no payload.
    released: usize,
}

impl std::ops::AddAssign for GraftTally {
    fn add_assign(&mut self, rhs: GraftTally) {
        self.checked += rhs.checked;
        self.stale += rhs.stale;
        self.released += rhs.released;
    }
}

/// How a schedule's transport carries frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Transport {
    /// Any frame in flight goes next, each dropped or duplicated with a
    /// seeded chance.
    Lossy,
    /// The live runtime's TCP links: each link's frames in the order they
    /// were sent, none lost or repeated; the links interleave at random.
    Fifo,
}

/// One schedule on a 3 to 6 node overlay (a ring plus seeded chords), with
/// lazy batching and tree optimization on: broadcasts from random origins,
/// frames delivered as `transport` carries them, timers fired at random.
///
/// The test keeps its own books from the frames it delivers: which peers
/// have shown a node that they hold an id (an `IHave` or a payload of it
/// reached the node), and, for each id a node delivered, the lazy peers its
/// first receipt announced the id to that have not shown it since. After
/// every step the node's `held_payloads()` must equal the number of its
/// ids still owed to some peer.
///
/// A `Graft { id: Some(id) }` a node gets from a peer it announced `id` to,
/// while `id` is in its store, must be answered with the payload unless the
/// peer had already shown that it holds `id`; such a peer has the id in its
/// own store. Over [`Transport::Fifo`] every one is answered.
fn grafts_of_announced_ids_are_answered(seed: u64, transport: Transport) -> GraftTally {
    let mut rng = Stream(seed);
    let n = 3 + rng.below(4) as usize;
    let mut adjacency = vec![Vec::new(); n];
    for v in 0..n {
        let mut link = |a: usize, b: usize| {
            if a != b && !adjacency[a].contains(&(b as u32)) {
                adjacency[a].push(b as u32);
                adjacency[b].push(a as u32);
            }
        };
        link(v, (v + 1) % n);
        if rng.below(2) == 0 {
            link(v, rng.below(n as u64) as usize);
        }
    }
    let config = PlumtreeConfig::default()
        .with_lazy_flush_interval(1 + rng.below(3))
        .with_optimization_threshold(Some(1 + rng.below(3) as u32));
    let mut nodes: Vec<PlumtreeState<u32, u64>> = (0..n)
        .map(|v| {
            let mut node = PlumtreeState::new(v as u32, config.clone());
            node.sync_neighbors(&adjacency[v]);
            node
        })
        .collect();
    // (node, peer, id): `node` sent `peer` an announcement of `id`.
    let mut announced: HashSet<(u32, u32, MsgId)> = HashSet::new();
    // (node, peer, id): `peer`'s `IHave` or payload of `id` reached `node`.
    // The node forgets an announcer it grafts, and every announcer of an id
    // it gives up on (a dead letter), so the books do too.
    let mut shown: HashSet<(u32, u32, MsgId)> = HashSet::new();
    // `owed[node][id]`: the peers `node` announced `id` to, queued or sent,
    // that have not shown it since.
    let mut owed: Vec<HashMap<MsgId, HashSet<u32>>> = vec![HashMap::new(); n];
    let mut wire: Vec<(u32, u32, PlumtreeMessage<u64>)> = Vec::new();
    let mut timers: Vec<(u32, PlumtreeTimer)> = Vec::new();
    let mut tally = GraftTally::default();
    let (mut next_id, mut steps) = (0u64, 0);
    while steps < 400 || !wire.is_empty() || !timers.is_empty() {
        steps += 1;
        let mut out = PlumtreeOut::new();
        let node = match rng.below(10) {
            0 if steps < 400 => {
                let origin = rng.below(n as u64) as u32;
                nodes[origin as usize].broadcast(next_id.into(), next_id, &mut out);
                next_id += 1;
                origin
            }
            1 | 2 if !timers.is_empty() => {
                let (node, timer) = timers.swap_remove(rng.below(timers.len() as u64) as usize);
                let dead_letters = nodes[node as usize].stats().graft_dead_letters;
                nodes[node as usize].on_timer(timer, &mut out);
                if let PlumtreeTimer::Missing(id) = timer {
                    if nodes[node as usize].stats().graft_dead_letters > dead_letters {
                        shown.retain(|&(v, _, x)| (v, x) != (node, id));
                    }
                }
                node
            }
            _ if !wire.is_empty() => {
                let at = rng.below(wire.len() as u64) as usize;
                let (from, to, message) = match transport {
                    Transport::Lossy => match rng.below(10) {
                        0 => {
                            wire.swap_remove(at);
                            continue;
                        }
                        1 => wire[at].clone(),
                        _ => wire.swap_remove(at),
                    },
                    Transport::Fifo => {
                        let link = (wire[at].0, wire[at].1);
                        let first = wire.iter().position(|(f, t, _)| (*f, *t) == link);
                        wire.remove(first.expect("the picked frame's link"))
                    }
                };
                let asked = match message {
                    PlumtreeMessage::Graft { id: Some(id), .. }
                        if announced.contains(&(to, from, id))
                            && nodes[to as usize].has_seen(id) =>
                    {
                        Some(id)
                    }
                    _ => None,
                };
                let shows: Vec<MsgId> = match &message {
                    PlumtreeMessage::Gossip { id, .. } | PlumtreeMessage::IHave { id, .. } => {
                        vec![*id]
                    }
                    other => other.announcements().iter().map(|ann| ann.id).collect(),
                };
                nodes[to as usize].handle_message(from, message, &mut out);
                if let Some(id) = asked {
                    let answered = out.outbox.as_slice().iter().any(|(peer, reply)| {
                        *peer == from && matches!(reply, PlumtreeMessage::Gossip { id: got, .. } if *got == id)
                    });
                    if !answered {
                        assert!(
                            transport == Transport::Lossy,
                            "seed {seed}: node {to} left {from}'s graft of {id} unanswered"
                        );
                        let still_owed =
                            owed[to as usize].get(&id).is_some_and(|p| p.contains(&from));
                        assert!(
                            !still_owed && nodes[from as usize].has_seen(id),
                            "seed {seed}: node {to} left {from}'s graft of {id} unanswered, \
                             and {from} had not shown it holds the id"
                        );
                        tally.stale += 1;
                    }
                    tally.checked += 1;
                }
                for id in shows {
                    shown.insert((to, from, id));
                    if let Some(peers) = owed[to as usize].get_mut(&id) {
                        peers.remove(&from);
                    }
                }
                to
            }
            _ => continue,
        };
        for delivery in &out.deliveries {
            let lazy = nodes[node as usize].lazy().iter().copied();
            let peers = lazy.filter(|&peer| !shown.contains(&(node, peer, delivery.id))).collect();
            owed[node as usize].insert(delivery.id, peers);
        }
        for (to, message) in out.outbox.drain() {
            let ids: Vec<MsgId> = match &message {
                PlumtreeMessage::IHave { id, .. } => vec![*id],
                PlumtreeMessage::Graft { id: Some(id), .. } => {
                    shown.remove(&(node, to, *id));
                    vec![]
                }
                other => other.announcements().iter().map(|ann| ann.id).collect(),
            };
            for id in ids {
                announced.insert((node, to, id));
            }
            wire.push((node, to, message));
        }
        timers.extend(out.timers.iter().map(|request| (node, request.timer)));
        let state = &nodes[node as usize];
        let still_owed = owed[node as usize].values().filter(|peers| !peers.is_empty()).count();
        assert_eq!(
            state.held_payloads(),
            still_owed,
            "seed {seed} ({transport:?}), step {steps}: node {node} holds a payload no peer is owed, \
             or lacks one a peer is"
        );
        tally.released +=
            usize::from(nodes.iter().any(|node| node.held_payloads() < node.cached_len()));
    }
    tally
}

/// The sweep behind [`grafts_of_announced_ids_are_answered`]: a payload is
/// released only once every peer it was announced to has shown it holds
/// the id, so a `Graft` that finds it gone is one that peer's own transport
/// repeated or reordered.
#[test]
fn a_graft_for_an_announced_id_is_answered_under_drops_duplicates_and_reordering() {
    let mut total = GraftTally::default();
    for seed in 0..200 {
        total += grafts_of_announced_ids_are_answered(seed, Transport::Lossy);
    }
    assert!(total.checked > 1_000, "the schedules must graft announced ids: {}", total.checked);
    assert!(total.released > 10_000, "and release payloads: {}", total.released);
}

/// Over ordered, lossless links a peer's `Graft` always arrives before its
/// own `IHave` or payload of the id, so every one is answered.
#[test]
fn over_fifo_links_every_graft_for_an_announced_id_is_answered() {
    let mut total = GraftTally::default();
    for seed in 0..200 {
        total += grafts_of_announced_ids_are_answered(seed, Transport::Fifo);
    }
    assert_eq!(total.stale, 0);
    assert!(total.checked > 1_000, "the schedules must graft announced ids: {}", total.checked);
    assert!(total.released > 10_000, "and release payloads: {}", total.released);
}
