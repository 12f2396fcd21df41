//! The shared node composition, driven directly: a scripted membership
//! protocol under [`NodeCore`] and a [`NodeCtx`] that records every effect
//! in the order it left the core. The simulator's determinism and the TCP
//! runtime's frame order both rest on these orders.

use hyparview_gossip::{Membership, MembershipEvent, Outbox};
use hyparview_obsv::{TimerKind, TraceKind};
use hyparview_plumtree::{
    MsgId, NodeCore, NodeCtx, PlumtreeConfig, PlumtreeMessage, PlumtreeState, PlumtreeTimer,
    Scratch,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A membership protocol that does what its messages say.
#[derive(Debug, Default)]
struct Scripted {
    view: Vec<u32>,
    events: Vec<MembershipEvent<u32>>,
}

/// `Admit` lets the sender in and evicts `evict`: both are told (`Welcome`,
/// `Goodbye`) and a swap is reported.
#[derive(Debug, Clone, PartialEq)]
enum Script {
    Admit { evict: u32 },
    Welcome,
    Goodbye,
}

impl Membership<u32> for Scripted {
    type Message = Script;

    fn me(&self) -> u32 {
        0
    }

    fn protocol_name(&self) -> &'static str {
        "Scripted"
    }

    fn join(&mut self, contact: u32, out: &mut Outbox<u32, Script>) {
        self.view.push(contact);
        out.send(contact, Script::Welcome);
    }

    fn handle_message(&mut self, from: u32, message: Script, out: &mut Outbox<u32, Script>) {
        if let Script::Admit { evict } = message {
            self.view.retain(|peer| *peer != evict);
            self.view.push(from);
            out.send(from, Script::Welcome);
            out.send(evict, Script::Goodbye);
            self.events.push(MembershipEvent::TenureSwapped { peer: evict });
        }
    }

    fn on_cycle(&mut self, _out: &mut Outbox<u32, Script>) {}

    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<u32>) -> Vec<u32> {
        self.view.iter().copied().filter(|peer| Some(*peer) != exclude).take(fanout).collect()
    }

    fn out_view(&self) -> Vec<u32> {
        self.view.clone()
    }

    fn take_events(&mut self) -> Vec<MembershipEvent<u32>> {
        std::mem::take(&mut self.events)
    }
}

/// One effect as the context saw it, payload left out.
#[derive(Debug, Clone, PartialEq)]
enum Effect {
    Membership { to: u32, message: Script, view_then: Vec<u32> },
    Flood { id: MsgId, hops: u32, targets: Vec<u32> },
    Plumtree { to: u32, message: PlumtreeMessage<()> },
    Deliver { id: MsgId, hops: u32, from: Option<u32> },
    Duplicate(MsgId),
    Timer(PlumtreeTimer, u64),
    Event(MembershipEvent<u32>),
    Trace(TraceKind),
}

struct Recorder<P> {
    scratch: Scratch<u32, Script, P>,
    /// What `now()` answers; the test sets it between steps.
    now: u64,
    delivered: HashSet<MsgId>,
    effects: Vec<Effect>,
}

impl<P> Default for Recorder<P> {
    fn default() -> Self {
        Recorder {
            scratch: Scratch::default(),
            now: 0,
            delivered: HashSet::new(),
            effects: Vec::new(),
        }
    }
}

impl<P> NodeCtx<u32, Scripted, P> for Recorder<P> {
    fn scratch(&mut self) -> &mut Scratch<u32, Script, P> {
        &mut self.scratch
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn send_membership(&mut self, membership: &Scripted, to: u32, message: Script) {
        let view_then = membership.view.clone();
        self.effects.push(Effect::Membership { to, message, view_then });
    }

    fn send_flood(&mut self, id: MsgId, hops: u32, _payload: P, targets: Vec<u32>) {
        self.effects.push(Effect::Flood { id, hops, targets });
    }

    fn send_plumtree(&mut self, to: u32, message: PlumtreeMessage<P>) {
        let message = match message {
            PlumtreeMessage::Gossip { id, round, .. } => {
                PlumtreeMessage::Gossip { id, round, payload: () }
            }
            PlumtreeMessage::IHave { id, round } => PlumtreeMessage::IHave { id, round },
            PlumtreeMessage::IHaveBatch { anns } => PlumtreeMessage::IHaveBatch { anns },
            PlumtreeMessage::Graft { id, round } => PlumtreeMessage::Graft { id, round },
            PlumtreeMessage::Prune => PlumtreeMessage::Prune,
        };
        self.effects.push(Effect::Plumtree { to, message });
    }

    fn has_delivered(&self, id: MsgId) -> bool {
        self.delivered.contains(&id)
    }

    fn deliver(&mut self, id: MsgId, hops: u32, from: Option<u32>, _payload: P) {
        self.delivered.insert(id);
        self.effects.push(Effect::Deliver { id, hops, from });
    }

    fn duplicate(&mut self, id: MsgId) {
        self.effects.push(Effect::Duplicate(id));
    }

    fn schedule(&mut self, timer: PlumtreeTimer, delay: u64) {
        self.effects.push(Effect::Timer(timer, delay));
    }

    fn membership_event(&mut self, event: MembershipEvent<u32>) {
        self.effects.push(Effect::Event(event));
    }

    fn tracing(&self) -> bool {
        true
    }

    fn trace_id(&self, peer: u32) -> u64 {
        u64::from(peer)
    }

    fn trace(&mut self, kind: TraceKind) {
        self.effects.push(Effect::Trace(kind));
    }
}

fn scripted(view: &[u32]) -> Scripted {
    Scripted { view: view.to_vec(), events: Vec::new() }
}

/// A Plumtree node over `view`, links synced; lazy announcements go out
/// at once as single `IHave`s.
fn plumtree_node<P: Clone>(view: &[u32]) -> NodeCore<u32, Scripted, P> {
    let mut node =
        NodeCore::plumtree(scripted(view), PlumtreeState::new(0, PlumtreeConfig::default()));
    node.sync_neighbors();
    node
}

#[test]
fn flood_first_receipt_delivers_then_forwards_and_a_second_is_a_duplicate() {
    let mut node = NodeCore::flood(scripted(&[1, 2, 3, 4]), usize::MAX);
    let mut ctx = Recorder::<()>::default();
    node.on_flood(Some(2), 7, 3, (), &mut ctx);
    assert_eq!(
        ctx.effects,
        [
            Effect::Deliver { id: 7, hops: 3, from: Some(2) },
            Effect::Flood { id: 7, hops: 4, targets: vec![1, 3, 4] },
        ],
        "delivery first, then one send to every target but the sender"
    );

    ctx.effects.clear();
    node.on_flood(Some(3), 7, 4, (), &mut ctx);
    assert_eq!(ctx.effects, [Effect::Duplicate(7)], "a second receipt only reports a duplicate");
}

#[test]
fn flood_broadcast_delivers_locally_and_respects_the_fanout() {
    let mut node = NodeCore::flood(scripted(&[1, 2, 3, 4]), 2);
    let mut ctx = Recorder::<()>::default();
    node.broadcast(9, (), &mut ctx);
    assert_eq!(
        ctx.effects,
        [
            Effect::Deliver { id: 9, hops: 0, from: None },
            Effect::Flood { id: 9, hops: 1, targets: vec![1, 2] },
        ]
    );
    ctx.effects.clear();
    node.broadcast(9, (), &mut ctx);
    assert!(ctx.effects.is_empty(), "an id still remembered is dropped");
}

#[test]
fn plumtree_step_emits_sends_then_deliveries_then_timers() {
    let mut node = plumtree_node::<()>(&[1, 2, 3]);
    let mut ctx = Recorder::default();
    // Peer 3 prunes itself: the link turns lazy.
    node.on_plumtree(3, PlumtreeMessage::Prune, &mut ctx);
    assert_eq!(ctx.effects, [Effect::Trace(TraceKind::LazyDemote { peer: 3 })]);

    // A first payload from 1: pushed on the other tree link, announced on
    // the lazy one, then delivered.
    ctx.effects.clear();
    node.on_plumtree(1, PlumtreeMessage::Gossip { id: 7, round: 2, payload: () }, &mut ctx);
    assert_eq!(
        ctx.effects,
        [
            Effect::Plumtree {
                to: 2,
                message: PlumtreeMessage::Gossip { id: 7, round: 3, payload: () }
            },
            Effect::Plumtree { to: 3, message: PlumtreeMessage::IHave { id: 7, round: 3 } },
            Effect::Deliver { id: 7, hops: 2, from: Some(1) },
        ]
    );

    // An announcement for an unknown id arms the missing-message timer;
    // when it fires, the graft is sent and traced before the re-arm.
    ctx.effects.clear();
    node.on_plumtree(3, PlumtreeMessage::IHave { id: 8, round: 4 }, &mut ctx);
    let [Effect::Timer(timer @ PlumtreeTimer::Missing(8), _)] = ctx.effects[..] else {
        panic!("one missing-message timer, got {:?}", ctx.effects);
    };
    ctx.effects.clear();
    node.on_timer(timer, &mut ctx);
    assert_eq!(ctx.effects.len(), 4, "{:?}", ctx.effects);
    assert_eq!(
        ctx.effects[..3],
        [
            Effect::Trace(TraceKind::TimerFired { timer: TimerKind::MissingMsg }),
            Effect::Plumtree { to: 3, message: PlumtreeMessage::Graft { id: Some(8), round: 4 } },
            Effect::Trace(TraceKind::GraftSent { peer: 3, msg: 8 }),
        ]
    );
    assert!(matches!(ctx.effects[3], Effect::Timer(PlumtreeTimer::Missing(8), _)));

    // The payload again: a duplicate, reported before the step's prune.
    ctx.effects.clear();
    node.on_plumtree(2, PlumtreeMessage::Gossip { id: 7, round: 5, payload: () }, &mut ctx);
    assert_eq!(
        ctx.effects,
        [
            Effect::Duplicate(7),
            Effect::Plumtree { to: 2, message: PlumtreeMessage::Prune },
            Effect::Trace(TraceKind::PruneSent { peer: 2 }),
        ]
    );
}

#[test]
fn membership_step_emits_sends_then_neighbour_sync_then_events() {
    let mut node = plumtree_node::<()>(&[1, 2]);
    let mut ctx = Recorder::default();
    node.step(&mut ctx, |m, out| m.handle_message(5, Script::Admit { evict: 1 }, out));
    assert_eq!(
        ctx.effects,
        [
            // The context sees the membership as the step left it.
            Effect::Membership { to: 5, message: Script::Welcome, view_then: vec![2, 5] },
            Effect::Membership { to: 1, message: Script::Goodbye, view_then: vec![2, 5] },
            Effect::Trace(TraceKind::NeighborDown { peer: 1 }),
            Effect::Trace(TraceKind::NeighborUp { peer: 5 }),
            Effect::Event(MembershipEvent::TenureSwapped { peer: 1 }),
        ]
    );
    let plumtree = node.plumtree_state().expect("Plumtree mode");
    let mut links = plumtree.eager_peers();
    links.sort_unstable();
    assert_eq!(links, [2, 5], "the tree links followed the view");

    // A view changed behind the node's back is picked up on request.
    node.membership_mut().view.push(9);
    node.sync_neighbors();
    assert!(node.plumtree_state().expect("Plumtree mode").is_neighbor(&9));
}

#[test]
fn the_store_is_told_the_time_before_a_broadcast_and_before_a_message() {
    let mut node = plumtree_node::<()>(&[1, 2]);
    let retention = PlumtreeConfig::default().retention();
    let seen = |node: &NodeCore<u32, Scripted, ()>| {
        let state = node.plumtree_state().expect("Plumtree mode");
        (1..=4).filter(|id| state.has_seen(*id)).collect::<Vec<MsgId>>()
    };
    let mut ctx = Recorder::default();
    node.broadcast(1, (), &mut ctx);
    // One unit short of the horizon: the new receipt evicts nothing.
    ctx.now = retention - 1;
    node.on_plumtree(1, PlumtreeMessage::Gossip { id: 2, round: 1, payload: () }, &mut ctx);
    assert_eq!(seen(&node), [1, 2]);
    // Had the state been told the time after the step, id 3 would carry
    // the previous reading and id 1 would look `retention - 1` old.
    ctx.now = retention;
    node.on_plumtree(1, PlumtreeMessage::Gossip { id: 3, round: 1, payload: () }, &mut ctx);
    assert_eq!(seen(&node), [2, 3], "id 1 is `retention` old when id 3 is stored");
    ctx.now = 2 * retention - 1;
    node.broadcast(4, (), &mut ctx);
    assert_eq!(seen(&node), [3, 4], "a broadcast stamps and evicts by the same reading");

    // A copy of the forgotten id is a first receipt again, not a duplicate.
    ctx.effects.clear();
    node.on_plumtree(2, PlumtreeMessage::Gossip { id: 1, round: 3, payload: () }, &mut ctx);
    assert!(
        ctx.effects.contains(&Effect::Deliver { id: 1, hops: 3, from: Some(2) }),
        "{:?}",
        ctx.effects
    );
    assert!(!ctx.effects.contains(&Effect::Duplicate(1)));
}

#[test]
fn a_peer_that_announced_or_shows_it_holds_an_id_gets_no_announcement_of_it() {
    // The wire's payload (a reference-counted byte buffer) and its batching.
    let config = PlumtreeConfig::default().with_lazy_flush_interval(2);
    let mut node: NodeCore<u32, Scripted, Arc<[u8]>> =
        NodeCore::plumtree(scripted(&[1, 2, 3, 4, 5]), PlumtreeState::new(0, config));
    node.sync_neighbors();
    let mut ctx = Recorder::default();
    for peer in [3, 4, 5] {
        node.on_plumtree(peer, PlumtreeMessage::Prune, &mut ctx);
    }
    let payload: Arc<[u8]> = Arc::from(vec![7u8; 64]);
    // 3 announces id 7 before the payload arrives; 4 after, before the flush.
    node.on_plumtree(3, PlumtreeMessage::IHave { id: 7, round: 4 }, &mut ctx);
    ctx.effects.clear();
    node.on_plumtree(1, PlumtreeMessage::Gossip { id: 7, round: 2, payload }, &mut ctx);
    node.on_plumtree(4, PlumtreeMessage::IHave { id: 7, round: 4 }, &mut ctx);
    node.on_timer(PlumtreeTimer::LazyFlush, &mut ctx);
    assert_eq!(
        ctx.effects,
        [
            Effect::Plumtree {
                to: 2,
                message: PlumtreeMessage::Gossip { id: 7, round: 3, payload: () }
            },
            Effect::Deliver { id: 7, hops: 2, from: Some(1) },
            Effect::Timer(PlumtreeTimer::LazyFlush, 2),
            Effect::Trace(TraceKind::TimerFired { timer: TimerKind::LazyFlush }),
            Effect::Plumtree { to: 5, message: PlumtreeMessage::IHave { id: 7, round: 3 } },
        ],
        "of the three lazy links only 5 is told"
    );
    let stats = node.plumtree_state().expect("Plumtree mode").stats();
    assert_eq!((stats.ihave_sent, stats.ihave_suppressed), (1, 2));
}

/// One script through a flood node and a Plumtree node carrying `payload`.
fn run_script<P: Clone>(payload: P) -> Vec<Effect> {
    let mut effects = Vec::new();
    let mut flood = NodeCore::flood(scripted(&[1, 2, 3]), 2);
    let mut ctx = Recorder::default();
    flood.step(&mut ctx, |m, out| m.join(4, out));
    flood.broadcast(1, payload.clone(), &mut ctx);
    flood.on_flood(Some(3), 2, 1, payload.clone(), &mut ctx);
    flood.on_flood(Some(1), 2, 2, payload.clone(), &mut ctx);
    flood.step(&mut ctx, |m, out| m.handle_message(6, Script::Admit { evict: 2 }, out));
    flood.on_flood(Some(6), 3, 1, payload.clone(), &mut ctx);
    effects.append(&mut ctx.effects);

    let mut tree = plumtree_node::<P>(&[1, 2, 3]);
    let mut ctx = Recorder::default();
    tree.broadcast(1, payload.clone(), &mut ctx);
    tree.on_plumtree(2, PlumtreeMessage::Prune, &mut ctx);
    tree.on_plumtree(
        1,
        PlumtreeMessage::Gossip { id: 2, round: 1, payload: payload.clone() },
        &mut ctx,
    );
    tree.on_plumtree(2, PlumtreeMessage::IHave { id: 3, round: 2 }, &mut ctx);
    tree.on_timer(PlumtreeTimer::Missing(3), &mut ctx);
    tree.on_plumtree(2, PlumtreeMessage::Graft { id: Some(1), round: 1 }, &mut ctx);
    tree.step(&mut ctx, |m, out| m.handle_message(3, Script::Admit { evict: 1 }, out));
    // Past the horizon: id 4 pushes ids 1 and 2 out, so the graft for 1
    // goes unanswered and the copy of 2 is delivered a second time.
    ctx.now = PlumtreeConfig::default().retention();
    tree.on_plumtree(
        3,
        PlumtreeMessage::Gossip { id: 4, round: 1, payload: payload.clone() },
        &mut ctx,
    );
    tree.on_plumtree(2, PlumtreeMessage::Graft { id: Some(1), round: 1 }, &mut ctx);
    tree.on_plumtree(2, PlumtreeMessage::Gossip { id: 2, round: 4, payload }, &mut ctx);
    effects.append(&mut ctx.effects);
    effects
}

#[test]
fn unit_and_byte_payloads_yield_the_same_effect_sequence() {
    // The simulator's `()` against a reference-counted byte buffer, which
    // is what the wire's `Bytes` is (this crate has no `bytes` dependency).
    let bytes: Arc<[u8]> = Arc::from(vec![7u8; 64]);
    let unit = run_script(());
    assert_eq!(unit, run_script(bytes));
    assert!(unit.len() > 20, "the script must exercise the core: {unit:?}");
    let again = Effect::Deliver { id: 2, hops: 4, from: Some(2) };
    assert_eq!(unit.last(), Some(&again), "the script must cross the horizon: {unit:?}");
}
