//! One node, composed once: a [`Membership`] protocol with the broadcast
//! layer on top of it, sans-io.
//!
//! The paper's design is a layering (§4.1): the membership protocol's
//! active view *is* the broadcast overlay, and dissemination runs over it
//! either as the eager flood of the evaluation or as Plumtree. [`NodeCore`]
//! is that layering and nothing else. It owns no registry, trace ring,
//! clock, channel or buffer: every effect of an event leaves through the
//! [`NodeCtx`] the caller passes in, as *typed* messages, so the simulator
//! moves them with `P = ()` and pays no encode while the TCP runtime
//! encodes `P = Bytes` in its sink. The one thing that comes *in* through
//! the context is the time ([`NodeCtx::now`]: virtual in the simulator, the
//! reactor's loop time in the TCP runtime), which the core passes to the
//! Plumtree state before a step that can store a broadcast, so the message
//! store ages by the shell's clock. Both shells drive the same code, which
//! is what lets a checker or a schedule explorer drive "a node" once.
//!
//! Effects leave in a fixed order, which the simulator's determinism
//! (RNG draws, fault nonces, queue sequence numbers) rests on:
//!
//! * a membership step: sends in outbox order, then the neighbour sync
//!   (Plumtree links follow the out-view; view changes are traced), then
//!   the buffered [`MembershipEvent`]s;
//! * a flood receipt: the delivery, then one send to the target list;
//! * a Plumtree step: sends in outbox order, then deliveries, then timers.
//!
//! Debug builds check the invariants after every step, each through the
//! one definition its owner holds: the membership protocol's view
//! invariants ([`Membership::check_invariants`]) after a membership step,
//! and in Plumtree mode `eager ∪ lazy = out-view`
//! ([`PlumtreeState::check_links`]) after any step. Both are read-only,
//! so a debug and a release run take the same path.

use crate::message::{MsgId, PlumtreeMessage};
use crate::state::{PlumtreeOut, PlumtreeState, PlumtreeTimer};
use hyparview_core::Identity;
use hyparview_gossip::{Membership, MembershipEvent, Outbox};
use hyparview_obsv::{names, CounterId, Registry, TimerKind, TraceKind};

/// The two effect buffers a step fills and drains. Owned by the
/// [`NodeCtx`], not by the node, so a shell that runs many nodes on one
/// thread (the simulator) keeps one and allocates nothing per event.
#[derive(Debug)]
pub struct Scratch<I: Identity, Msg, P> {
    outbox: Outbox<I, Msg>,
    plumtree: PlumtreeOut<I, P>,
}

impl<I: Identity, Msg, P> Default for Scratch<I, Msg, P> {
    fn default() -> Self {
        Scratch { outbox: Outbox::new(), plumtree: PlumtreeOut::new() }
    }
}

impl<I: Identity, Msg, P> Scratch<I, Msg, P> {
    /// Effects the buffers have room for without growing: what the shell
    /// keeps between steps.
    pub fn capacity(&self) -> usize {
        let plumtree = &self.plumtree;
        self.outbox.capacity()
            + plumtree.outbox.capacity()
            + plumtree.deliveries.capacity()
            + plumtree.timers.capacity()
    }
}

/// The effect sink of a [`NodeCore`]: everything a node does to the world.
///
/// The acting node is implied (a context is built for one node's step).
/// Peers appear in trace events as `u64`s, see [`NodeCtx::trace_id`].
pub trait NodeCtx<I: Identity, M: Membership<I>, P> {
    /// The buffers steps run through; taken for the duration of a step
    /// and handed back drained.
    fn scratch(&mut self) -> &mut Scratch<I, M::Message, P>;

    /// The time of this step on the shell's clock, in the timer units of
    /// [`NodeCtx::schedule`]; never decreases from one step to the next.
    fn now(&self) -> u64;

    /// Ships one membership message. `membership` is the sender's state
    /// *after* the step that produced the message, for transports that
    /// treat a neighbour link unlike a one-off connection (§4.3).
    fn send_membership(&mut self, membership: &M, to: I, message: M::Message);

    /// Ships flood payload `id` to every peer of `targets`; `hops` is the
    /// count at the receiver.
    fn send_flood(&mut self, id: MsgId, hops: u32, payload: P, targets: Vec<I>);

    /// Ships one Plumtree message.
    fn send_plumtree(&mut self, to: I, message: PlumtreeMessage<P>);

    /// Flood dedup: whether this node has delivered `id` already. Plumtree
    /// asks its own message store instead.
    fn has_delivered(&self, id: MsgId) -> bool;

    /// Hands a first receipt to the application; `from` is the peer the
    /// payload arrived from, `None` for the node's own broadcast.
    fn deliver(&mut self, id: MsgId, hops: u32, from: Option<I>, payload: P);

    /// A payload arrived that had been delivered before.
    fn duplicate(&mut self, id: MsgId);

    /// Arms `timer` to come back through [`NodeCore::on_timer`] after
    /// `delay` timer units ([`crate::PlumtreeConfig`]).
    fn schedule(&mut self, timer: PlumtreeTimer, delay: u64);

    /// A defense decision or attacker action of the membership protocol.
    fn membership_event(&mut self, event: MembershipEvent<I>);

    /// Whether [`NodeCtx::trace`] records anything. View changes are only
    /// worked out when it does.
    fn tracing(&self) -> bool;

    /// The `u64` that stands for `peer` in trace events.
    fn trace_id(&self, peer: I) -> u64;

    /// Records one protocol decision of this node.
    fn trace(&mut self, kind: TraceKind);
}

/// How a node disseminates payloads.
#[derive(Debug)]
enum Broadcast<I: Identity, P: Clone> {
    /// The paper's eager flood: forward a first receipt to `fanout`
    /// gossip targets (HyParView ignores the number and floods its whole
    /// active view, §4.1.ii).
    Flood { fanout: usize },
    /// Plumtree's eager/lazy tree over the same view. Boxed: a flood node
    /// pays a pointer for it, not the state's size (10,000 of them).
    Plumtree(Box<PlumtreeState<I, P>>),
}

/// A membership protocol plus flood or Plumtree on top of it.
#[derive(Debug)]
pub struct NodeCore<I: Identity, M, P: Clone> {
    membership: M,
    broadcast: Broadcast<I, P>,
}

impl<I: Identity, M: Membership<I>, P: Clone> NodeCore<I, M, P> {
    /// A node that floods to `fanout` gossip targets.
    pub fn flood(membership: M, fanout: usize) -> Self {
        NodeCore { membership, broadcast: Broadcast::Flood { fanout } }
    }

    /// A node that broadcasts over the Plumtree `state`.
    pub fn plumtree(membership: M, state: PlumtreeState<I, P>) -> Self {
        NodeCore { membership, broadcast: Broadcast::Plumtree(Box::new(state)) }
    }

    /// The membership protocol instance.
    pub fn membership(&self) -> &M {
        &self.membership
    }

    /// Mutable access to the membership protocol instance. Plumtree links
    /// catch up with a view changed through here at the next membership
    /// step or [`NodeCore::sync_neighbors`].
    pub fn membership_mut(&mut self) -> &mut M {
        &mut self.membership
    }

    /// The Plumtree state, in Plumtree mode.
    pub fn plumtree_state(&self) -> Option<&PlumtreeState<I, P>> {
        match &self.broadcast {
            Broadcast::Flood { .. } => None,
            Broadcast::Plumtree(state) => Some(state),
        }
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Runs one membership event (a join, a received message, the periodic
    /// action, a failed send) and ships its effects: sends, neighbour sync,
    /// membership events. Debug builds then check the tree links
    /// ([`PlumtreeState::check_links`]) and the protocol's own view
    /// invariants ([`Membership::check_invariants`]).
    pub fn step<C: NodeCtx<I, M, P>>(
        &mut self,
        ctx: &mut C,
        event: impl FnOnce(&mut M, &mut Outbox<I, M::Message>),
    ) {
        let before = ctx.tracing().then(|| self.membership.out_view());
        let mut outbox = std::mem::take(&mut ctx.scratch().outbox);
        event(&mut self.membership, &mut outbox);
        for (to, message) in outbox.drain() {
            ctx.send_membership(&self.membership, to, message);
        }
        ctx.scratch().outbox = outbox;
        if before.is_some() || matches!(self.broadcast, Broadcast::Plumtree(_)) {
            let view = self.membership.out_view();
            if let Some(before) = before {
                for peer in before.iter().filter(|peer| !view.contains(peer)) {
                    let peer = ctx.trace_id(*peer);
                    ctx.trace(TraceKind::NeighborDown { peer });
                }
                for peer in view.iter().filter(|peer| !before.contains(peer)) {
                    let peer = ctx.trace_id(*peer);
                    ctx.trace(TraceKind::NeighborUp { peer });
                }
            }
            if let Broadcast::Plumtree(state) = &mut self.broadcast {
                state.sync_neighbors(&view);
                #[cfg(debug_assertions)]
                state.check_links(&view);
            }
        }
        #[cfg(debug_assertions)]
        self.membership.check_invariants();
        for event in self.membership.take_events() {
            ctx.membership_event(event);
        }
    }

    /// Makes the Plumtree links reflect the out-view now (no-op in flood
    /// mode), for a view changed behind the node's back through
    /// [`NodeCore::membership_mut`].
    pub fn sync_neighbors(&mut self) {
        if let Broadcast::Plumtree(state) = &mut self.broadcast {
            state.sync_neighbors(&self.membership.out_view());
        }
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcasts a payload originated by this node. An `id` this node
    /// still remembers is dropped.
    pub fn broadcast<C: NodeCtx<I, M, P>>(&mut self, id: MsgId, payload: P, ctx: &mut C) {
        match &mut self.broadcast {
            Broadcast::Flood { .. } => self.on_flood(None, id, 0, payload, ctx),
            Broadcast::Plumtree(state) => {
                let mut out = std::mem::take(&mut ctx.scratch().plumtree);
                state.advance(ctx.now());
                state.broadcast(id, payload, &mut out);
                Self::apply(out, None, ctx);
            }
        }
    }

    /// The eager flood (§4.1.ii): a first receipt is delivered, then
    /// forwarded to the gossip targets except the peer it came `from`. A
    /// node's own broadcast is a receipt from nobody at hop 0. Ignored in
    /// Plumtree mode.
    pub fn on_flood<C: NodeCtx<I, M, P>>(
        &mut self,
        from: Option<I>,
        id: MsgId,
        hops: u32,
        payload: P,
        ctx: &mut C,
    ) {
        let Broadcast::Flood { fanout } = self.broadcast else { return };
        if ctx.has_delivered(id) {
            if from.is_some() {
                ctx.duplicate(id);
            }
            return;
        }
        ctx.deliver(id, hops, from, payload.clone());
        let targets = self.membership.broadcast_targets(fanout, from);
        ctx.send_flood(id, hops + 1, payload, targets);
    }

    /// Handles one Plumtree message from `from`. Ignored in flood mode.
    pub fn on_plumtree<C: NodeCtx<I, M, P>>(
        &mut self,
        from: I,
        message: PlumtreeMessage<P>,
        ctx: &mut C,
    ) {
        let Broadcast::Plumtree(state) = &mut self.broadcast else { return };
        // Receiver-side tree decisions (`apply` traces the sender side).
        match &message {
            PlumtreeMessage::Gossip { id, .. } if state.has_seen(*id) => ctx.duplicate(*id),
            PlumtreeMessage::Graft { .. } => {
                let peer = ctx.trace_id(from);
                ctx.trace(TraceKind::EagerPromote { peer });
            }
            PlumtreeMessage::Prune => {
                let peer = ctx.trace_id(from);
                ctx.trace(TraceKind::LazyDemote { peer });
            }
            _ => {}
        }
        let mut out = std::mem::take(&mut ctx.scratch().plumtree);
        state.advance(ctx.now());
        state.handle_message(from, message, &mut out);
        Self::apply(out, Some(from), ctx);
        #[cfg(debug_assertions)]
        state.check_links(&self.membership.out_view());
    }

    /// A timer armed through [`NodeCtx::schedule`] expired.
    pub fn on_timer<C: NodeCtx<I, M, P>>(&mut self, timer: PlumtreeTimer, ctx: &mut C) {
        let timer_kind = match timer {
            PlumtreeTimer::Missing(_) => TimerKind::MissingMsg,
            PlumtreeTimer::LazyFlush => TimerKind::LazyFlush,
        };
        ctx.trace(TraceKind::TimerFired { timer: timer_kind });
        let Broadcast::Plumtree(state) = &mut self.broadcast else { return };
        let mut out = std::mem::take(&mut ctx.scratch().plumtree);
        state.on_timer(timer, &mut out);
        Self::apply(out, None, ctx);
        #[cfg(debug_assertions)]
        state.check_links(&self.membership.out_view());
    }

    /// Ships the effects of one Plumtree step (sends, deliveries that arrived
    /// `via` a peer, timers) and hands the drained buffer back to the context.
    fn apply<C: NodeCtx<I, M, P>>(mut out: PlumtreeOut<I, P>, via: Option<I>, ctx: &mut C) {
        for (to, message) in out.outbox.drain() {
            let peer = ctx.trace_id(to);
            let decision = match &message {
                PlumtreeMessage::Graft { id, .. } => {
                    Some(TraceKind::GraftSent { peer, msg: id.map_or(0, |id| id as u64) })
                }
                PlumtreeMessage::Prune => Some(TraceKind::PruneSent { peer }),
                _ => None,
            };
            ctx.send_plumtree(to, message);
            if let Some(decision) = decision {
                ctx.trace(decision);
            }
        }
        for delivery in out.deliveries.drain(..) {
            ctx.deliver(delivery.id, delivery.round, via, delivery.payload);
        }
        for request in out.timers.drain(..) {
            ctx.schedule(request.timer, request.delay);
        }
        ctx.scratch().plumtree = out;
    }
}

/// Handles of the `frames.*` / `broadcast.*` counters every runtime keeps
/// ([`names::SHARED_TRANSPORT_NAMES`]) in its own [`Registry`].
#[derive(Debug, Clone, Copy)]
pub struct FrameCounters {
    /// Broadcasts originated.
    pub broadcasts: CounterId,
    /// Every frame handed to the transport.
    pub sent: CounterId,
    /// Payload-carrying frames among them.
    pub payload: CounterId,
    /// Single `IHave` frames.
    pub ihave: CounterId,
    /// `IHaveBatch` frames.
    pub ihave_batch: CounterId,
    /// Announcements inside those batches.
    pub ihave_batch_anns: CounterId,
    /// First-receipt deliveries.
    pub delivered: CounterId,
    /// Redundant payload receipts.
    pub duplicates: CounterId,
}

impl FrameCounters {
    /// Registers (or finds) the eight shared names in `registry`.
    pub fn register(registry: &mut Registry) -> FrameCounters {
        let [broadcasts, sent, payload, ihave, ihave_batch, ihave_batch_anns, delivered, duplicates] =
            registry.register_counters(&[
                names::BROADCAST_SENT,
                names::FRAMES_SENT,
                names::FRAMES_PAYLOAD_SENT,
                names::FRAMES_IHAVE_SENT,
                names::FRAMES_IHAVE_BATCH_SENT,
                names::FRAMES_IHAVE_BATCH_ANNS_SENT,
                names::BROADCAST_DELIVERED,
                names::BROADCAST_DUPLICATES,
            ]);
        FrameCounters {
            broadcasts,
            sent,
            payload,
            ihave,
            ihave_batch,
            ihave_batch_anns,
            delivered,
            duplicates,
        }
    }

    /// Counts `copies` transmissions of one outgoing Plumtree message.
    pub fn count<P>(&self, registry: &mut Registry, message: &PlumtreeMessage<P>, copies: u64) {
        registry.add(self.sent, copies);
        match message {
            PlumtreeMessage::Gossip { .. } => registry.add(self.payload, copies),
            PlumtreeMessage::IHave { .. } => registry.add(self.ihave, copies),
            PlumtreeMessage::IHaveBatch { anns } => {
                registry.add(self.ihave_batch, copies);
                registry.add(self.ihave_batch_anns, copies * anns.len() as u64);
            }
            PlumtreeMessage::Graft { .. } | PlumtreeMessage::Prune => {}
        }
    }

    /// Counts `copies` payload-carrying frames (flood or eager push).
    pub fn count_payload(&self, registry: &mut Registry, copies: u64) {
        registry.add(self.sent, copies);
        registry.add(self.payload, copies);
    }
}
