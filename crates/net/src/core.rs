//! The I/O-independent node core: HyParView protocol + broadcast engine +
//! stats, speaking to the outside world only through the [`NodeCtx`]
//! effect sink.
//!
//! The reactor (`reactor.rs`) multiplexes many [`NodeCore`]s onto one epoll
//! loop. Keeping the core sans-runtime means identical frames in produce
//! identical frames out, regardless of which I/O shell carried them.

use crate::node::NetConfig;
use crate::wire::{encode, Frame};
use bytes::Bytes;
use crossbeam::channel::Sender;
use hyparview_core::{Action, Actions, HyParView, Message, RecentSet};
use hyparview_obsv::{
    names, Clock, CounterId, Registry, TimerKind, TraceEvent, TraceKind, TraceRing, TraceSink,
    WallClock,
};
use hyparview_plumtree::{
    Announcement, BroadcastMode, PlumtreeMessage, PlumtreeOut, PlumtreeState, PlumtreeTimer,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A gossip message delivered to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Globally unique broadcast id.
    pub id: u128,
    /// Hops travelled before reaching this node (0 = local broadcast).
    pub hops: u32,
    /// Application payload.
    pub payload: Bytes,
}

/// Runtime counters of a node.
///
/// A *snapshot view*: the source of truth is the core's
/// [`hyparview_obsv::Registry`] (canonical `frames.*` / `broadcast.*` /
/// `net.*` names, shared with the simulator); this struct is materialized
/// from it on every publish.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// Broadcasts initiated by this node.
    pub broadcasts_sent: u64,
    /// Gossip messages delivered (first receipt), own broadcasts included.
    pub deliveries: u64,
    /// Redundant gossip receipts suppressed by the dedup set.
    pub duplicates: u64,
    /// Broadcast frames dropped because they belong to the *other*
    /// [`BroadcastMode`] — nonzero means a mode-misconfigured cluster.
    pub mode_mismatched: u64,
    /// Every frame shipped to the transport (membership + broadcast).
    pub frames_sent: u64,
    /// Payload-carrying broadcast frames sent (`Gossip` / `PlumtreeGossip`).
    pub payload_frames_sent: u64,
    /// Single `IHave` announcement frames sent.
    pub ihave_frames_sent: u64,
    /// Batched `IHaveBatch` frames sent.
    pub ihave_batch_frames_sent: u64,
    /// Announcements carried inside those `IHaveBatch` frames — the
    /// batching win is `ihave_batch_anns_sent / ihave_batch_frames_sent`.
    pub ihave_batch_anns_sent: u64,
}

/// Dense handles into a [`NodeCore`]'s registry, registered once at
/// construction so the frame hot path updates by vector index.
struct NetCounters {
    broadcasts_sent: CounterId,
    deliveries: CounterId,
    duplicates: CounterId,
    mode_mismatched: CounterId,
    frames_sent: CounterId,
    frames_payload: CounterId,
    frames_ihave: CounterId,
    frames_ihave_batch: CounterId,
    frames_ihave_batch_anns: CounterId,
}

impl NetCounters {
    fn register(registry: &mut Registry) -> NetCounters {
        NetCounters {
            broadcasts_sent: registry.counter(names::BROADCAST_SENT),
            deliveries: registry.counter(names::BROADCAST_DELIVERED),
            duplicates: registry.counter(names::BROADCAST_DUPLICATES),
            mode_mismatched: registry.counter(names::NET_MODE_MISMATCHED),
            frames_sent: registry.counter(names::FRAMES_SENT),
            frames_payload: registry.counter(names::FRAMES_PAYLOAD_SENT),
            frames_ihave: registry.counter(names::FRAMES_IHAVE_SENT),
            frames_ihave_batch: registry.counter(names::FRAMES_IHAVE_BATCH_SENT),
            frames_ihave_batch_anns: registry.counter(names::FRAMES_IHAVE_BATCH_ANNS_SENT),
        }
    }
}

/// Mutable view snapshots shared with the application-facing handle.
#[derive(Debug, Default, Clone)]
pub(crate) struct Shared {
    pub(crate) active: Vec<SocketAddr>,
    pub(crate) passive: Vec<SocketAddr>,
    pub(crate) eager: Vec<SocketAddr>,
    pub(crate) lazy: Vec<SocketAddr>,
    pub(crate) stats: NodeStats,
    /// Mirror of the core's full metric registry (canonical names,
    /// `hyparview.*` and `plumtree.*` counters included).
    pub(crate) metrics: Registry,
    /// Trace events drained from the core's ring on publish (bounded by
    /// the same capacity).
    pub(crate) trace: Option<TraceRing>,
}

/// The effect sink a [`NodeCore`] drives its runtime through: frames out,
/// graceful connection teardown, timer arming. Implemented by the
/// reactor's `ReactorCtx` (shared epoll loop).
pub(crate) trait NodeCtx {
    /// Ships one encoded frame to `to`, opening a connection lazily.
    /// Failures are asynchronous: they come back as an `on_peer_failed`
    /// call.
    fn send_frame(&mut self, to: SocketAddr, frame: Bytes);
    /// Drops the outbound connection to `peer` (after flushing queued
    /// frames) without reporting a failure.
    fn disconnect(&mut self, peer: SocketAddr);
    /// Arms `timer` to fire after `delay` (wall clock).
    fn schedule(&mut self, timer: PlumtreeTimer, delay: Duration);
}

/// The broadcast engine a core runs.
#[allow(clippy::large_enum_variant)] // exactly one per node; size is irrelevant
pub(crate) enum Broadcaster {
    /// The paper's eager flood (§4.1.ii) with bounded duplicate suppression.
    Flood { seen: RecentSet<u128> },
    /// Plumtree: eager/lazy dissemination; timers are armed through the
    /// [`NodeCtx`], scaled by `unit`; `apply_plumtree` recycles `out`.
    Plumtree {
        state: PlumtreeState<SocketAddr, Bytes>,
        unit: Duration,
        out: PlumtreeOut<SocketAddr, Bytes>,
    },
}

/// One node's full protocol state, independent of the I/O runtime.
pub(crate) struct NodeCore {
    local: SocketAddr,
    protocol: HyParView<SocketAddr>,
    broadcaster: Broadcaster,
    shared: Arc<Mutex<Shared>>,
    delivery_tx: Sender<Delivery>,
    metrics: Registry,
    counters: NetCounters,
    trace: Option<TraceRing>,
    clock: WallClock,
    /// Reusable scratch buffer for protocol actions.
    actions: Actions<SocketAddr>,
}

impl NodeCore {
    /// Builds the core for `local` from the runtime configuration.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the protocol configuration is rejected.
    pub(crate) fn new(
        local: SocketAddr,
        config: &NetConfig,
        shared: Arc<Mutex<Shared>>,
        delivery_tx: Sender<Delivery>,
    ) -> std::io::Result<NodeCore> {
        let seed = config.seed.unwrap_or_else(rand::random);
        let protocol = HyParView::new(local, config.protocol.clone(), seed)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let broadcaster = match config.broadcast_mode {
            BroadcastMode::Flood => {
                Broadcaster::Flood { seen: RecentSet::new(config.dedup_capacity) }
            }
            BroadcastMode::Plumtree => Broadcaster::Plumtree {
                state: PlumtreeState::new(
                    local,
                    config.plumtree.clone().with_cache_capacity(config.dedup_capacity),
                ),
                unit: config.plumtree_timer_unit,
                out: PlumtreeOut::new(),
            },
        };
        let mut metrics = Registry::new();
        let counters = NetCounters::register(&mut metrics);
        let trace = (config.trace_capacity > 0).then(|| TraceRing::new(config.trace_capacity));
        Ok(NodeCore {
            local,
            protocol,
            broadcaster,
            shared,
            delivery_tx,
            metrics,
            counters,
            trace,
            clock: WallClock::new(),
            actions: Actions::new(),
        })
    }

    /// Appends one decision-trace event, stamped with this node's
    /// wall-clock microseconds (no-op unless tracing is configured).
    fn trace_event(&mut self, kind: TraceKind) {
        let Some(ring) = &mut self.trace else { return };
        let node = u64::from(self.local.port());
        ring.record(TraceEvent { time: self.clock.now(), node, kind });
    }

    /// The node's identity (its listen address).
    pub(crate) fn local(&self) -> SocketAddr {
        self.local
    }

    /// Starts a join through `contact`.
    pub(crate) fn join(&mut self, contact: SocketAddr, ctx: &mut dyn NodeCtx) {
        let mut actions = std::mem::take(&mut self.actions);
        self.protocol.join(contact, &mut actions);
        self.execute(&mut actions, ctx);
        self.actions = actions;
    }

    /// Gracefully leaves the overlay (DISCONNECT to all active peers).
    pub(crate) fn leave(&mut self, ctx: &mut dyn NodeCtx) {
        let mut actions = std::mem::take(&mut self.actions);
        self.protocol.leave(&mut actions);
        self.execute(&mut actions, ctx);
        self.actions = actions;
    }

    /// Runs one membership shuffle cycle.
    pub(crate) fn on_shuffle_tick(&mut self, ctx: &mut dyn NodeCtx) {
        let mut actions = std::mem::take(&mut self.actions);
        self.protocol.shuffle_tick(&mut actions);
        self.execute(&mut actions, ctx);
        self.actions = actions;
    }

    /// Reacts to a transport-detected peer failure.
    pub(crate) fn on_peer_failed(&mut self, peer: SocketAddr, ctx: &mut dyn NodeCtx) {
        let mut actions = std::mem::take(&mut self.actions);
        self.protocol.on_peer_failed(peer, &mut actions);
        self.execute(&mut actions, ctx);
        self.actions = actions;
    }

    /// Handles one decoded frame from `from`.
    pub(crate) fn on_frame(&mut self, from: SocketAddr, frame: Frame, ctx: &mut dyn NodeCtx) {
        match frame {
            Frame::Hello { .. } => {} // handled by the transport layer
            Frame::Membership(message) => {
                // A rejected NEIGHBOR probe means the connection to the
                // rejecting peer has no further use — drop it instead of
                // letting repair attempts leak connections.
                let rejected = matches!(message, Message::NeighborReply { accepted: false });
                let mut actions = std::mem::take(&mut self.actions);
                self.protocol.handle_message(from, message, &mut actions);
                self.execute(&mut actions, ctx);
                self.actions = actions;
                if rejected && !self.protocol.active_view().contains(&from) {
                    self.send(from, &Frame::Membership(Message::Disconnect), ctx);
                    ctx.disconnect(from);
                }
            }
            Frame::Gossip { id, hops, payload } => {
                let Broadcaster::Flood { seen } = &mut self.broadcaster else {
                    // Flood traffic in Plumtree mode: a misconfigured peer.
                    self.metrics.inc(self.counters.mode_mismatched);
                    return;
                };
                if !seen.insert(id) {
                    self.metrics.inc(self.counters.duplicates);
                    return;
                }
                self.metrics.inc(self.counters.deliveries);
                self.trace_event(TraceKind::Delivered { msg: id as u64, hops });
                let _ = self.delivery_tx.try_send(Delivery { id, hops, payload: payload.clone() });
                // Eager flood: forward to the whole active view except the
                // sender (§4.1.ii).
                let targets = self.protocol.broadcast_targets(Some(from));
                self.send_to_all(&targets, &Frame::Gossip { id, hops: hops + 1, payload }, ctx);
            }
            Frame::PlumtreeGossip { id, round, payload } => {
                self.on_plumtree(from, PlumtreeMessage::Gossip { id, round, payload }, ctx);
            }
            Frame::PlumtreeIHave { id, round } => {
                self.on_plumtree(from, PlumtreeMessage::IHave { id, round }, ctx);
            }
            Frame::PlumtreeIHaveBatch { anns } => {
                let anns = anns.iter().map(|&(id, round)| Announcement { id, round }).collect();
                self.on_plumtree(from, PlumtreeMessage::IHaveBatch { anns }, ctx);
            }
            Frame::PlumtreeGraft { id, round } => {
                self.on_plumtree(from, PlumtreeMessage::Graft { id, round }, ctx);
            }
            Frame::PlumtreePrune => {
                self.on_plumtree(from, PlumtreeMessage::Prune, ctx);
            }
        }
    }

    /// Broadcasts a payload originated by this node.
    pub(crate) fn broadcast(&mut self, id: u128, payload: Bytes, ctx: &mut dyn NodeCtx) {
        match &mut self.broadcaster {
            Broadcaster::Flood { seen } => {
                if !seen.insert(id) {
                    return; // id collision with a recent broadcast: drop
                }
                self.metrics.inc(self.counters.broadcasts_sent);
                self.metrics.inc(self.counters.deliveries);
                self.trace_event(TraceKind::Delivered { msg: id as u64, hops: 0 });
                let _ =
                    self.delivery_tx.try_send(Delivery { id, hops: 0, payload: payload.clone() });
                let targets = self.protocol.broadcast_targets(None);
                self.send_to_all(&targets, &Frame::Gossip { id, hops: 1, payload }, ctx);
            }
            Broadcaster::Plumtree { state, out, .. } => {
                let mut out = std::mem::take(out);
                state.broadcast(id, payload, &mut out);
                if !out.deliveries.is_empty() {
                    self.metrics.inc(self.counters.broadcasts_sent);
                }
                self.apply_plumtree(out, ctx);
            }
        }
    }

    /// Fires one Plumtree timer that the runtime armed via
    /// [`NodeCtx::schedule`].
    pub(crate) fn on_plumtree_timer(&mut self, timer: PlumtreeTimer, ctx: &mut dyn NodeCtx) {
        let kind = match timer {
            PlumtreeTimer::Missing(_) => TimerKind::MissingMsg,
            PlumtreeTimer::LazyFlush => TimerKind::LazyFlush,
        };
        self.trace_event(TraceKind::TimerFired { timer: kind });
        let Broadcaster::Plumtree { state, out, .. } = &mut self.broadcaster else {
            return;
        };
        let mut out = std::mem::take(out);
        state.on_timer(timer, &mut out);
        self.apply_plumtree(out, ctx);
    }

    fn on_plumtree(
        &mut self,
        from: SocketAddr,
        message: PlumtreeMessage<Bytes>,
        ctx: &mut dyn NodeCtx,
    ) {
        if !matches!(self.broadcaster, Broadcaster::Plumtree { .. }) {
            // Plumtree traffic in flood mode: a misconfigured peer.
            self.metrics.inc(self.counters.mode_mismatched);
            return;
        }
        // Receiver-side tree decisions (the sender side traces
        // `GraftSent`/`PruneSent` in `apply_plumtree`).
        match &message {
            PlumtreeMessage::Graft { .. } => {
                self.trace_event(TraceKind::EagerPromote { peer: u64::from(from.port()) });
            }
            PlumtreeMessage::Prune => {
                self.trace_event(TraceKind::LazyDemote { peer: u64::from(from.port()) });
            }
            _ => {}
        }
        let Broadcaster::Plumtree { state, out, .. } = &mut self.broadcaster else { return };
        if let PlumtreeMessage::Gossip { id, .. } = &message {
            if state.has_seen(*id) {
                self.metrics.inc(self.counters.duplicates);
            }
        }
        let mut out = std::mem::take(out);
        state.handle_message(from, message, &mut out);
        self.apply_plumtree(out, ctx);
    }

    /// Ships the effects of one Plumtree step: frames out, deliveries up,
    /// timer requests to the runtime; the drained buffer goes back into the
    /// broadcaster for the next step.
    fn apply_plumtree(&mut self, mut out: PlumtreeOut<SocketAddr, Bytes>, ctx: &mut dyn NodeCtx) {
        // An eager push is the same bytes on every tree link: the encoding
        // of the last `(id, round)` pushed is kept and shared.
        let mut pushed: Option<((u128, u32), Bytes)> = None;
        for (to, message) in out.outbox.drain() {
            match &message {
                PlumtreeMessage::Graft { id, .. } => {
                    let msg = id.map(|id| id as u64).unwrap_or(0);
                    self.trace_event(TraceKind::GraftSent { peer: u64::from(to.port()), msg });
                }
                PlumtreeMessage::Prune => {
                    self.trace_event(TraceKind::PruneSent { peer: u64::from(to.port()) });
                }
                _ => {}
            }
            let frame = plumtree_frame(message);
            self.count_sent(&frame);
            let push = match &frame {
                Frame::PlumtreeGossip { id, round, .. } => Some((*id, *round)),
                _ => None,
            };
            let bytes = match &pushed {
                Some((key, bytes)) if push == Some(*key) => bytes.clone(),
                _ => encode(&frame),
            };
            if let Some(key) = push {
                pushed = Some((key, bytes.clone()));
            }
            ctx.send_frame(to, bytes);
        }
        for delivery in out.deliveries.drain(..) {
            self.metrics.inc(self.counters.deliveries);
            self.trace_event(TraceKind::Delivered {
                msg: delivery.id as u64,
                hops: delivery.round,
            });
            let _ = self.delivery_tx.try_send(Delivery {
                id: delivery.id,
                hops: delivery.round,
                payload: delivery.payload,
            });
        }
        let Broadcaster::Plumtree { unit, out: slot, .. } = &mut self.broadcaster else { return };
        for request in out.timers.drain(..) {
            let delay = unit.saturating_mul(request.delay.min(u32::MAX as u64) as u32);
            ctx.schedule(request.timer, delay);
        }
        *slot = out;
    }

    /// Counts, encodes and ships one outgoing frame.
    fn send(&mut self, to: SocketAddr, frame: &Frame, ctx: &mut dyn NodeCtx) {
        self.count_sent(frame);
        ctx.send_frame(to, encode(frame));
    }

    /// Ships `frame` to every peer of `targets`, encoded once: the
    /// out-queues share one buffer by reference count.
    fn send_to_all(&mut self, targets: &[SocketAddr], frame: &Frame, ctx: &mut dyn NodeCtx) {
        if targets.is_empty() {
            return;
        }
        let bytes = encode(frame);
        for &to in targets {
            self.count_sent(frame);
            ctx.send_frame(to, bytes.clone());
        }
    }

    /// Counts one outgoing frame by kind.
    fn count_sent(&mut self, frame: &Frame) {
        self.metrics.inc(self.counters.frames_sent);
        match frame {
            Frame::Gossip { .. } | Frame::PlumtreeGossip { .. } => {
                self.metrics.inc(self.counters.frames_payload);
            }
            Frame::PlumtreeIHave { .. } => self.metrics.inc(self.counters.frames_ihave),
            Frame::PlumtreeIHaveBatch { anns } => {
                self.metrics.inc(self.counters.frames_ihave_batch);
                self.metrics.add(self.counters.frames_ihave_batch_anns, anns.len() as u64);
            }
            _ => {}
        }
    }

    fn execute(&mut self, actions: &mut Actions<SocketAddr>, ctx: &mut dyn NodeCtx) {
        for action in actions.drain() {
            match action {
                Action::Send { to, message } => {
                    // Shuffle replies and neighbor rejections go to peers
                    // that are NOT neighbors: the paper sends them over
                    // temporary connections (§4.3). Without the close,
                    // every shuffle round leaks one connection per node —
                    // at thousands of nodes that exhausts the fd table in
                    // minutes. A trailing DISCONNECT tells the peer the
                    // close is deliberate, not a crash.
                    let temporary = matches!(
                        message,
                        Message::ShuffleReply { .. } | Message::NeighborReply { accepted: false }
                    ) && !self.protocol.active_view().contains(&to);
                    let graceful_close = matches!(message, Message::Disconnect);
                    self.send(to, &Frame::Membership(message), ctx);
                    if temporary {
                        self.trace_event(TraceKind::TempConnClose { peer: u64::from(to.port()) });
                        self.send(to, &Frame::Membership(Message::Disconnect), ctx);
                    }
                    if graceful_close || temporary {
                        // The frames are queued; the backend flushes them
                        // before tearing the connection down.
                        ctx.disconnect(to);
                    }
                }
                Action::NeighborUp { peer } => {
                    // New active-view links enter the Plumtree eager set;
                    // connections themselves are opened lazily by sends.
                    self.trace_event(TraceKind::NeighborUp { peer: u64::from(peer.port()) });
                    if let Broadcaster::Plumtree { state, .. } = &mut self.broadcaster {
                        state.on_neighbor_up(peer);
                    }
                }
                Action::NeighborDown { peer } => {
                    // The peer keeps its connection until DISCONNECT or
                    // failure, but it leaves the broadcast tree immediately.
                    self.trace_event(TraceKind::NeighborDown { peer: u64::from(peer.port()) });
                    if let Broadcaster::Plumtree { state, .. } = &mut self.broadcaster {
                        state.on_neighbor_down(peer);
                    }
                }
            }
        }
    }

    /// The legacy counters struct, materialized from the registry.
    fn stats_snapshot(&self) -> NodeStats {
        let c = |id: CounterId| self.metrics.counter_value(id);
        NodeStats {
            broadcasts_sent: c(self.counters.broadcasts_sent),
            deliveries: c(self.counters.deliveries),
            duplicates: c(self.counters.duplicates),
            mode_mismatched: c(self.counters.mode_mismatched),
            frames_sent: c(self.counters.frames_sent),
            payload_frames_sent: c(self.counters.frames_payload),
            ihave_frames_sent: c(self.counters.frames_ihave),
            ihave_batch_frames_sent: c(self.counters.frames_ihave_batch),
            ihave_batch_anns_sent: c(self.counters.frames_ihave_batch_anns),
        }
    }

    /// Copies the current views and counters into the shared snapshot the
    /// application handle reads.
    ///
    /// The protocol-layer counters (`hyparview.*`, `plumtree.*`) are
    /// refilled into the registry first, so the published mirror always
    /// carries the full canonical set. The refill registers those names on
    /// the first publish; afterwards the layout is stable and the mirror
    /// is an allocation-free value copy.
    pub(crate) fn publish(&mut self) {
        self.protocol.stats().fill_registry(&mut self.metrics);
        if let Broadcaster::Plumtree { state, .. } = &self.broadcaster {
            state.stats().fill_registry(&mut self.metrics);
        }
        let mut shared = self.shared.lock();
        // `clone_into` refills the snapshots in place: no allocation once
        // they have grown to the view sizes.
        self.protocol.active_view().as_slice().clone_into(&mut shared.active);
        self.protocol.passive_view().as_slice().clone_into(&mut shared.passive);
        if let Broadcaster::Plumtree { state, .. } = &self.broadcaster {
            state.eager().clone_into(&mut shared.eager);
            state.lazy().clone_into(&mut shared.lazy);
        }
        shared.stats = self.stats_snapshot();
        if shared.metrics.names().len() == self.metrics.names().len() {
            shared.metrics.copy_values_from(&self.metrics);
        } else {
            shared.metrics = self.metrics.clone();
        }
        if let Some(ring) = &mut self.trace {
            let sink = shared.trace.get_or_insert_with(|| TraceRing::new(ring.capacity()));
            for event in ring.drain() {
                sink.record(event);
            }
        }
    }
}

/// Plumtree message → wire frame.
fn plumtree_frame(message: PlumtreeMessage<Bytes>) -> Frame {
    match message {
        PlumtreeMessage::Gossip { id, round, payload } => {
            Frame::PlumtreeGossip { id, round, payload }
        }
        PlumtreeMessage::IHave { id, round } => Frame::PlumtreeIHave { id, round },
        PlumtreeMessage::IHaveBatch { anns } => {
            Frame::PlumtreeIHaveBatch { anns: anns.iter().map(|a| (a.id, a.round)).collect() }
        }
        PlumtreeMessage::Graft { id, round } => Frame::PlumtreeGraft { id, round },
        PlumtreeMessage::Prune => Frame::PlumtreePrune,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameReader;
    use crossbeam::channel::bounded;
    use hyparview_plumtree::PlumtreeConfig;

    /// A [`NodeCtx`] that keeps what the core hands it.
    #[derive(Default)]
    struct Recorder {
        sent: Vec<(SocketAddr, Bytes)>,
    }

    impl NodeCtx for Recorder {
        fn send_frame(&mut self, to: SocketAddr, frame: Bytes) {
            self.sent.push((to, frame));
        }
        fn disconnect(&mut self, _peer: SocketAddr) {}
        fn schedule(&mut self, _timer: PlumtreeTimer, _delay: Duration) {}
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// A core whose active view holds peers 1 to 5 (the paper's fanout).
    fn core_with_five_neighbors(config: NetConfig) -> NodeCore {
        let (delivery_tx, _) = bounded(16);
        let config = NetConfig { seed: Some(1), ..config };
        let mut core = NodeCore::new(addr(9), &config, Arc::default(), delivery_tx).unwrap();
        for port in 1..=5 {
            core.on_frame(addr(port), Frame::Membership(Message::Join), &mut Recorder::default());
        }
        assert_eq!(core.protocol.active_view().len(), 5);
        core
    }

    fn decoded(bytes: &Bytes) -> Frame {
        let mut reader = FrameReader::new();
        reader.extend(bytes);
        reader.next_frame().unwrap().expect("one whole frame")
    }

    #[test]
    fn flood_forward_is_encoded_once_for_all_targets() {
        let mut core = core_with_five_neighbors(NetConfig::default());
        let before = core.stats_snapshot();
        let payload = Bytes::from(vec![7u8; 64]);
        let mut ctx = Recorder::default();
        core.on_frame(
            addr(1),
            Frame::Gossip { id: 42, hops: 2, payload: payload.clone() },
            &mut ctx,
        );

        let mut targets: Vec<u16> = ctx.sent.iter().map(|(to, _)| to.port()).collect();
        targets.sort_unstable();
        assert_eq!(targets, [2, 3, 4, 5], "forwarded to the active view except the sender");
        let first = &ctx.sent[0].1;
        assert_eq!(decoded(first), Frame::Gossip { id: 42, hops: 3, payload });
        for (_, bytes) in &ctx.sent {
            assert_eq!(bytes.as_ptr(), first.as_ptr(), "every out-queue shares one buffer");
        }
        let after = core.stats_snapshot();
        assert_eq!(after.frames_sent - before.frames_sent, 4);
        assert_eq!(after.payload_frames_sent - before.payload_frames_sent, 4);
        assert_eq!(after.deliveries - before.deliveries, 1);
    }

    #[test]
    fn plumtree_eager_push_is_encoded_once_per_round() {
        // Static Plumtree: lazy links announce at once, with single IHaves.
        let mut core = core_with_five_neighbors(
            NetConfig::default()
                .with_broadcast_mode(BroadcastMode::Plumtree)
                .with_plumtree(PlumtreeConfig::default()),
        );
        core.on_frame(addr(5), Frame::PlumtreePrune, &mut Recorder::default());
        let before = core.stats_snapshot();
        let payload = Bytes::from(vec![7u8; 8 * 1024]);
        let mut ctx = Recorder::default();
        let push = Frame::PlumtreeGossip { id: 42, round: 2, payload: payload.clone() };
        core.on_frame(addr(1), push, &mut ctx);

        let (pushes, announcements): (Vec<_>, Vec<_>) =
            ctx.sent.iter().partition(|(_, bytes)| bytes.len() > payload.len());
        let mut targets: Vec<u16> = pushes.iter().map(|(to, _)| to.port()).collect();
        targets.sort_unstable();
        assert_eq!(targets, [2, 3, 4], "pushed on the tree links except the sender's");
        let first = &pushes[0].1;
        assert_eq!(decoded(first), Frame::PlumtreeGossip { id: 42, round: 3, payload });
        for (_, bytes) in &pushes {
            assert_eq!(bytes.as_ptr(), first.as_ptr(), "every out-queue shares one buffer");
        }
        assert_eq!(announcements.len(), 1);
        assert_eq!(announcements[0].0, addr(5));
        assert_eq!(decoded(&announcements[0].1), Frame::PlumtreeIHave { id: 42, round: 3 });
        let after = core.stats_snapshot();
        assert_eq!(after.frames_sent - before.frames_sent, 4);
        assert_eq!(after.payload_frames_sent - before.payload_frames_sent, 3);
        assert_eq!(after.ihave_frames_sent - before.ihave_frames_sent, 1);
        assert_eq!(after.ihave_batch_frames_sent, 0);
    }
}
