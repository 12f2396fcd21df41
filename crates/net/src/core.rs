//! One live node, independent of the I/O runtime: the generic
//! [`NodeCore`] (HyParView membership + flood or Plumtree, the very code
//! the simulator runs) with `Bytes` payloads, plus what only a deployment
//! has: the wire encoding, temporary connections, the application's
//! delivery channel and the published snapshot.
//!
//! [`LiveNode`] turns decoded frames into [`NodeCore`] events; [`LiveCtx`]
//! is the core's effect sink, which encodes what the core sends (once per
//! flood forward, once per `(id, round)` eager push) and hands the bytes to
//! a [`FrameSink`]. The reactor (`reactor.rs`) multiplexes many nodes onto
//! one epoll loop behind that sink. Keeping all of this sans-runtime means
//! identical frames in produce identical frames out, regardless of which
//! I/O shell carried them.

use crate::node::NetConfig;
use crate::wire::{encode, Frame};
use bytes::Bytes;
use crossbeam::channel::Sender;
use hyparview_core::{Message, RecentSet};
use hyparview_obsv::{
    names, Clock, CounterId, Registry, TraceEvent, TraceKind, TraceRing, TraceSink, WallClock,
};
use hyparview_plumtree::{
    Announcement, BroadcastMode, FrameCounters, HyParViewMembership, Membership, MembershipEvent,
    MsgId, NodeCore, NodeCtx, PlumtreeMessage, PlumtreeState, PlumtreeTimer, Scratch,
};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Mutable view snapshots shared with the application-facing handle.
#[derive(Debug, Default, Clone)]
pub(crate) struct Shared {
    pub(crate) active: Vec<SocketAddr>,
    pub(crate) passive: Vec<SocketAddr>,
    pub(crate) eager: Vec<SocketAddr>,
    pub(crate) lazy: Vec<SocketAddr>,
    pub(crate) stats: NodeStats,
    /// Mirror of the node's full metric registry (canonical names,
    /// `hyparview.*` and `plumtree.*` counters included).
    pub(crate) metrics: Registry,
    /// Trace events drained from the node's ring on publish (bounded by
    /// the same capacity).
    pub(crate) trace: Option<TraceRing>,
}

/// The transport a [`LiveNode`] drives: encoded frames out, graceful
/// connection teardown, timer arming. Implemented by the reactor's
/// `ReactorCtx` (shared epoll loop).
pub(crate) trait FrameSink {
    /// Ships one encoded frame to `to`, opening a connection lazily.
    /// Failures are asynchronous: they come back as an `on_peer_failed`
    /// call.
    fn send_frame(&mut self, to: SocketAddr, frame: Bytes);
    /// Drops the outbound connection to `peer` (after flushing queued
    /// frames) without reporting a failure.
    fn disconnect(&mut self, peer: SocketAddr);
    /// Arms `timer` to fire after `delay` (wall clock).
    fn schedule(&mut self, timer: PlumtreeTimer, delay: Duration);
    /// The transport's reading of the clock for the event being handled
    /// (the reactor takes one per loop turn), so that handling a frame
    /// costs no clock read of its own.
    fn now(&self) -> Instant;
}

type LiveMembership = HyParViewMembership<SocketAddr>;

/// What a node's effects land in besides the transport.
struct Surface {
    local: SocketAddr,
    /// Bounded duplicate suppression of the flood (Plumtree's message
    /// store is its own).
    seen: Option<RecentSet<u128>>,
    /// Wall-clock length of one Plumtree timer unit.
    timer_unit: Duration,
    scratch: Scratch<SocketAddr, Message<SocketAddr>, Bytes>,
    delivery_tx: Sender<Delivery>,
    metrics: Registry,
    frames: FrameCounters,
    mode_mismatched: CounterId,
    trace: Option<TraceRing>,
    clock: WallClock,
}

/// One node's full protocol state, independent of the I/O runtime.
pub(crate) struct LiveNode {
    core: NodeCore<SocketAddr, LiveMembership, Bytes>,
    surface: Surface,
    shared: Arc<Mutex<Shared>>,
}

/// The [`NodeCtx`] of one [`LiveNode`] event: counts, encodes and ships.
struct LiveCtx<'a> {
    surface: &'a mut Surface,
    sink: &'a mut dyn FrameSink,
    /// An eager push is the same bytes on every tree link: the encoding
    /// of the last `(id, round)` pushed is kept and shared.
    pushed: Option<((u128, u32), Bytes)>,
}

impl LiveCtx<'_> {
    /// Counts, encodes and ships one membership frame.
    fn send(&mut self, to: SocketAddr, message: Message<SocketAddr>) {
        self.surface.metrics.inc(self.surface.frames.sent);
        self.sink.send_frame(to, encode(&Frame::Membership(message)));
    }
}

impl NodeCtx<SocketAddr, LiveMembership, Bytes> for LiveCtx<'_> {
    fn scratch(&mut self) -> &mut Scratch<SocketAddr, Message<SocketAddr>, Bytes> {
        &mut self.surface.scratch
    }

    /// The transport's clock in whole timer units since this node started
    /// (a zero-length unit never ages anything).
    fn now(&self) -> u64 {
        let unit_us = self.surface.timer_unit.as_micros() as u64;
        self.surface.clock.at(self.sink.now()).checked_div(unit_us).unwrap_or(0)
    }

    fn send_membership(
        &mut self,
        membership: &LiveMembership,
        to: SocketAddr,
        message: Message<SocketAddr>,
    ) {
        // Shuffle replies and neighbor rejections go to peers that are
        // NOT neighbors: the paper sends them over temporary connections
        // (§4.3). Without the close, every shuffle round leaks one
        // connection per node — at thousands of nodes that exhausts the
        // fd table in minutes. A trailing DISCONNECT tells the peer the
        // close is deliberate, not a crash.
        let temporary = matches!(
            message,
            Message::ShuffleReply { .. } | Message::NeighborReply { accepted: false }
        ) && !membership.protocol().active_view().contains(&to);
        let graceful_close = matches!(message, Message::Disconnect);
        self.send(to, message);
        if temporary {
            self.trace(TraceKind::TempConnClose { peer: u64::from(to.port()) });
            self.send(to, Message::Disconnect);
        }
        if graceful_close || temporary {
            // The frames are queued; the backend flushes them before
            // tearing the connection down.
            self.sink.disconnect(to);
        }
    }

    /// Encoded once: the out-queues share one buffer by reference count.
    fn send_flood(&mut self, id: MsgId, hops: u32, payload: Bytes, targets: Vec<SocketAddr>) {
        if targets.is_empty() {
            return;
        }
        let bytes = encode(&Frame::Gossip { id, hops, payload });
        let surface = &mut *self.surface;
        surface.frames.count_payload(&mut surface.metrics, targets.len() as u64);
        for to in targets {
            self.sink.send_frame(to, bytes.clone());
        }
    }

    fn send_plumtree(&mut self, to: SocketAddr, message: PlumtreeMessage<Bytes>) {
        let surface = &mut *self.surface;
        surface.frames.count(&mut surface.metrics, &message, 1);
        let push = match &message {
            PlumtreeMessage::Gossip { id, round, .. } => Some((*id, *round)),
            _ => None,
        };
        let bytes = match &self.pushed {
            Some((key, bytes)) if push == Some(*key) => bytes.clone(),
            _ => encode(&plumtree_frame(message)),
        };
        if let Some(key) = push {
            self.pushed = Some((key, bytes.clone()));
        }
        self.sink.send_frame(to, bytes);
    }

    fn has_delivered(&self, id: MsgId) -> bool {
        self.surface.seen.as_ref().is_some_and(|seen| seen.contains(&id))
    }

    fn deliver(&mut self, id: MsgId, hops: u32, from: Option<SocketAddr>, payload: Bytes) {
        let surface = &mut *self.surface;
        if let Some(seen) = &mut surface.seen {
            seen.insert(id);
        }
        if from.is_none() {
            surface.metrics.inc(surface.frames.broadcasts);
        }
        surface.metrics.inc(surface.frames.delivered);
        self.trace(TraceKind::Delivered { msg: id as u64, hops });
        let _ = self.surface.delivery_tx.try_send(Delivery { id, hops, payload });
    }

    fn duplicate(&mut self, _id: MsgId) {
        self.surface.metrics.inc(self.surface.frames.duplicates);
    }

    fn schedule(&mut self, timer: PlumtreeTimer, delay: u64) {
        let delay = self.surface.timer_unit.saturating_mul(delay.min(u32::MAX as u64) as u32);
        self.sink.schedule(timer, delay);
    }

    /// Defense decisions are a simulator experiment; a live node only
    /// drains them.
    fn membership_event(&mut self, _event: MembershipEvent<SocketAddr>) {}

    fn tracing(&self) -> bool {
        self.surface.trace.is_some()
    }

    fn trace_id(&self, peer: SocketAddr) -> u64 {
        u64::from(peer.port())
    }

    /// Stamped with this node's wall-clock microseconds.
    fn trace(&mut self, kind: TraceKind) {
        let Some(ring) = &mut self.surface.trace else { return };
        let node = u64::from(self.surface.local.port());
        ring.record(TraceEvent { time: self.surface.clock.now(), node, kind });
    }
}

impl LiveNode {
    /// Builds the node for `local` from the runtime configuration.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the protocol configuration is rejected.
    pub(crate) fn new(
        local: SocketAddr,
        config: &NetConfig,
        shared: Arc<Mutex<Shared>>,
        delivery_tx: Sender<Delivery>,
    ) -> std::io::Result<LiveNode> {
        let seed = config.seed.unwrap_or_else(rand::random);
        let membership = LiveMembership::new(local, config.protocol.clone(), seed)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let (core, seen) = match config.broadcast_mode {
            // HyParView floods its whole active view whatever the fanout.
            BroadcastMode::Flood => (
                NodeCore::flood(membership, usize::MAX),
                Some(RecentSet::new(config.dedup_capacity)),
            ),
            BroadcastMode::Plumtree => {
                let plumtree = config.plumtree.clone().with_cache_capacity(config.dedup_capacity);
                (NodeCore::plumtree(membership, PlumtreeState::new(local, plumtree)), None)
            }
        };
        let mut metrics = Registry::new();
        let frames = FrameCounters::register(&mut metrics);
        let mode_mismatched = metrics.counter(names::NET_MODE_MISMATCHED);
        let trace = (config.trace_capacity > 0).then(|| TraceRing::new(config.trace_capacity));
        let surface = Surface {
            local,
            seen,
            timer_unit: config.plumtree_timer_unit,
            scratch: Scratch::default(),
            delivery_tx,
            metrics,
            frames,
            mode_mismatched,
            trace,
            clock: WallClock::new(),
        };
        Ok(LiveNode { core, surface, shared })
    }

    /// The node's identity (its listen address).
    pub(crate) fn local(&self) -> SocketAddr {
        self.surface.local
    }

    /// Runs one core event with the context that ships its effects.
    fn act(
        &mut self,
        sink: &mut dyn FrameSink,
        event: impl FnOnce(&mut NodeCore<SocketAddr, LiveMembership, Bytes>, &mut LiveCtx<'_>),
    ) {
        event(&mut self.core, &mut LiveCtx { surface: &mut self.surface, sink, pushed: None });
    }

    /// Starts a join through `contact`.
    pub(crate) fn join(&mut self, contact: SocketAddr, sink: &mut dyn FrameSink) {
        self.act(sink, |core, ctx| core.step(ctx, |node, out| node.join(contact, out)));
    }

    /// Gracefully leaves the overlay (DISCONNECT to all active peers).
    pub(crate) fn leave(&mut self, sink: &mut dyn FrameSink) {
        self.act(sink, |core, ctx| core.step(ctx, |node, out| node.leave(out)));
    }

    /// Runs one membership shuffle cycle.
    pub(crate) fn on_shuffle_tick(&mut self, sink: &mut dyn FrameSink) {
        self.act(sink, |core, ctx| core.step(ctx, |node, out| node.on_cycle(out)));
    }

    /// Reacts to a transport-detected peer failure.
    pub(crate) fn on_peer_failed(&mut self, peer: SocketAddr, sink: &mut dyn FrameSink) {
        self.act(sink, |core, ctx| core.step(ctx, |node, out| node.on_send_failed(peer, out)));
    }

    /// Handles one decoded frame from `from`.
    pub(crate) fn on_frame(&mut self, from: SocketAddr, frame: Frame, sink: &mut dyn FrameSink) {
        match frame {
            Frame::Hello { .. } => {} // handled by the transport layer
            Frame::Membership(message) => {
                // A rejected NEIGHBOR probe means the connection to the
                // rejecting peer has no further use — drop it instead of
                // letting repair attempts leak connections.
                let rejected = matches!(message, Message::NeighborReply { accepted: false });
                self.act(sink, |core, ctx| {
                    core.step(ctx, |node, out| node.handle_message(from, message, out));
                    if rejected && !core.membership().protocol().active_view().contains(&from) {
                        ctx.send(from, Message::Disconnect);
                        ctx.sink.disconnect(from);
                    }
                });
            }
            Frame::Gossip { id, hops, payload } => {
                if self.core.plumtree_state().is_none() {
                    self.act(sink, |core, ctx| core.on_flood(Some(from), id, hops, payload, ctx));
                } else {
                    // Flood traffic in Plumtree mode: a misconfigured peer.
                    self.surface.metrics.inc(self.surface.mode_mismatched);
                }
            }
            Frame::PlumtreeGossip { id, round, payload } => {
                self.on_plumtree(from, PlumtreeMessage::Gossip { id, round, payload }, sink);
            }
            Frame::PlumtreeIHave { id, round } => {
                self.on_plumtree(from, PlumtreeMessage::IHave { id, round }, sink);
            }
            Frame::PlumtreeIHaveBatch { anns } => {
                let anns = anns.iter().map(|&(id, round)| Announcement { id, round }).collect();
                self.on_plumtree(from, PlumtreeMessage::IHaveBatch { anns }, sink);
            }
            Frame::PlumtreeGraft { id, round } => {
                self.on_plumtree(from, PlumtreeMessage::Graft { id, round }, sink);
            }
            Frame::PlumtreePrune => {
                self.on_plumtree(from, PlumtreeMessage::Prune, sink);
            }
        }
    }

    fn on_plumtree(
        &mut self,
        from: SocketAddr,
        message: PlumtreeMessage<Bytes>,
        sink: &mut dyn FrameSink,
    ) {
        if self.core.plumtree_state().is_some() {
            self.act(sink, |core, ctx| core.on_plumtree(from, message, ctx));
        } else {
            // Plumtree traffic in flood mode: a misconfigured peer.
            self.surface.metrics.inc(self.surface.mode_mismatched);
        }
    }

    /// Broadcasts a payload originated by this node.
    pub(crate) fn broadcast(&mut self, id: u128, payload: Bytes, sink: &mut dyn FrameSink) {
        self.act(sink, |core, ctx| core.broadcast(id, payload, ctx));
    }

    /// Fires one Plumtree timer that the runtime armed via
    /// [`FrameSink::schedule`].
    pub(crate) fn on_plumtree_timer(&mut self, timer: PlumtreeTimer, sink: &mut dyn FrameSink) {
        self.act(sink, |core, ctx| core.on_timer(timer, ctx));
    }

    /// The legacy counters struct, materialized from the registry.
    fn stats_snapshot(&self) -> NodeStats {
        let frames = &self.surface.frames;
        let c = |id: CounterId| self.surface.metrics.counter_value(id);
        NodeStats {
            broadcasts_sent: c(frames.broadcasts),
            deliveries: c(frames.delivered),
            duplicates: c(frames.duplicates),
            mode_mismatched: c(self.surface.mode_mismatched),
            frames_sent: c(frames.sent),
            payload_frames_sent: c(frames.payload),
            ihave_frames_sent: c(frames.ihave),
            ihave_batch_frames_sent: c(frames.ihave_batch),
            ihave_batch_anns_sent: c(frames.ihave_batch_anns),
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
        let protocol = self.core.membership().protocol();
        let metrics = &mut self.surface.metrics;
        protocol.stats().fill_registry(metrics);
        if let Some(plumtree) = self.core.plumtree_state() {
            plumtree.stats().fill_registry(metrics);
        }
        let stats = self.stats_snapshot();
        let metrics = &self.surface.metrics;
        let mut shared = self.shared.lock();
        // `clone_into` refills the snapshots in place: no allocation once
        // they have grown to the view sizes.
        protocol.active_view().as_slice().clone_into(&mut shared.active);
        protocol.passive_view().as_slice().clone_into(&mut shared.passive);
        if let Some(plumtree) = self.core.plumtree_state() {
            plumtree.eager().clone_into(&mut shared.eager);
            plumtree.lazy().clone_into(&mut shared.lazy);
        }
        shared.stats = stats;
        if shared.metrics.names().len() == metrics.names().len() {
            shared.metrics.copy_values_from(metrics);
        } else {
            shared.metrics = metrics.clone();
        }
        if let Some(ring) = &mut self.surface.trace {
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
    use crossbeam::channel::{bounded, Receiver};
    use hyparview_plumtree::PlumtreeConfig;

    /// A [`FrameSink`] that keeps what the node hands it and tells the
    /// time it is set to.
    struct Recorder {
        sent: Vec<(SocketAddr, Bytes)>,
        now: Instant,
    }

    impl Default for Recorder {
        fn default() -> Self {
            Recorder { sent: Vec::new(), now: Instant::now() }
        }
    }

    impl FrameSink for Recorder {
        fn send_frame(&mut self, to: SocketAddr, frame: Bytes) {
            self.sent.push((to, frame));
        }
        fn disconnect(&mut self, _peer: SocketAddr) {}
        fn schedule(&mut self, _timer: PlumtreeTimer, _delay: Duration) {}
        fn now(&self) -> Instant {
            self.now
        }
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    /// A core whose active view holds peers 1 to 5 (the paper's fanout).
    fn core_with_five_neighbors(config: NetConfig) -> LiveNode {
        core_and_deliveries(config, 16).0
    }

    /// The same with the application's end of a delivery channel that
    /// holds `deliveries`.
    fn core_and_deliveries(config: NetConfig, deliveries: usize) -> (LiveNode, Receiver<Delivery>) {
        let (delivery_tx, delivery_rx) = bounded(deliveries);
        let config = NetConfig { seed: Some(1), ..config };
        let mut core = LiveNode::new(addr(9), &config, Arc::default(), delivery_tx).unwrap();
        for port in 1..=5 {
            core.on_frame(addr(port), Frame::Membership(Message::Join), &mut Recorder::default());
        }
        assert_eq!(core.core.membership().protocol().active_view().len(), 5);
        (core, delivery_rx)
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

    #[test]
    fn plumtree_store_ages_out_by_the_sinks_clock() {
        // The shipped configuration: room for 8,192 messages, a horizon of
        // 640 timer units of 20 ms. One frame every 100 ms is 5 units, so
        // 128 ids are younger than the horizon at any time and the 30 s
        // of traffic below never comes near the count cap.
        let config = NetConfig::default().with_broadcast_mode(BroadcastMode::Plumtree);
        assert_eq!(config.dedup_capacity, 8_192);
        let unit = config.plumtree_timer_unit;
        let window = (config.plumtree.retention() / 5) as usize;
        let (mut core, deliveries) = core_and_deliveries(config, 512);
        let mut sink = Recorder::default();
        let payload = Bytes::from(vec![7u8; 64]);
        for id in 0..300u32 {
            sink.now += unit * 5;
            let push = Frame::PlumtreeGossip { id: id.into(), round: 1, payload: payload.clone() };
            core.on_frame(addr(1), push, &mut sink);
            let held = core.core.plumtree_state().expect("Plumtree mode").cached_len();
            assert_eq!(held, window.min(id as usize + 1), "after id {id}");
        }
        let state = core.core.plumtree_state().expect("Plumtree mode");
        assert!(state.has_seen(299) && !state.has_seen(299 - window as u128));
        let delivered: Vec<u128> = deliveries.try_iter().map(|delivery| delivery.id).collect();
        assert_eq!(delivered, (0..300).collect::<Vec<u128>>(), "each id once, in order");
        assert_eq!((core.stats_snapshot().deliveries, core.stats_snapshot().duplicates), (300, 0));
    }
}
