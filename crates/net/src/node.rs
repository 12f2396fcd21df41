//! The node runtime handle: the application-facing [`Node`] driving the
//! sans-io [`HyParView`](hyparview_core::HyParView) state machine plus the
//! gossip broadcast layer (the [`NodeCore`](hyparview_plumtree::NodeCore)
//! the simulator also runs) over real TCP.
//!
//! A node registers with a shared epoll [`Reactor`](crate::reactor), which
//! multiplexes its event loop, timers and every connection onto one thread.
//! [`Node::spawn`] is the single-node special case of
//! [`Cluster::spawn_node`](crate::Cluster::spawn_node), which drives
//! thousands of nodes in one process.
//!
//! This is the deployable form of the system the paper sketches for its
//! PlanetLab experiment (§6): real sockets, real connection failures, the
//! same protocol core as the simulator.

use crate::core::Shared;
use crate::reactor::{Cluster, ClusterInner};
use crate::wire::MAX_PAYLOAD_LEN;
use bytes::Bytes;
use crossbeam::channel::Receiver;
use hyparview_core::Config;
use hyparview_obsv::{Registry, TraceEvent};
use hyparview_plumtree::{BroadcastMode, PlumtreeConfig};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

pub use crate::core::{Delivery, NodeStats, MAX_FLOOD_HOPS};

/// Round-difference threshold of the runtime's default tree optimization
/// (Plumtree §3.8): an `IHave` announcing a path at least this many rounds
/// shorter than the eager delivery swaps the lazy link into the tree. The
/// value matches the `hpv-bench plumtree` experiment's optimizing trees,
/// which it flattens after healing without ever costing reliability.
pub const DEFAULT_OPTIMIZATION_THRESHOLD: u32 = 2;

/// Default lazy-announcement flush interval, in Plumtree timer units
/// (× the runtime's 20 ms timer unit ⇒ 40 ms).
/// Folds concurrent broadcasts' announcements into `IHaveBatch` frames
/// while keeping the worst-case repair delay small.
pub const DEFAULT_LAZY_FLUSH_INTERVAL: u64 = 2;

/// Runtime configuration for a [`Node`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// HyParView protocol parameters.
    pub protocol: Config,
    /// Interval between shuffle ticks (the paper's membership cycle).
    pub shuffle_interval: Duration,
    /// RNG seed for the protocol instance (`None` = from entropy).
    pub seed: Option<u64>,
    /// How many recent gossip ids to remember for duplicate suppression,
    /// in either mode. Plumtree keeps a payload beside an id only while a
    /// peer it announced the id to has neither shown that it holds the id
    /// nor left the view.
    ///
    /// The flood's window (a [`hyparview_core::RecentSet`] of 16-byte ids)
    /// costs each node 20 B per id once full: 2,560 B at 128 ids and
    /// 163,840 B at the default 8,192.
    ///
    /// At-most-once delivery needs a window larger than the broadcasts in
    /// flight: a late copy of an id that has left the window is delivered
    /// and forwarded again, up to [`MAX_FLOOD_HOPS`](crate::MAX_FLOOD_HOPS)
    /// hops from its origin.
    pub dedup_capacity: usize,
    /// How broadcast payloads are disseminated.
    pub broadcast_mode: BroadcastMode,
    /// Plumtree tuning (timeouts in timer units of 20 ms wall clock). The
    /// cache capacity is overridden by `dedup_capacity` so both engines
    /// share one knob.
    ///
    /// Unlike the simulator (which keeps the paper-fidelity static tree by
    /// default), the runtime defaults to the *adaptive* §3.8 behavior:
    /// tree optimization at [`DEFAULT_OPTIMIZATION_THRESHOLD`] and lazy
    /// batching at [`DEFAULT_LAZY_FLUSH_INTERVAL`] timer units. Real
    /// sockets always have variable latency, and the `latency` slice of
    /// `hpv-bench plumtree` shows optimization strictly flattening healed
    /// trees at 100% reliability there. Restore the paper's static behavior with
    /// `.with_plumtree(PlumtreeConfig::default())`.
    pub plumtree: PlumtreeConfig,
    /// Capacity of the node's decision-trace ring (see
    /// [`hyparview_obsv::TraceRing`]); `0` disables tracing.
    pub trace_capacity: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            protocol: Config::default(),
            shuffle_interval: Duration::from_millis(500),
            seed: None,
            dedup_capacity: 8192,
            broadcast_mode: BroadcastMode::Flood,
            plumtree: PlumtreeConfig::default()
                .with_optimization_threshold(Some(DEFAULT_OPTIMIZATION_THRESHOLD))
                .with_lazy_flush_interval(DEFAULT_LAZY_FLUSH_INTERVAL),
            trace_capacity: 0,
        }
    }
}

impl NetConfig {
    /// Selects the broadcast dissemination engine.
    pub fn with_broadcast_mode(mut self, mode: BroadcastMode) -> Self {
        self.broadcast_mode = mode;
        self
    }

    /// Sets the Plumtree tuning (timeouts, tree optimization threshold,
    /// lazy-flush interval). The cache capacity is still overridden by
    /// [`NetConfig::dedup_capacity`].
    pub fn with_plumtree(mut self, config: PlumtreeConfig) -> Self {
        self.plumtree = config;
        self
    }

    /// Enables structured decision tracing with a ring of `capacity`
    /// events (drained into the node handle's snapshot on each publish).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// A broadcast payload above [`MAX_PAYLOAD_LEN`]: no frame can carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadTooLarge {
    /// Length of the refused payload.
    pub len: usize,
}

impl std::fmt::Display for PayloadTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload of {} bytes exceeds the {MAX_PAYLOAD_LEN}-byte limit", self.len)
    }
}

impl std::error::Error for PayloadTooLarge {}

pub(crate) enum Control {
    Join(SocketAddr),
    Broadcast { id: u128, payload: Bytes },
    Leave,
}

/// Capacity of the application delivery channel.
pub(crate) const DELIVERY_QUEUE: usize = 65_536;

/// A running HyParView node bound to a TCP address.
///
/// Dropping the handle shuts the node down.
///
/// # Examples
///
/// ```no_run
/// use hyparview_net::{NetConfig, Node};
///
/// # fn main() -> std::io::Result<()> {
/// let a = Node::spawn("127.0.0.1:0".parse().unwrap(), NetConfig::default())?;
/// let b = Node::spawn("127.0.0.1:0".parse().unwrap(), NetConfig::default())?;
/// b.join(a.addr());
/// b.broadcast(b"hello overlay".to_vec());
/// # Ok(())
/// # }
/// ```
pub struct Node {
    pub(crate) addr: SocketAddr,
    pub(crate) deliveries: Receiver<Delivery>,
    pub(crate) shared: Arc<Mutex<Shared>>,
    /// The reactor hosting this node, and the node's index on it.
    pub(crate) cluster: Arc<ClusterInner>,
    pub(crate) index: usize,
}

impl Node {
    /// Binds `addr` (port 0 for ephemeral) and starts the node on a private
    /// single-node [`Cluster`] — to share one reactor across many nodes,
    /// use [`Cluster::spawn_node`](crate::Cluster::spawn_node) instead.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the reactor or binding the
    /// listener.
    pub fn spawn(addr: SocketAddr, config: NetConfig) -> std::io::Result<Node> {
        Cluster::new()?.spawn_node(addr, config)
    }

    /// The node's identity: its bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Joins the overlay through `contact`.
    pub fn join(&self, contact: SocketAddr) {
        self.cluster.control(self.index, Control::Join(contact));
    }

    /// Broadcasts `payload` to the overlay, returning the broadcast id.
    ///
    /// # Panics
    ///
    /// Panics when `payload` is longer than [`MAX_PAYLOAD_LEN`]; use
    /// [`Node::try_broadcast`] for payloads of unchecked size.
    pub fn broadcast(&self, payload: Vec<u8>) -> u128 {
        self.try_broadcast(payload).expect("broadcast payload fits a frame")
    }

    /// Broadcasts `payload` to the overlay, returning the broadcast id.
    ///
    /// # Errors
    ///
    /// Refuses a payload longer than [`MAX_PAYLOAD_LEN`] before anything is
    /// delivered or sent: every receiver would answer the oversized frame
    /// by dropping the connection and evicting this node from its view.
    pub fn try_broadcast(&self, payload: Vec<u8>) -> Result<u128, PayloadTooLarge> {
        if payload.len() > MAX_PAYLOAD_LEN {
            return Err(PayloadTooLarge { len: payload.len() });
        }
        let id = rand::random();
        self.cluster.control(self.index, Control::Broadcast { id, payload: Bytes::from(payload) });
        Ok(id)
    }

    /// Receiver of gossip deliveries (the node's own broadcasts included,
    /// with `hops == 0`).
    pub fn deliveries(&self) -> &Receiver<Delivery> {
        &self.deliveries
    }

    /// Snapshot of the current active view.
    pub fn active_view(&self) -> Vec<SocketAddr> {
        self.shared.lock().active.clone()
    }

    /// Snapshot of the current passive view.
    pub fn passive_view(&self) -> Vec<SocketAddr> {
        self.shared.lock().passive.clone()
    }

    /// Snapshot of the Plumtree eager (tree) links. Empty in flood mode.
    pub fn eager_peers(&self) -> Vec<SocketAddr> {
        self.shared.lock().eager.clone()
    }

    /// Snapshot of the Plumtree lazy (announcement-only) links. Empty in
    /// flood mode.
    pub fn lazy_peers(&self) -> Vec<SocketAddr> {
        self.shared.lock().lazy.clone()
    }

    /// One *consistent* snapshot of `(active view, eager links, lazy
    /// links)` — taken under a single lock, so the three sets come from
    /// the same event-loop iteration (the separate accessors can observe
    /// different iterations).
    pub fn broadcast_links(&self) -> (Vec<SocketAddr>, Vec<SocketAddr>, Vec<SocketAddr>) {
        let shared = self.shared.lock();
        (shared.active.clone(), shared.eager.clone(), shared.lazy.clone())
    }

    /// Number of gossip messages delivered so far.
    pub fn delivery_count(&self) -> u64 {
        self.stats().deliveries
    }

    /// Snapshot of the node's runtime counters.
    pub fn stats(&self) -> NodeStats {
        NodeStats::from_registry(&self.shared.lock().metrics)
    }

    /// Snapshot of the node's full metric registry: the canonical
    /// `frames.*` / `broadcast.*` / `net.*` transport counters (shared
    /// with the simulator's event loop — see
    /// [`hyparview_obsv::names::SHARED_TRANSPORT_NAMES`]) plus the
    /// protocol-layer `hyparview.*` and, in Plumtree mode, `plumtree.*`
    /// counters.
    pub fn metrics(&self) -> Registry {
        self.shared.lock().metrics.clone()
    }

    /// Drains the decision-trace events published since the last call
    /// (always empty unless [`NetConfig::trace_capacity`] is nonzero).
    /// Timestamps are wall-clock microseconds since the node started.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        match &mut self.shared.lock().trace {
            Some(ring) => ring.drain().collect(),
            None => Vec::new(),
        }
    }

    /// Gracefully leaves the overlay (sends `DISCONNECT` to all active
    /// peers) without shutting down.
    pub fn leave(&self) {
        self.cluster.control(self.index, Control::Leave);
    }

    /// Shuts the node down: closes its listener and every connection, and
    /// waits for the removal to take effect. The shared reactor thread
    /// keeps running for its other nodes. Same as dropping the handle.
    pub fn shutdown(self) {}
}

impl Drop for Node {
    fn drop(&mut self) {
        self.cluster.remove_node(self.index);
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("addr", &self.addr)
            .field("active_view", &self.active_view())
            .finish()
    }
}
