//! The nonblocking reactor: one epoll loop driving many nodes.
//!
//! The reactor multiplexes *every* listener, connection, and timer of a
//! whole [`Cluster`] of nodes onto a single thread blocked in
//! `epoll_wait`, where a thread-per-connection design would spend 3+ OS
//! threads per node. That is what makes thousands of live nodes in one
//! process practical — the configuration the paper's evaluation simulates
//! (§6, 10k nodes) but its PlanetLab deployment could not reach with real
//! sockets.
//!
//! Architecture:
//!
//! * `Io` owns the connection table: a slab of `Conn` state machines
//!   keyed by slab index, registered with the shared [`Poller`].
//!   Listeners are not in the slab: node `i`'s listener is registered
//!   under the key `LISTENER_BIT | i`. Connections are nonblocking.
//!   Frames decode straight out of the reactor's one read buffer; a
//!   connection's [`FrameReader`] holds bytes only for a frame a read cut
//!   in two, reserved for exactly that frame. Outbound queues are bounded
//!   (`VecDeque<Bytes>` + partial-write cursor). A send only queues its
//!   frame and marks the connection. After each dispatched event (one
//!   readiness event, one control message, the pass over due timers) the
//!   reactor flushes every marked connection with one `write_vectored` of
//!   up to `WRITEV_FRAMES` frames, so what one event sends to a peer
//!   shares a syscall and no queue waits out a whole loop turn.
//! * `Reactor` owns the nodes: each a sans-runtime `LiveNode` plus its
//!   listener, driven through a `ReactorCtx` frame sink. A single timer
//!   heap carries both shuffle ticks and Plumtree timers for all nodes,
//!   and one set of effect buffers (`LiveScratch`) serves every node's
//!   step: the reactor lends it through the `ReactorCtx`.
//! * [`Cluster`] is the application handle: a cheaply clonable reference to
//!   the reactor thread. [`Cluster::spawn_node`] binds and registers the
//!   listener on the calling thread, hands the node to the reactor without
//!   waiting for it, and returns its [`Node`] handle; [`Node::spawn`] is
//!   just a single-node cluster.
//!
//! Failure semantics (§4.1, TCP as the failure detector): connect errors,
//! broken connections, and EOF surface as `on_peer_failed`; a peer whose
//! bounded outbound queue overflows is expelled NeEM-style (§5.5). Because
//! the reactor keeps read interest on *outbound* connections too, a crashed
//! peer is usually detected at EOF, before the next write to it fails.

use crate::core::{FrameSink, LiveNode, LiveScratch, Shared};
use crate::node::{Control, NetConfig, Node, DELIVERY_QUEUE};
use crate::wire::{encode, Frame, FrameReader};
use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError};
use hyparview_core::Message;
use hyparview_obsv::{names, CounterId, GaugeId, Registry};
use hyparview_plumtree::PlumtreeTimer;
use parking_lot::Mutex;
pub use polling::raise_nofile_limit;
use polling::{Event, Events, Poller};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size of the one read buffer every connection reads into. Frames are
/// decoded where they land in it, so its size bounds the bytes one `read`
/// returns and nothing a connection keeps.
const READ_BUF: usize = 16 * 1024;

/// Outbound queue capacity per peer, in frames. A peer whose queue
/// overflows is treated as failed (NeEM-style slow-peer expulsion, §5.5),
/// so TCP back-pressure cannot freeze the overlay.
const WRITER_QUEUE: usize = 1024;

/// Most queued frames one `write_vectored` hands the kernel.
const WRITEV_FRAMES: usize = 64;

/// Marks a listener's poller key: node `i`'s listener is registered under
/// `LISTENER_BIT | i`, outside the connection slab's keys.
const LISTENER_BIT: usize = 1 << (usize::BITS - 1);

/// A shared reactor runtime hosting any number of nodes on one thread.
///
/// Clones are cheap handles to the same reactor. The reactor thread shuts
/// down when the last handle *and* the last node spawned from it are gone.
///
/// # Examples
///
/// ```no_run
/// use hyparview_net::{Cluster, NetConfig};
///
/// # fn main() -> std::io::Result<()> {
/// let cluster = Cluster::new()?;
/// let a = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), NetConfig::default())?;
/// let b = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), NetConfig::default())?;
/// b.join(a.addr());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

pub(crate) struct ClusterInner {
    control: Sender<ReactorControl>,
    poller: Arc<Poller>,
    metrics: Arc<Mutex<Registry>>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The index the next spawned node gets. Held while its `AddNode` is
    /// sent, so the reactor's node table fills in index order.
    next_node: Mutex<usize>,
}

impl ClusterInner {
    fn send(&self, msg: ReactorControl) {
        if self.control.send(msg).is_ok() {
            // The reactor may be blocked in epoll_wait; the self-pipe wakes
            // it to drain the control queue.
            let _ = self.poller.notify();
        }
    }

    /// Queues an application request for node `node`.
    pub(crate) fn control(&self, node: usize, control: Control) {
        self.send(ReactorControl::Node(node, control));
    }

    /// Removes `node` from the reactor (closing its listener and every
    /// connection) and waits for the removal to take effect. The reactor
    /// thread keeps running for its other nodes.
    pub(crate) fn remove_node(&self, node: usize) {
        let (ack_tx, ack_rx) = bounded(1);
        self.send(ReactorControl::RemoveNode { node, ack: ack_tx });
        let _ = ack_rx.recv_timeout(Duration::from_secs(10));
    }
}

impl Drop for ClusterInner {
    fn drop(&mut self) {
        let _ = self.control.send(ReactorControl::Shutdown);
        let _ = self.poller.notify();
        if let Some(thread) = self.thread.lock().take() {
            let _ = thread.join();
        }
    }
}

impl Cluster {
    /// Starts a reactor thread with no nodes.
    ///
    /// # Errors
    ///
    /// Returns the OS error from creating the epoll instance or spawning
    /// the thread.
    pub fn new() -> std::io::Result<Cluster> {
        let poller = Arc::new(Poller::new()?);
        let (control_tx, control_rx) = unbounded();
        let metrics = Arc::new(Mutex::new(Registry::new()));
        let reactor_poller = Arc::clone(&poller);
        let reactor_metrics = Arc::clone(&metrics);
        let thread = std::thread::Builder::new()
            .name("hpv-reactor".to_owned())
            .spawn(move || Reactor::new(reactor_poller, control_rx, reactor_metrics).run())?;
        Ok(Cluster {
            inner: Arc::new(ClusterInner {
                control: control_tx,
                poller,
                metrics,
                thread: Mutex::new(Some(thread)),
                next_node: Mutex::new(0),
            }),
        })
    }

    /// Snapshot of the reactor loop's introspection metrics (`reactor.*`):
    /// epoll wait counts and cumulative wait time, readiness-batch and
    /// per-connection outbound-queue high-water marks, timer-heap lag.
    /// Published once per loop iteration by the reactor thread.
    pub fn reactor_metrics(&self) -> Registry {
        self.inner.metrics.lock().clone()
    }

    /// Binds `addr` (port 0 for ephemeral) and adds a node to this reactor.
    ///
    /// The listener is registered with the reactor's poller from the
    /// calling thread, and the node is queued to the reactor without
    /// waiting for the reactor to take it in. A peer that connects before
    /// then waits in the listen backlog; the node's own later calls
    /// (`join`, `broadcast`) are queued behind it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the listener, the poller's error
    /// from registering it, or `BrokenPipe` when the reactor thread has
    /// died.
    pub fn spawn_node(&self, addr: SocketAddr, config: NetConfig) -> std::io::Result<Node> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let (delivery_tx, delivery_rx) = bounded(DELIVERY_QUEUE);
        let shared = Arc::new(Mutex::new(Shared::default()));
        let core = LiveNode::new(local, &config, Arc::clone(&shared), delivery_tx)?;

        let mut next_node = self.inner.next_node.lock();
        let index = *next_node;
        let fd = listener.as_raw_fd();
        self.inner.poller.add(fd, LISTENER_BIT | index, true, false)?;
        let add = ReactorControl::AddNode {
            listener: Box::new(listener),
            core: Box::new(core),
            shuffle_interval: config.shuffle_interval,
        };
        if let Err(rejected) = self.inner.control.send(add) {
            // Deregister while `rejected` still holds the listener open, so
            // the fd number cannot have been reused by then.
            let _ = self.inner.poller.delete(fd);
            drop(rejected);
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "reactor thread is gone",
            ));
        }
        let _ = self.inner.poller.notify();
        *next_node += 1;
        Ok(Node {
            addr: local,
            deliveries: delivery_rx,
            shared,
            cluster: Arc::clone(&self.inner),
            index,
        })
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster").finish_non_exhaustive()
    }
}

enum ReactorControl {
    AddNode { listener: Box<TcpListener>, core: Box<LiveNode>, shuffle_interval: Duration },
    Node(usize, Control),
    RemoveNode { node: usize, ack: Sender<()> },
    Shutdown,
}

/// A nonblocking connection state machine.
struct Conn {
    stream: TcpStream,
    /// The node this connection belongs to.
    node: usize,
    /// Canonical peer identity: the connect target for outbound
    /// connections, the `Hello` sender for inbound ones (`None` until it
    /// arrives).
    peer: Option<SocketAddr>,
    /// `true` for connections this side opened.
    outbound: bool,
    /// Nonblocking connect still in flight (await writability, then check
    /// `SO_ERROR`).
    connecting: bool,
    /// Graceful teardown: flush the queue, then close without reporting.
    closing: bool,
    /// The peer announced a graceful close (`DISCONNECT` frame): treat the
    /// following EOF as cleanup, not as a peer failure.
    goodbye: bool,
    /// The frame a read cut in two, if any (resumed by the next read).
    reader: FrameReader,
    /// Outbound frame queue; `front_pos` is the partial-write cursor into
    /// the front element.
    outq: VecDeque<Bytes>,
    front_pos: usize,
    /// Whether the current epoll registration includes write interest.
    want_write: bool,
    /// Queued frames await the reactor's next flush (the key is on
    /// `Io::to_flush`).
    flush_pending: bool,
}

impl Conn {
    /// Moves the partial-write cursor `n` written bytes on, across frame
    /// boundaries.
    fn advance(&mut self, mut n: usize) {
        while let Some(front) = self.outq.front() {
            let left = front.len() - self.front_pos;
            if n < left {
                self.front_pos += n;
                return;
            }
            n -= left;
            self.outq.pop_front();
            self.front_pos = 0;
        }
    }
}

/// What a read pass left behind.
enum ReadOutcome {
    /// Socket still open (a short read, or drained to `WouldBlock`).
    Open,
    /// Orderly EOF or fatal read/decode error.
    Broken,
    /// A frame before an inbound connection's `Hello`, or a `Hello` once
    /// the peer is known: protocol violation, close silently.
    Violation,
}

/// The connection table: slab of connections + the outbound-connection
/// index.
struct Io {
    poller: Arc<Poller>,
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// `(node, canonical peer) -> slab key` for outbound connections, so a
    /// node's sends reuse one connection per peer.
    outbound: HashMap<(usize, SocketAddr), usize>,
    /// The keys of each node's open connections, inbound and outbound, so
    /// that removing a node closes them without a pass over the slab.
    node_conns: Vec<Vec<usize>>,
    /// Keys of connections with frames queued since the last flush.
    to_flush: Vec<usize>,
    /// Deepest outbound queue ever observed (`reactor.outq_high_water`) —
    /// how close the cluster came to NeEM slow-node expulsion.
    outq_high_water: u64,
}

impl Io {
    fn new(poller: Arc<Poller>) -> Io {
        Io {
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            outbound: HashMap::new(),
            node_conns: Vec::new(),
            to_flush: Vec::new(),
            outq_high_water: 0,
        }
    }

    fn alloc_key(&mut self) -> usize {
        match self.free.pop() {
            Some(key) => key,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }

    /// Lists the connection just put into slot `key` under its `node`.
    fn list(&mut self, node: usize, key: usize) {
        if self.node_conns.len() <= node {
            self.node_conns.resize_with(node + 1, Vec::new);
        }
        self.node_conns[node].push(key);
    }

    /// Closes and frees a slot: deregisters the fd, drops the socket, and
    /// removes a matching outbound-index entry.
    fn close(&mut self, key: usize) {
        let Some(conn) = self.slots[key].take() else { return };
        let keys = &mut self.node_conns[conn.node];
        if let Some(at) = keys.iter().position(|&k| k == key) {
            keys.swap_remove(at);
        }
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        if conn.outbound {
            if let Some(peer) = conn.peer {
                if self.outbound.get(&(conn.node, peer)) == Some(&key) {
                    self.outbound.remove(&(conn.node, peer));
                }
            }
        }
        self.free.push(key);
    }

    /// Registers a freshly accepted inbound connection.
    fn register_inbound(&mut self, node: usize, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let key = self.alloc_key();
        if self.poller.add(stream.as_raw_fd(), key, true, false).is_err() {
            self.free.push(key);
            return;
        }
        self.slots[key] = Some(Conn {
            stream,
            node,
            peer: None,
            outbound: false,
            connecting: false,
            closing: false,
            goodbye: false,
            reader: FrameReader::new(),
            outq: VecDeque::new(),
            front_pos: 0,
            want_write: false,
            flush_pending: false,
        });
        self.list(node, key);
    }

    /// Starts a nonblocking outbound connection from `node` (identity
    /// `local`) to `to`, queueing the `Hello` as its first frame.
    fn open(&mut self, node: usize, local: SocketAddr, to: SocketAddr) -> std::io::Result<usize> {
        let stream = polling::connect_tcp(to)?;
        let _ = stream.set_nodelay(true);
        let key = self.alloc_key();
        // Read interest from the start: EOF on an outbound connection is
        // the earliest crash signal we get.
        if let Err(e) = self.poller.add(stream.as_raw_fd(), key, true, true) {
            self.free.push(key);
            return Err(e);
        }
        self.slots[key] = Some(Conn {
            stream,
            node,
            peer: Some(to),
            outbound: true,
            connecting: true,
            closing: false,
            goodbye: false,
            reader: FrameReader::new(),
            outq: VecDeque::from([encode(&Frame::Hello { sender: local })]),
            front_pos: 0,
            want_write: true,
            flush_pending: false,
        });
        self.list(node, key);
        self.outbound.insert((node, to), key);
        Ok(key)
    }

    /// Queues `bytes` to `(node, to)`, opening the connection lazily, and
    /// marks the connection for the reactor's next flush (a connecting one
    /// flushes on connect completion). Immediate connect errors and queue
    /// overflow (NeEM slow-node expulsion) close the connection and report
    /// `to` into `failures`; write errors surface at the flush.
    fn send(
        &mut self,
        node: usize,
        local: SocketAddr,
        to: SocketAddr,
        bytes: Bytes,
        failures: &mut VecDeque<SocketAddr>,
    ) {
        let key = match self.outbound.get(&(node, to)) {
            Some(&key) => key,
            None => match self.open(node, local, to) {
                Ok(key) => key,
                Err(_) => {
                    failures.push_back(to);
                    return;
                }
            },
        };
        let Some(conn) = &mut self.slots[key] else { return };
        conn.outq.push_back(bytes);
        self.outq_high_water = self.outq_high_water.max(conn.outq.len() as u64);
        if conn.outq.len() > WRITER_QUEUE {
            // NeEM-style slow-node expulsion (§5.5): the peer is not
            // draining; cutting it loose beats back-pressuring the overlay.
            self.close(key);
            failures.push_back(to);
            return;
        }
        if !conn.connecting && !conn.flush_pending {
            conn.flush_pending = true;
            self.to_flush.push(key);
        }
    }

    /// Writes as much of the queue as the socket accepts, up to
    /// `WRITEV_FRAMES` frames per `write_vectored`, adjusts write interest,
    /// and completes a pending graceful close once drained.
    ///
    /// # Errors
    ///
    /// Returns the fatal write error; the caller decides whether it is a
    /// reportable failure (the slot is *not* closed here).
    fn flush(&mut self, key: usize) -> std::io::Result<()> {
        let Some(conn) = &mut self.slots[key] else { return Ok(()) };
        conn.flush_pending = false;
        while !conn.outq.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITEV_FRAMES];
            let mut count = 0;
            let mut offered = 0;
            for (slice, frame) in slices.iter_mut().zip(&conn.outq) {
                let start = if count == 0 { conn.front_pos } else { 0 };
                *slice = IoSlice::new(&frame[start..]);
                offered += frame.len() - start;
                count += 1;
            }
            match conn.stream.write_vectored(&slices[..count]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => {
                    conn.advance(n);
                    if n < offered {
                        break; // the socket buffer is full
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if conn.outq.is_empty() {
            if conn.closing {
                self.close(key);
                return Ok(());
            }
            // Give back what a burst grew the queue to; four frames is the
            // smallest allocation a `VecDeque<Bytes>` makes anyway.
            conn.outq.shrink_to(4);
        }
        let want_write = conn.connecting || !conn.outq.is_empty();
        if want_write != conn.want_write {
            conn.want_write = want_write;
            self.poller.modify(conn.stream.as_raw_fd(), key, true, want_write)?;
        }
        Ok(())
    }

    /// Graceful disconnect of `(node, peer)`: the connection leaves the
    /// outbound index immediately (a later send opens a fresh one), drains
    /// its remaining queue, then closes without reporting a failure.
    fn disconnect(&mut self, node: usize, peer: SocketAddr) {
        let Some(key) = self.outbound.remove(&(node, peer)) else { return };
        let Some(conn) = &mut self.slots[key] else { return };
        if conn.outq.is_empty() && !conn.connecting {
            self.close(key);
        } else {
            conn.closing = true;
        }
    }

    /// Silently closes the outbound connection of `(node, peer)`, if any.
    /// Used when the *inbound* side already proved the peer dead, so the
    /// stale outbound socket does not linger until its next write fails.
    fn drop_outbound(&mut self, node: usize, peer: SocketAddr) {
        if let Some(&key) = self.outbound.get(&(node, peer)) {
            self.close(key);
        }
    }

    /// Reads the socket until a read comes back shorter than `buf` (the
    /// level-triggered poller reports leftover bytes and EOF again) and
    /// decodes complete frames straight out of `buf`, tagging each with the
    /// connection's peer. Only an inbound connection's first frame, its
    /// `Hello`, names the peer.
    fn read_conn(
        &mut self,
        key: usize,
        buf: &mut [u8],
        frames: &mut Vec<(SocketAddr, Frame)>,
    ) -> ReadOutcome {
        let Some(conn) = &mut self.slots[key] else { return ReadOutcome::Open };
        loop {
            match conn.stream.read(buf) {
                Ok(0) => return ReadOutcome::Broken, // EOF: peer closed or crashed
                Ok(n) => {
                    let mut input = &buf[..n];
                    loop {
                        match conn.reader.next_frame_from(&mut input) {
                            Ok(Some(Frame::Hello { sender })) if conn.peer.is_none() => {
                                conn.peer = Some(sender)
                            }
                            // Renaming a known peer would strand its
                            // outbound-index entry.
                            Ok(Some(Frame::Hello { .. })) => return ReadOutcome::Violation,
                            Ok(Some(frame)) => match conn.peer {
                                Some(from) => {
                                    // A DISCONNECT announces a graceful
                                    // close: the EOF that follows is
                                    // cleanup, not a crash.
                                    if matches!(frame, Frame::Membership(Message::Disconnect)) {
                                        conn.goodbye = true;
                                    }
                                    frames.push((from, frame));
                                }
                                None => return ReadOutcome::Violation,
                            },
                            Ok(None) => break,
                            Err(_) => return ReadOutcome::Broken,
                        }
                    }
                    if n < buf.len() {
                        return ReadOutcome::Open;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return ReadOutcome::Open,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadOutcome::Broken,
            }
        }
    }
}

/// One armed deadline on the shared timer heap.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum TimerEntry {
    /// Periodic membership shuffle for a node (re-armed on fire).
    Shuffle(usize),
    /// A Plumtree timer the node's core scheduled.
    Plumtree(usize, PlumtreeTimer),
}

struct NodeSlot {
    core: LiveNode,
    /// Registered under `LISTENER_BIT | node` by [`Cluster::spawn_node`].
    listener: TcpListener,
    shuffle_interval: Duration,
}

/// The reactor's [`FrameSink`]: frames go to the shared fd table, timers onto
/// the shared heap. Peer failures raised by sends land in `failures` and
/// are fed back into the same core by [`Reactor::with_core`]'s drain loop.
struct ReactorCtx<'a> {
    io: &'a mut Io,
    node: usize,
    local: SocketAddr,
    timers: &'a mut BinaryHeap<std::cmp::Reverse<(Instant, u64, TimerEntry)>>,
    timer_seq: &'a mut u64,
    /// [`Reactor::now`].
    now: Instant,
    failures: VecDeque<SocketAddr>,
    /// [`Reactor::scratch`], lent to the node for this event.
    scratch: &'a mut LiveScratch,
}

impl FrameSink for ReactorCtx<'_> {
    fn send_frame(&mut self, to: SocketAddr, frame: Bytes) {
        self.io.send(self.node, self.local, to, frame, &mut self.failures);
    }

    fn disconnect(&mut self, peer: SocketAddr) {
        self.io.disconnect(self.node, peer);
    }

    fn schedule(&mut self, timer: PlumtreeTimer, delay: Duration) {
        *self.timer_seq += 1;
        self.timers.push(std::cmp::Reverse((
            self.now + delay,
            *self.timer_seq,
            TimerEntry::Plumtree(self.node, timer),
        )));
    }

    fn now(&self) -> Instant {
        self.now
    }

    fn scratch(&mut self) -> &mut LiveScratch {
        self.scratch
    }
}

/// Loop-local accumulators for the `reactor.*` introspection metrics,
/// flushed into the shared registry once per loop iteration.
#[derive(Default)]
struct LoopStats {
    epoll_waits: u64,
    epoll_wait_us: u64,
    batch_max: u64,
    timer_lag_us_max: u64,
    timers_fired: u64,
}

/// Handles into the shared introspection registry (registered once).
struct GaugeIds {
    epoll_waits: CounterId,
    epoll_wait_us: CounterId,
    timers_fired: CounterId,
    batch_max: GaugeId,
    outq_high_water: GaugeId,
    timer_lag_us_max: GaugeId,
}

struct Reactor {
    io: Io,
    /// Node table. Indices are never reused, so a stale timer or a late
    /// control message for a removed node is a clean no-op.
    nodes: Vec<Option<NodeSlot>>,
    timers: BinaryHeap<std::cmp::Reverse<(Instant, u64, TimerEntry)>>,
    timer_seq: u64,
    /// The clock as read when the poller wait last returned (the reading
    /// that closes `epoll_wait_us`). Everything a loop turn then does, the
    /// deadlines it arms, the timers it finds due and their lag, the time
    /// it tells the nodes' cores, uses this instead of a read each.
    now: Instant,
    control_rx: Receiver<ReactorControl>,
    /// Nodes whose shared snapshot is stale; published once per loop
    /// iteration instead of once per event.
    dirty: HashSet<usize>,
    stats: LoopStats,
    metrics: Arc<Mutex<Registry>>,
    gauge_ids: GaugeIds,
    /// The effect buffers every node's step runs through, one set for the
    /// whole reactor (a node holds none).
    scratch: LiveScratch,
}

impl Reactor {
    fn new(
        poller: Arc<Poller>,
        control_rx: Receiver<ReactorControl>,
        metrics: Arc<Mutex<Registry>>,
    ) -> Reactor {
        let gauge_ids = {
            let mut registry = metrics.lock();
            GaugeIds {
                epoll_waits: registry.counter(names::REACTOR_EPOLL_WAITS),
                epoll_wait_us: registry.counter(names::REACTOR_EPOLL_WAIT_US),
                timers_fired: registry.counter(names::REACTOR_TIMERS_FIRED),
                batch_max: registry.gauge(names::REACTOR_BATCH_MAX),
                outq_high_water: registry.gauge(names::REACTOR_OUTQ_HIGH_WATER),
                timer_lag_us_max: registry.gauge(names::REACTOR_TIMER_LAG_US_MAX),
            }
        };
        Reactor {
            io: Io::new(poller),
            nodes: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            now: Instant::now(),
            control_rx,
            dirty: HashSet::new(),
            stats: LoopStats::default(),
            metrics,
            gauge_ids,
            scratch: LiveScratch::default(),
        }
    }

    /// Mirrors the loop-local accumulators into the shared registry —
    /// one short lock per loop iteration, absolute values (cumulative
    /// counters, high-water gauges).
    fn publish_gauges(&mut self) {
        let mut registry = self.metrics.lock();
        registry.set_counter(self.gauge_ids.epoll_waits, self.stats.epoll_waits);
        registry.set_counter(self.gauge_ids.epoll_wait_us, self.stats.epoll_wait_us);
        registry.set_counter(self.gauge_ids.timers_fired, self.stats.timers_fired);
        registry.set_gauge(self.gauge_ids.batch_max, self.stats.batch_max);
        registry.set_gauge(self.gauge_ids.outq_high_water, self.io.outq_high_water);
        registry.set_gauge(self.gauge_ids.timer_lag_us_max, self.stats.timer_lag_us_max);
    }

    /// Runs `f` against a node's core with a fresh [`ReactorCtx`], then
    /// drains any peer failures the effects raised back into the same core
    /// (which may raise more — the loop runs to quiescence; it terminates
    /// because re-failing a peer already outside the active view is a
    /// protocol no-op).
    fn with_core(&mut self, node: usize, f: impl FnOnce(&mut LiveNode, &mut ReactorCtx)) {
        let Reactor { io, nodes, timers, timer_seq, now, dirty, scratch, .. } = self;
        let Some(slot) = nodes.get_mut(node).and_then(|slot| slot.as_mut()) else { return };
        let mut ctx = ReactorCtx {
            io,
            node,
            local: slot.core.local(),
            timers,
            timer_seq,
            now: *now,
            failures: VecDeque::new(),
            scratch,
        };
        f(&mut slot.core, &mut ctx);
        while let Some(peer) = ctx.failures.pop_front() {
            slot.core.on_peer_failed(peer, &mut ctx);
        }
        dirty.insert(node);
    }

    fn arm_shuffle(&mut self, node: usize, interval: Duration) {
        self.timer_seq += 1;
        self.timers.push(std::cmp::Reverse((
            self.now + interval,
            self.timer_seq,
            TimerEntry::Shuffle(node),
        )));
    }

    /// `true` to keep running, `false` on shutdown.
    fn drain_control(&mut self) -> bool {
        loop {
            match self.control_rx.try_recv() {
                Ok(ReactorControl::AddNode { listener, core, shuffle_interval }) => {
                    // `AddNode`s arrive in index order (`Cluster::spawn_node`).
                    let node = self.nodes.len();
                    self.nodes.push(Some(NodeSlot {
                        core: *core,
                        listener: *listener,
                        shuffle_interval,
                    }));
                    self.arm_shuffle(node, shuffle_interval);
                    self.dirty.insert(node);
                }
                Ok(ReactorControl::Node(node, control)) => match control {
                    Control::Join(contact) => {
                        self.with_core(node, |core, ctx| core.join(contact, ctx))
                    }
                    Control::Broadcast { id, payload } => {
                        self.with_core(node, |core, ctx| core.broadcast(id, payload, ctx))
                    }
                    Control::Leave => self.with_core(node, |core, ctx| core.leave(ctx)),
                },
                Ok(ReactorControl::RemoveNode { node, ack }) => {
                    self.remove_node(node);
                    let _ = ack.send(());
                }
                Ok(ReactorControl::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => return true,
            }
            // Per message, not per drain: a burst of broadcasts from one
            // node must not queue past `WRITER_QUEUE` before its first write.
            self.flush_marked();
        }
    }

    fn remove_node(&mut self, node: usize) {
        let Some(mut slot) = self.nodes.get_mut(node).and_then(Option::take) else { return };
        let _ = self.io.poller.delete(slot.listener.as_raw_fd());
        if let Some(keys) = self.io.node_conns.get_mut(node) {
            for key in std::mem::take(keys) {
                self.io.close(key);
            }
        }
        slot.core.publish();
        self.dirty.remove(&node);
    }

    /// Fires every timer due at [`Reactor::now`]; one that comes due while
    /// these run waits for the next turn (whose wait it cuts to zero).
    fn fire_due_timers(&mut self) {
        let now = self.now;
        loop {
            match self.timers.peek() {
                Some(std::cmp::Reverse((deadline, _, _))) if *deadline <= now => {}
                _ => return,
            }
            let Some(std::cmp::Reverse((deadline, _, entry))) = self.timers.pop() else { return };
            self.stats.timers_fired += 1;
            let lag_us = now.saturating_duration_since(deadline).as_micros() as u64;
            self.stats.timer_lag_us_max = self.stats.timer_lag_us_max.max(lag_us);
            match entry {
                TimerEntry::Shuffle(node) => {
                    self.with_core(node, |core, ctx| core.on_shuffle_tick(ctx));
                    if let Some(Some(slot)) = self.nodes.get(node) {
                        let interval = slot.shuffle_interval;
                        self.arm_shuffle(node, interval);
                    }
                }
                TimerEntry::Plumtree(node, timer) => {
                    self.with_core(node, |core, ctx| core.on_plumtree_timer(timer, ctx));
                }
            }
        }
    }

    fn publish_dirty(&mut self) {
        for node in self.dirty.drain() {
            if let Some(Some(slot)) = self.nodes.get_mut(node) {
                slot.core.publish();
            }
        }
    }

    /// Closes a broken connection and reports the failure to its node —
    /// unless the teardown was graceful (`closing`, or the peer said
    /// goodbye with a DISCONNECT frame) or the peer never identified
    /// itself. An inbound failure also evicts the node's outbound
    /// connection to that peer; a goodbye evicts it silently.
    fn fail_conn(&mut self, key: usize) {
        let Some(conn) = &self.io.slots[key] else { return };
        let (node, peer, closing, goodbye) = (conn.node, conn.peer, conn.closing, conn.goodbye);
        self.io.close(key);
        if closing {
            return;
        }
        let Some(peer) = peer else { return };
        self.io.drop_outbound(node, peer);
        if goodbye {
            return;
        }
        self.with_core(node, |core, ctx| core.on_peer_failed(peer, ctx));
    }

    fn handle_event(
        &mut self,
        event: Event,
        buf: &mut [u8],
        frames: &mut Vec<(SocketAddr, Frame)>,
    ) {
        let key = event.key;
        if key & LISTENER_BIT != 0 {
            self.handle_accept(key & !LISTENER_BIT);
        } else if let Some(Some(_)) = self.io.slots.get(key) {
            if event.writable {
                self.handle_writable(key);
            }
            if event.readable {
                self.handle_readable(key, buf, frames);
            }
        }
        // Otherwise a stale event for a slot freed earlier in this batch.
    }

    fn handle_accept(&mut self, node: usize) {
        // A listener whose `AddNode` is still queued has no slot yet: the
        // next turn drains the control queue before the level-triggered
        // poller reports the listener again. A removed node's has none
        // either.
        let Some(Some(slot)) = self.nodes.get(node) else { return };
        loop {
            match slot.listener.accept() {
                Ok((stream, _)) => self.io.register_inbound(node, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Flushes every connection marked since the last flush. A failed
    /// write fails its connection, and the node's repair may send, and so
    /// mark, more.
    fn flush_marked(&mut self) {
        while let Some(key) = self.io.to_flush.pop() {
            let pending = matches!(&self.io.slots[key], Some(conn) if conn.flush_pending);
            if pending && self.io.flush(key).is_err() {
                self.fail_conn(key);
            }
        }
    }

    fn handle_writable(&mut self, key: usize) {
        let Some(conn) = &mut self.io.slots[key] else { return };
        if conn.connecting {
            match conn.stream.take_error() {
                Ok(None) => conn.connecting = false,
                // Connect failed (SO_ERROR set) or is unreadable: the peer
                // is unreachable.
                Ok(Some(_)) | Err(_) => {
                    self.fail_conn(key);
                    return;
                }
            }
        }
        if self.io.flush(key).is_err() {
            self.fail_conn(key);
        }
    }

    fn handle_readable(
        &mut self,
        key: usize,
        buf: &mut [u8],
        frames: &mut Vec<(SocketAddr, Frame)>,
    ) {
        {
            let Some(conn) = &self.io.slots[key] else { return };
            if conn.connecting {
                // Readability on a connecting socket means the connect
                // failed; let the writable path classify it via SO_ERROR.
                return;
            }
        }
        frames.clear();
        let outcome = self.io.read_conn(key, buf, frames);
        let Some(conn) = &self.io.slots[key] else { return };
        let node = conn.node;
        // Dispatch what arrived before any EOF/error: a crashing peer's
        // last frames still count.
        for (from, frame) in frames.drain(..) {
            self.with_core(node, |core, ctx| core.on_frame(from, frame, ctx));
        }
        match outcome {
            ReadOutcome::Open => {}
            ReadOutcome::Broken => self.fail_conn(key),
            // Data before Hello, or a second Hello: drop the connection
            // without a failure report. An outbound peer stays in the
            // view, and the next send to it opens a fresh connection.
            ReadOutcome::Violation => self.io.close(key),
        }
    }

    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut buf = vec![0u8; READ_BUF];
        let mut frames: Vec<(SocketAddr, Frame)> = Vec::new();
        loop {
            if !self.drain_control() {
                break;
            }
            self.fire_due_timers();
            self.flush_marked();
            self.publish_dirty();
            self.publish_gauges();
            let wait_start = Instant::now();
            let timeout =
                self.timers.peek().map(|next| (next.0).0.saturating_duration_since(wait_start));
            if self.io.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.now = Instant::now();
            self.stats.epoll_waits += 1;
            self.stats.epoll_wait_us += (self.now - wait_start).as_micros() as u64;
            // `events` snapshots keys; a handler may free (and the slab
            // reuse) a key within the batch. handle_event re-checks the
            // slot, and a misdirected read/flush on a reused slot is
            // harmless under level-triggered polling (real readiness is
            // re-reported on the next wait). What each event queued goes
            // out before the next event is handled.
            let mut batch = 0u64;
            for event in events.iter() {
                batch += 1;
                self.handle_event(event, &mut buf, &mut frames);
                self.flush_marked();
            }
            self.stats.batch_max = self.stats.batch_max.max(batch);
        }
        // Shutdown: close every fd and publish final snapshots.
        for key in 0..self.io.slots.len() {
            self.io.close(key);
        }
        for slot in self.nodes.iter_mut().flatten() {
            let _ = self.io.poller.delete(slot.listener.as_raw_fd());
            slot.core.publish();
        }
        self.publish_gauges();
    }
}
