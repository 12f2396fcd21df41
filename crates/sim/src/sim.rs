//! The simulation engine.
//!
//! Reproduces the model of the paper's PeerSim experiments:
//!
//! * nodes join the overlay one by one, with all resulting protocol traffic
//!   drained to quiescence before the next join;
//! * a *membership cycle* executes every alive node's periodic action
//!   ([`Membership::on_cycle`]), again draining between nodes;
//! * broadcasts are disseminated to quiescence with per-message accounting
//!   (deliveries, redundancy, hops);
//! * messages to crashed nodes are lost; if the sending protocol *detects
//!   send failures* (HyParView, CyclonAcked) the sender is notified — this
//!   is the simulator's model of TCP as a failure detector;
//! * everything is deterministic given the scenario seed.
//!
//! A simulated node is the same [`NodeCore`] the TCP runtime runs
//! (membership plus flood or Plumtree, composed once in
//! `hyparview_plumtree::node`), carrying no payload. [`Sim`] is the node
//! table and the experiment API; everything the nodes act on (event queue,
//! latency and fault draws, delivery table, burst accounting, registry,
//! tracers) is the `Network`, and a node's [`NodeCtx`] is an `Actor`
//! borrowing it: a send is a fault decision, a latency draw and a queue
//! push of the typed message.

use crate::attack::AttackPlan;
use crate::event::EventQueue;
use crate::fault::{mix_fault, unit_draw, FaultOp, FaultOpKind, FaultPlan};
use hyparview_core::SimId;
use hyparview_gossip::{BroadcastReport, Membership, MembershipEvent, Outbox};
use hyparview_obsv::{
    names, CounterId, HopRecord, PathTracer, Registry, TraceEvent, TraceKind, TraceRing, TraceSink,
};
use hyparview_plumtree::{
    BroadcastMode, FrameCounters, MsgId, NodeCore, NodeCtx, PlumtreeConfig, PlumtreeMessage,
    PlumtreeState, PlumtreeStats, PlumtreeTimer, Scratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distribution one latency draw comes from.
///
/// Every model is bounded and strictly positive: a draw of 0 would let a
/// message arrive in the same virtual instant it was sent, which breaks the
/// causal ordering the drain loop relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyModel {
    /// Every draw is exactly this many virtual time units.
    Fixed(u64),
    /// Uniformly random latency in `[min, max]`. The bounds are reordered
    /// if `min > max` — sampling never panics mid-drain.
    Uniform {
        /// Minimum latency (inclusive).
        min: u64,
        /// Maximum latency (inclusive).
        max: u64,
    },
    /// Heavy-tailed latency: a discrete log-normal approximation. The
    /// underlying normal is an Irwin–Hall sum (12 uniforms), so draws stay
    /// cheap and deterministic; `exp(sigma · z)` scales `median`, rounded
    /// to whole time units and clamped into `[1, cap]`. The long tail is
    /// what makes wide-area deployments reorder messages: most draws land
    /// near `median`, a few take many times longer.
    LogNormal {
        /// Median latency (the `exp(mu)` of the distribution).
        median: u64,
        /// Shape parameter σ in thousandths (700 ⇒ σ = 0.7). Larger means
        /// heavier tail.
        sigma_milli: u32,
        /// Hard upper clamp on a draw — keeps the tail finite so drains
        /// terminate in bounded virtual time.
        cap: u64,
    },
}

impl LatencyModel {
    /// Draws one latency from the model. Never panics: degenerate bounds
    /// are reordered and every draw is clamped into [`LatencyModel::bounds`].
    pub fn sample(self, rng: &mut StdRng) -> u64 {
        match self {
            LatencyModel::Fixed(l) => l.max(1),
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.min(max).max(1), min.max(max).max(1));
                rng.gen_range(lo..=hi)
            }
            LatencyModel::LogNormal { median, sigma_milli, cap: _ } => {
                // Irwin–Hall: the sum of 12 unit uniforms minus 6 is a good
                // standard-normal approximation with support [-6, 6].
                let mut z = -6.0f64;
                for _ in 0..12 {
                    z += rng.gen_range(0.0f64..1.0);
                }
                let sigma = f64::from(sigma_milli) / 1000.0;
                let draw = (median.max(1) as f64) * (sigma * z).exp();
                let (lo, hi) = self.bounds();
                (draw.round() as u64).clamp(lo, hi)
            }
        }
    }

    /// Inclusive `(min, max)` bounds every draw of this model respects.
    pub fn bounds(self) -> (u64, u64) {
        match self {
            LatencyModel::Fixed(l) => (l.max(1), l.max(1)),
            LatencyModel::Uniform { min, max } => (min.min(max).max(1), min.max(max).max(1)),
            LatencyModel::LogNormal { median, cap, .. } => (1, cap.max(median.max(1))),
        }
    }
}

/// How latency draws are assigned to messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyAssignment {
    /// A fresh draw per message: pure jitter, no stable geometry.
    #[default]
    PerMessage,
    /// One draw per *directed link*, fixed for the whole run: the network
    /// has a stable (and asymmetric — `a→b` and `b→a` draw independently)
    /// latency geometry, seeded from the scenario seed so the same scenario
    /// always produces the same geometry. Per-link draws consume no
    /// simulator randomness, so runs differing only in broadcast behavior
    /// (e.g. Plumtree variants) still crash identical node sets. Nothing is
    /// stored per link: each send redraws the link's value from a seed
    /// hashed from `(scenario seed, from, to)`.
    PerLink,
}

/// Network latency model for scheduled deliveries: a [`LatencyModel`]
/// distribution plus a [`LatencyAssignment`] policy.
///
/// ```
/// use hyparview_sim::Latency;
///
/// let unit = Latency::fixed(1); // the paper's PeerSim model
/// let jitter = Latency::uniform(1, 20); // per-message jitter
/// let geometry = Latency::uniform(1, 20).per_link(); // stable asymmetric links
/// let wan = Latency::log_normal(3, 700); // heavy-tailed
/// assert_ne!(unit, jitter);
/// assert_ne!(jitter, geometry);
/// assert_eq!(wan.model.bounds().0, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latency {
    /// The per-draw distribution.
    pub model: LatencyModel,
    /// How draws map onto messages.
    pub assignment: LatencyAssignment,
}

impl Default for Latency {
    fn default() -> Self {
        Latency::fixed(1)
    }
}

impl Latency {
    /// Every message takes exactly `units` virtual time units (the paper's
    /// PeerSim model at `units == 1`).
    pub const fn fixed(units: u64) -> Latency {
        Latency { model: LatencyModel::Fixed(units), assignment: LatencyAssignment::PerMessage }
    }

    /// Uniform latency in `[min, max]`. The pair is reordered if given
    /// backwards, so sampling can never panic mid-drain.
    pub const fn uniform(min: u64, max: u64) -> Latency {
        Latency {
            model: LatencyModel::Uniform { min, max },
            assignment: LatencyAssignment::PerMessage,
        }
    }

    /// Heavy-tailed latency with the given median and shape (σ in
    /// thousandths). The tail is clamped at `32 × median`.
    pub const fn log_normal(median: u64, sigma_milli: u32) -> Latency {
        let cap = median.saturating_mul(32);
        Latency {
            model: LatencyModel::LogNormal { median, sigma_milli, cap },
            assignment: LatencyAssignment::PerMessage,
        }
    }

    /// Switches to per-link assignment: each directed link keeps one draw
    /// for the whole run ([`LatencyAssignment::PerLink`]). The draw is a
    /// pure function of the link, recomputed per send, so the simulator
    /// stores nothing per link however many links a run touches.
    pub const fn per_link(mut self) -> Latency {
        self.assignment = LatencyAssignment::PerLink;
        self
    }

    /// The maximum virtual-time units a single hop can take under this
    /// latency — what Plumtree timeouts must comfortably exceed.
    pub fn max_hop(&self) -> u64 {
        self.model.bounds().1
    }
}

/// Safety valve: the most events a single drain processes before the
/// simulator declares a protocol livelock and panics.
const MAX_DRAIN_EVENTS: u64 = 200_000_000;

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Gossip fanout used by probabilistic protocols (paper: 4).
    pub fanout: usize,
    /// Message latency model.
    pub latency: Latency,
    /// How broadcast payloads are disseminated: the paper's eager flood
    /// (default) or Plumtree's epidemic broadcast tree.
    pub broadcast_mode: BroadcastMode,
    /// Plumtree parameters (used only in [`BroadcastMode::Plumtree`]).
    /// Timer units are virtual time units; the defaults comfortably exceed
    /// a per-hop latency of 1. Under a wider latency model, scale the
    /// timeouts with [`Latency::max_hop`] (e.g. via
    /// [`PlumtreeConfig::with_timeouts_for_max_latency`]) or healthy deep
    /// trees trigger spurious `Graft`s.
    pub plumtree: PlumtreeConfig,
    /// Deterministic network fault injection (loss / duplication / timed
    /// partitions). The default plan is inert and costs nothing.
    pub faults: FaultPlan,
    /// Adversarial membership plan (colluding fraction, attacker model).
    /// Like the fault plan, the default is inert and costs nothing — the
    /// plan only takes effect through scenario builders that wire attacker
    /// roles (e.g. `protocols::build_hyparview`).
    pub attack: AttackPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fanout: 4,
            latency: Latency::fixed(1),
            broadcast_mode: BroadcastMode::Flood,
            plumtree: PlumtreeConfig::default(),
            faults: FaultPlan::default(),
            attack: AttackPlan::default(),
        }
    }
}

/// Cumulative simulator counters.
///
/// Since the observability refactor this struct is a *snapshot view*: the
/// source of truth is the simulator's [`Registry`], which counts under the
/// canonical `sim.*` / `frames.*` / `broadcast.*` names shared with the
/// TCP runtime (see [`hyparview_obsv::names`]). [`Sim::stats`] materializes
/// the view; [`Sim::metrics`] exposes the registry itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Control messages delivered: the membership protocol's, and in
    /// Plumtree mode every `IHave`, `IHaveBatch`, `Graft` and `Prune` as
    /// well (which is why `core.msgs_per_bcast` reads in the ten thousands
    /// on the benchmark's Plumtree workload).
    pub membership_delivered: u64,
    /// Membership messages addressed to dead nodes (lost).
    pub membership_to_dead: u64,
    /// Gossip transmissions delivered.
    pub gossip_delivered: u64,
    /// Gossip transmissions addressed to dead nodes.
    pub gossip_to_dead: u64,
    /// Send-failure notifications given to detecting protocols.
    pub failure_notifications: u64,
    /// Broadcasts performed.
    pub broadcasts: u64,
    /// Total events popped off the queue and processed — the denominator
    /// of the simulator's events/sec throughput metric. Deterministic per
    /// seed, like every other counter here.
    pub events_processed: u64,
}

/// Pre-registered handles into the simulator's [`Registry`] — the hot
/// path increments by dense index, never by name.
#[derive(Debug, Clone, Copy)]
struct SimCounters {
    membership_delivered: CounterId,
    membership_to_dead: CounterId,
    gossip_delivered: CounterId,
    gossip_to_dead: CounterId,
    failure_notifications: CounterId,
    events_processed: CounterId,
    /// The `frames.*` / `broadcast.*` handles shared with the TCP runtime.
    frames: FrameCounters,
    faults_dropped: CounterId,
    faults_partition_dropped: CounterId,
    faults_duplicated: CounterId,
    attack_joins_damped: CounterId,
    attack_neighbors_damped: CounterId,
    attack_tenure_swaps: CounterId,
    attack_shuffle_boosts: CounterId,
    attack_neighbor_floods: CounterId,
    attack_rejoins: CounterId,
    attack_shuffles_biased: CounterId,
}

impl SimCounters {
    /// Registers the canonical counter names in `registry`.
    fn register(registry: &mut Registry) -> SimCounters {
        SimCounters {
            membership_delivered: registry.counter(names::SIM_MEMBERSHIP_DELIVERED),
            membership_to_dead: registry.counter(names::SIM_MEMBERSHIP_TO_DEAD),
            gossip_delivered: registry.counter(names::SIM_GOSSIP_DELIVERED),
            gossip_to_dead: registry.counter(names::SIM_GOSSIP_TO_DEAD),
            failure_notifications: registry.counter(names::SIM_FAILURE_NOTIFICATIONS),
            // Snapshots serialise in registration order, where
            // `broadcast.sent` sits ahead of `sim.events_processed`: claim
            // its place before `FrameCounters::register` finds it again.
            events_processed: {
                registry.counter(names::BROADCAST_SENT);
                registry.counter(names::SIM_EVENTS_PROCESSED)
            },
            frames: FrameCounters::register(registry),
            faults_dropped: registry.counter(names::FAULTS_DROPPED),
            faults_partition_dropped: registry.counter(names::FAULTS_PARTITION_DROPPED),
            faults_duplicated: registry.counter(names::FAULTS_DUPLICATED),
            attack_joins_damped: registry.counter(names::ATTACK_JOINS_DAMPED),
            attack_neighbors_damped: registry.counter(names::ATTACK_NEIGHBORS_DAMPED),
            attack_tenure_swaps: registry.counter(names::ATTACK_TENURE_SWAPS),
            attack_shuffle_boosts: registry.counter(names::ATTACK_SHUFFLE_BOOSTS),
            attack_neighbor_floods: registry.counter(names::ATTACK_NEIGHBOR_FLOODS),
            attack_rejoins: registry.counter(names::ATTACK_REJOINS),
            attack_shuffles_biased: registry.counter(names::ATTACK_SHUFFLES_BIASED),
        }
    }
}

/// Event payload: either a membership message or one gossip transmission.
#[derive(Debug, Clone)]
enum Payload<Msg> {
    Membership(Msg),
    Gossip {
        id: u64,
        hops: u32,
    },
    /// The open connection from the receiver to `dead` broke because `dead`
    /// crashed — the TCP-reset half of "TCP as a failure detector". Only
    /// scheduled for protocols with standing connections (HyParView).
    ConnectionLost {
        dead: SimId,
    },
    /// One Plumtree protocol message ([`BroadcastMode::Plumtree`] only).
    Plumtree(PlumtreeMessage<()>),
    /// A Plumtree timer (missing-message or lazy-flush) expiring at its
    /// owner (`from == to`), scheduled `delay` virtual time units after the
    /// [`hyparview_plumtree::TimerRequest`] was emitted.
    PlumtreeTimer {
        timer: PlumtreeTimer,
    },
}

/// One simulated node: the same [`NodeCore`] the TCP runtime runs, moving
/// typed messages with no payload, plus whether it has crashed.
#[derive(Debug)]
struct Slot<M> {
    core: NodeCore<SimId, M, ()>,
    alive: bool,
}

/// First deliveries of the whole run: row `id` (broadcast ids are dense) is
/// a bitset over node indices, 1.25 KB per broadcast at n = 10,000, so the
/// resident set follows the overlay size and not nodes × broadcasts.
#[derive(Debug, Default)]
struct DeliveryTable {
    rows: Vec<Vec<u64>>,
}

impl DeliveryTable {
    /// Word index and mask of `node` within a row.
    fn slot(node: SimId) -> (usize, u64) {
        (node.index() / 64, 1 << (node.index() % 64))
    }

    /// Marks broadcast `id` delivered at `node`; `true` the first time.
    fn deliver(&mut self, id: u64, node: SimId) -> bool {
        let (word, bit) = Self::slot(node);
        let row = &mut self.rows[id as usize];
        if word >= row.len() {
            row.resize(word + 1, 0); // `node` was added after the broadcast
        }
        let first = row[word] & bit == 0;
        row[word] |= bit;
        first
    }

    fn has_delivered(&self, id: u64, node: SimId) -> bool {
        let (word, bit) = Self::slot(node);
        let row = usize::try_from(id).ok().and_then(|id| self.rows.get(id));
        row.and_then(|row| row.get(word)).is_some_and(|w| w & bit != 0)
    }

    /// Forgets what `node` delivered: it restarts with fresh state.
    fn forget(&mut self, node: SimId) {
        let (word, bit) = Self::slot(node);
        for w in self.rows.iter_mut().filter_map(|row| row.get_mut(word)) {
            *w &= !bit;
        }
    }
}

/// Per-message tallies of one tracked broadcast.
#[derive(Debug, Clone, Default)]
struct PerMsg {
    delivered: usize,
    sent: usize,
    redundant: usize,
    to_dead: usize,
    dropped: usize,
    control: usize,
    max_hops: u32,
}

/// Accounting for the broadcasts currently being disseminated. Broadcast
/// ids are sequential, so a burst of `count` concurrent messages is the
/// contiguous id range `[base, base + count)`.
#[derive(Debug, Default)]
struct Track {
    base: u64,
    count: u64,
    origin: usize,
    alive_at_start: usize,
    /// Tallies per tracked message, indexed by `id - base`.
    per: Vec<PerMsg>,
    /// Control frames that cannot be pinned on one message: `Prune`s and
    /// optimization `Graft`s carry no id, and one `IHaveBatch` frame can
    /// announce several tracked messages at once.
    shared_control: usize,
}

impl Track {
    fn tracking(base: u64, count: u64, origin: usize, alive_at_start: usize) -> Track {
        Track {
            base,
            count,
            origin,
            alive_at_start,
            per: vec![PerMsg::default(); count as usize],
            shared_control: 0,
        }
    }

    /// Whether any broadcast is being accounted right now.
    fn active(&self) -> bool {
        self.count > 0
    }

    /// Whether Plumtree message id `id` belongs to a tracked broadcast.
    fn matches(&self, id: MsgId) -> bool {
        (self.base as MsgId..self.base as MsgId + self.count as MsgId).contains(&id)
    }

    /// The tallies of tracked broadcast `id`, if tracked.
    fn per_mut(&mut self, id: MsgId) -> Option<&mut PerMsg> {
        let offset = self.matches(id).then(|| (id - MsgId::from(self.base)) as usize)?;
        self.per.get_mut(offset)
    }

    /// Tallies one payload transmission of `id` that the fault plan turned
    /// into `copies` frames (none: dropped, but still sent).
    fn payload_sent(&mut self, id: MsgId, copies: usize) {
        if let Some(per) = self.per_mut(id) {
            per.sent += copies.max(1);
            per.dropped += usize::from(copies == 0);
        }
    }

    /// Total control frames across the tracked burst.
    fn total_control(&self) -> usize {
        self.shared_control + self.per.iter().map(|p| p.control).sum::<usize>()
    }
}

/// Outcome of a concurrent broadcast burst
/// ([`Sim::broadcast_burst_from`]): per-message reports plus burst-level
/// control-frame accounting.
///
/// The per-message `control` fields are zero — with several messages in
/// flight a control frame (one `IHaveBatch` in particular) can serve many
/// of them, so control traffic is only meaningful for the burst as a whole.
#[derive(Debug, Clone)]
pub struct BurstReport {
    /// One report per message, in broadcast order.
    pub reports: Vec<BroadcastReport>,
    /// Total control frames (`IHave`/`IHaveBatch`/`Graft`/`Prune`) sent
    /// while the burst disseminated.
    pub control_frames: usize,
}

impl BurstReport {
    /// Mean control frames per broadcast of the burst.
    pub fn control_per_broadcast(&self) -> f64 {
        if self.reports.is_empty() {
            0.0
        } else {
            self.control_frames as f64 / self.reports.len() as f64
        }
    }
}

/// Discrete-event simulator generic over the membership protocol.
///
/// # Examples
///
/// ```
/// use hyparview_sim::{Sim, SimConfig};
/// use hyparview_gossip::HyParViewMembership;
/// use hyparview_core::{Config, SimId};
///
/// let mut sim = Sim::new(SimConfig::default(), 42, |id, seed| {
///     HyParViewMembership::new(id, Config::default(), seed).unwrap()
/// });
/// let a = sim.add_node();
/// let b = sim.add_node();
/// sim.join(b, a);
/// let report = sim.broadcast_from(a);
/// assert!(report.is_atomic());
/// ```
pub struct Sim<M: Membership<SimId>> {
    nodes: Vec<Slot<M>>,
    /// Number of alive slots (kept by `add_node`/`fail_nodes`/`revive`).
    alive: usize,
    net: Network<M::Message>,
    next_broadcast: u64,
    factory: Box<dyn FnMut(SimId, u64) -> M>,
    factory_seed: u64,
}

/// Everything the nodes act on: the event queue, latency and fault draws,
/// delivery bookkeeping, metrics and tracers. Borrowed apart from the node
/// table, it is what an [`Actor`] turns a node's effects into.
struct Network<Msg> {
    config: SimConfig,
    delivered: DeliveryTable,
    /// Every step's effect buffers, recycled by [`NodeCore`].
    scratch: Scratch<SimId, Msg, ()>,
    queue: EventQueue<Payload<Msg>>,
    time: u64,
    rng: StdRng,
    /// Source of truth for every counter ([`SimStats`] is a view of this).
    metrics: Registry,
    counters: SimCounters,
    /// Hop provenance of first deliveries ([`Sim::enable_path_tracing`]).
    path: Option<PathTracer>,
    /// Protocol decision trace ([`Sim::enable_tracing`]).
    trace: Option<TraceRing>,
    /// Accounting of the burst being disseminated (the empty default
    /// between bursts).
    track: Track,
    /// Seed of the per-link latency geometry ([`LatencyAssignment::PerLink`]).
    link_seed: u64,
    /// Seed of the fault-decision stream ([`FaultPlan`]). Like the link
    /// seed, it is derived from the scenario seed and independent of the
    /// sim RNG: fault draws never perturb crash sets or gossip targets.
    fault_seed: u64,
    /// Per-decision nonce of the fault-decision stream.
    fault_nonce: u64,
    /// Active partition: group index per node index (`None` = connected).
    /// Frames between different groups are dropped at send time.
    partition: Option<Vec<u32>>,
    /// Timed fault operations from the plan, sorted by `at` (stable, so
    /// same-time ops apply in plan order); `next_fault_op` is the cursor.
    fault_ops: Vec<FaultOp>,
    next_fault_op: usize,
}

impl<Msg> Network<Msg> {
    /// The latency of one transmission from `from` to `to`, in virtual time
    /// units. Per-message assignment draws from the simulation RNG;
    /// per-link assignment redraws the link's stable value from its own
    /// seed on every send, so nothing is stored per link (asymmetric:
    /// `a→b` and `b→a` are independent draws).
    fn latency_of(&mut self, from: SimId, to: SimId) -> u64 {
        let model = self.config.latency.model;
        match self.config.latency.assignment {
            LatencyAssignment::PerMessage => model.sample(&mut self.rng),
            LatencyAssignment::PerLink => {
                model.sample(&mut StdRng::seed_from_u64(mix_link(self.link_seed, from, to)))
            }
        }
    }

    /// Whether an active partition separates `from` and `to`. A crossing
    /// frame is dropped silently — counted and traced at the sender, no
    /// failure notification — exactly like packets into a severed WAN
    /// path.
    fn partition_cut(&mut self, from: SimId, to: SimId) -> bool {
        let Some(groups) = &self.partition else { return false };
        let group_of = |id: SimId| groups.get(id.index()).copied().unwrap_or(0);
        if group_of(from) == group_of(to) {
            return false;
        }
        self.metrics.inc(self.counters.faults_partition_dropped);
        self.trace_event(from, TraceKind::FrameDropped { peer: to.index() as u64 });
        true
    }

    /// Decides the fate of one outbound *broadcast-plane* frame
    /// `from → to`: the number of copies to schedule. `0` means the frame
    /// was dropped (partition boundary or loss draw), `2` means it was
    /// duplicated.
    ///
    /// Loss and duplication apply only to dissemination traffic (flood
    /// gossip and every Plumtree frame) — membership frames model TCP,
    /// which HyParView's design assumes (§3), and go through
    /// [`Network::partition_cut`] alone. The fast path — no active plan, no
    /// partition — returns 1 without consuming anything, so a sim with an
    /// inert [`FaultPlan`] is bit-identical to one with no plan at all.
    /// Fault draws come from a dedicated SplitMix64 stream keyed by
    /// `(fault_seed, nonce)` and consume no sim RNG, mirroring the
    /// per-link latency trick.
    fn frame_copies(&mut self, from: SimId, to: SimId) -> usize {
        if self.partition.is_none() && !self.config.faults.is_active() {
            return 1;
        }
        if self.partition_cut(from, to) {
            return 0;
        }
        let loss = self.config.faults.loss_for(from.index(), to.index());
        if loss > 0.0 && self.fault_draw() < loss {
            self.metrics.inc(self.counters.faults_dropped);
            self.trace_event(from, TraceKind::FrameDropped { peer: to.index() as u64 });
            return 0;
        }
        let duplicate = self.config.faults.duplicate;
        if duplicate > 0.0 && self.fault_draw() < duplicate {
            self.metrics.inc(self.counters.faults_duplicated);
            return 2;
        }
        1
    }

    /// One uniform draw in `[0, 1)` from the fault-decision stream.
    fn fault_draw(&mut self) -> f64 {
        let nonce = self.fault_nonce;
        self.fault_nonce += 1;
        unit_draw(mix_fault(self.fault_seed, nonce))
    }

    /// Tags one *first* delivery with its hop provenance (when path
    /// tracing is on) and mirrors it into the decision trace (when that
    /// is on). `parent` is the node the payload arrived from — `None`
    /// for the broadcast origin's self-delivery.
    fn record_delivery(&mut self, id: u64, node: SimId, parent: Option<SimId>, depth: u32) {
        if let Some(tracer) = &mut self.path {
            tracer.record(HopRecord {
                msg: id,
                node: node.index() as u64,
                parent: parent.map(|p| p.index() as u64),
                depth,
                time: self.time,
            });
        }
        self.trace_event(node, TraceKind::Delivered { msg: id, hops: depth });
    }

    /// Appends one decision-trace event (no-op unless tracing is on).
    fn trace_event(&mut self, node: SimId, kind: TraceKind) {
        if let Some(ring) = &mut self.trace {
            ring.record(TraceEvent { time: self.time, node: node.index() as u64, kind });
        }
    }
}

/// One node's [`NodeCtx`]: its sends become latency-delayed events (typed,
/// never encoded), its timers self-addressed events, its deliveries rows of
/// the [`DeliveryTable`] and tallies of the tracked burst.
struct Actor<'a, M: Membership<SimId>> {
    net: &'a mut Network<M::Message>,
    node: SimId,
}

impl<M: Membership<SimId>> Actor<'_, M> {
    /// Ships one flood transmission of `id` to `to`, through the fault plan.
    fn send_gossip(&mut self, to: SimId, id: u64, hops: u32) {
        let net = &mut *self.net;
        let copies = net.frame_copies(self.node, to);
        net.counters.frames.count_payload(&mut net.metrics, copies.max(1) as u64);
        net.track.payload_sent(MsgId::from(id), copies);
        for _ in 0..copies {
            let latency = net.latency_of(self.node, to);
            net.queue.push(net.time + latency, self.node, to, Payload::Gossip { id, hops });
        }
    }
}

impl<M: Membership<SimId>> NodeCtx<SimId, M, ()> for Actor<'_, M> {
    fn scratch(&mut self) -> &mut Scratch<SimId, M::Message, ()> {
        &mut self.net.scratch
    }

    fn now(&self) -> u64 {
        self.net.time
    }

    fn send_membership(&mut self, _membership: &M, to: SimId, message: M::Message) {
        // Membership traffic rides TCP (HyParView's stated transport
        // assumption): exempt from loss and duplication, severed only
        // by a partition. A cut frame was still *sent* — it left the
        // sender before the network ate it.
        let net = &mut *self.net;
        let cut = net.partition_cut(self.node, to);
        net.metrics.inc(net.counters.frames.sent);
        if !cut {
            let latency = net.latency_of(self.node, to);
            net.queue.push(net.time + latency, self.node, to, Payload::Membership(message));
        }
    }

    fn send_flood(&mut self, id: MsgId, hops: u32, _payload: (), targets: Vec<SimId>) {
        for to in targets {
            self.send_gossip(to, id as u64, hops);
        }
    }

    /// With per-broadcast accounting for the tracked ids: payloads land in
    /// the sent/dropped buckets exactly like flood transmissions;
    /// `IHave`/`Graft`/`Prune` count as control traffic.
    fn send_plumtree(&mut self, to: SimId, message: PlumtreeMessage<()>) {
        let net = &mut *self.net;
        let copies = net.frame_copies(self.node, to);
        let sent = copies.max(1);
        net.counters.frames.count(&mut net.metrics, &message, sent as u64);
        let track = &mut net.track;
        match &message {
            PlumtreeMessage::Gossip { id, .. } => track.payload_sent(*id, copies),
            PlumtreeMessage::IHave { id, .. } | PlumtreeMessage::Graft { id: Some(id), .. } => {
                if let Some(per) = track.per_mut(*id) {
                    per.control += sent;
                }
            }
            PlumtreeMessage::IHaveBatch { anns } => {
                // Batch-aware accounting: however many announcements it
                // carries, a batch is *one* control frame — that is the
                // entire point of lazy-link batching. It can span
                // several tracked messages, so it lands in the burst's
                // shared bucket.
                if anns.iter().any(|a| track.matches(a.id)) {
                    track.shared_control += sent;
                }
            }
            PlumtreeMessage::Graft { id: None, .. } | PlumtreeMessage::Prune => {
                // Optimization grafts and prunes carry no id; attribute
                // them to the burst whose dissemination provoked them
                // (bursts are disseminated one at a time).
                if track.active() {
                    track.shared_control += sent;
                }
            }
        }
        for _ in 0..copies {
            let latency = net.latency_of(self.node, to);
            net.queue.push(net.time + latency, self.node, to, Payload::Plumtree(message.clone()));
        }
    }

    fn has_delivered(&self, id: MsgId) -> bool {
        self.net.delivered.has_delivered(id as u64, self.node)
    }

    fn deliver(&mut self, id: MsgId, hops: u32, from: Option<SimId>, _payload: ()) {
        let net = &mut *self.net;
        // Plumtree's own store can have evicted an id the table still has.
        if !net.delivered.deliver(id as u64, self.node) {
            net.metrics.inc(net.counters.frames.duplicates);
            return;
        }
        net.metrics.inc(net.counters.frames.delivered);
        net.record_delivery(id as u64, self.node, from, hops);
        if let Some(per) = net.track.per_mut(id) {
            per.delivered += 1;
            per.max_hops = per.max_hops.max(hops);
        }
    }

    fn duplicate(&mut self, id: MsgId) {
        let net = &mut *self.net;
        net.metrics.inc(net.counters.frames.duplicates);
        if let Some(per) = net.track.per_mut(id) {
            per.redundant += 1;
        }
    }

    fn schedule(&mut self, timer: PlumtreeTimer, delay: u64) {
        let net = &mut *self.net;
        net.queue.push(net.time + delay, self.node, self.node, Payload::PlumtreeTimer { timer });
    }

    /// Defense decisions and attacker actions feed the `attack.*` counters
    /// and the decision trace.
    fn membership_event(&mut self, event: MembershipEvent<SimId>) {
        let net = &mut *self.net;
        let c = &net.counters;
        let (counter, traced) = match event {
            MembershipEvent::JoinDamped { peer } => (
                c.attack_joins_damped,
                Some(TraceKind::AdmissionDamped { peer: peer.index() as u64 }),
            ),
            MembershipEvent::NeighborDamped { peer } => (
                c.attack_neighbors_damped,
                Some(TraceKind::AdmissionDamped { peer: peer.index() as u64 }),
            ),
            MembershipEvent::TenureSwapped { peer } => {
                (c.attack_tenure_swaps, Some(TraceKind::TenureSwap { peer: peer.index() as u64 }))
            }
            MembershipEvent::ShuffleBoosted => (c.attack_shuffle_boosts, None),
            MembershipEvent::NeighborFlood { .. } => (c.attack_neighbor_floods, None),
            MembershipEvent::AttackerRejoin { .. } => (c.attack_rejoins, None),
            MembershipEvent::ShuffleBiased => (c.attack_shuffles_biased, None),
        };
        net.metrics.inc(counter);
        if let Some(kind) = traced {
            net.trace_event(self.node, kind);
        }
    }

    fn tracing(&self) -> bool {
        self.net.trace.is_some()
    }

    fn trace_id(&self, peer: SimId) -> u64 {
        peer.index() as u64
    }

    fn trace(&mut self, kind: TraceKind) {
        self.net.trace_event(self.node, kind);
    }
}

impl<M: Membership<SimId>> Sim<M> {
    /// Creates an empty simulation.
    ///
    /// `factory` builds a protocol instance for each added node; it receives
    /// the node id and a per-node seed derived from `seed`.
    pub fn new<F>(config: SimConfig, seed: u64, factory: F) -> Self
    where
        F: FnMut(SimId, u64) -> M + 'static,
    {
        let mut metrics = Registry::new();
        let counters = SimCounters::register(&mut metrics);
        let mut fault_ops = config.faults.ops.clone();
        fault_ops.sort_by_key(|op| op.at);
        Sim {
            nodes: Vec::new(),
            alive: 0,
            net: Network {
                config,
                delivered: DeliveryTable::default(),
                scratch: Scratch::default(),
                queue: EventQueue::new(),
                time: 0,
                rng: StdRng::seed_from_u64(seed),
                metrics,
                counters,
                path: None,
                trace: None,
                track: Track::default(),
                link_seed: seed ^ 0x7A7E_11C7_1A7E_11C7,
                fault_seed: seed ^ 0xFA17_FA17_FA17_FA17,
                fault_nonce: 0,
                partition: None,
                fault_ops,
                next_fault_op: 0,
            },
            next_broadcast: 0,
            factory: Box::new(factory),
            factory_seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        }
    }

    /// Runs one event of `node` with the [`Actor`] that ships its effects.
    fn act(
        &mut self,
        node: SimId,
        event: impl FnOnce(&mut NodeCore<SimId, M, ()>, &mut Actor<'_, M>),
    ) {
        event(&mut self.nodes[node.index()].core, &mut Actor { net: &mut self.net, node });
    }

    /// Runs one membership event of `node`.
    fn step(&mut self, node: SimId, event: impl FnOnce(&mut M, &mut Outbox<SimId, M::Message>)) {
        self.act(node, |core, ctx| core.step(ctx, event));
    }

    /// Splits the network into the given groups: from now on every frame
    /// between nodes of different groups is dropped at send time (frames
    /// already in flight still arrive, like packets already on the wire).
    /// Nodes not listed in any group form an implicit extra group. Drops
    /// are silent — no failure notifications, exactly like real packet
    /// loss — so membership views keep spanning the cut and dissemination
    /// recovers on its own after [`Sim::heal_partitions`].
    pub fn partition_network(&mut self, groups: &[Vec<SimId>]) {
        let mut assign = vec![0u32; self.nodes.len()];
        for (index, group) in groups.iter().enumerate() {
            for id in group {
                assign[id.index()] = index as u32 + 1;
            }
        }
        self.net.partition = Some(assign);
    }

    /// Removes the active partition (no-op when the network is whole).
    pub fn heal_partitions(&mut self) {
        self.net.partition = None;
    }

    /// Whether a partition is currently in force.
    pub fn partitioned(&self) -> bool {
        self.net.partition.is_some()
    }

    /// Applies every timed fault op whose `at` has been reached. Called
    /// whenever virtual time advances, so partitions cut mid-drain, right
    /// between two event deliveries.
    fn apply_due_fault_ops(&mut self) {
        while self.net.next_fault_op < self.net.fault_ops.len()
            && self.net.fault_ops[self.net.next_fault_op].at <= self.net.time
        {
            let op = self.net.fault_ops[self.net.next_fault_op].clone();
            self.net.next_fault_op += 1;
            match op.kind {
                FaultOpKind::Partition(groups) => {
                    let groups: Vec<Vec<SimId>> =
                        groups.iter().map(|g| g.iter().map(|&i| SimId::new(i)).collect()).collect();
                    self.partition_network(&groups);
                }
                FaultOpKind::Heal => self.heal_partitions(),
            }
        }
    }

    /// Adds a new (alive, unjoined) node and returns its id.
    pub fn add_node(&mut self) -> SimId {
        let id = SimId::new(self.nodes.len());
        let seed =
            self.factory_seed.wrapping_add((id.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let core = self.make_core(id, seed);
        self.nodes.push(Slot { core, alive: true });
        self.alive += 1;
        id
    }

    /// A fresh node: the factory's membership under the configured
    /// dissemination. Flood-mode nodes carry no Plumtree state (the paper's
    /// experiments run at n = 10,000).
    fn make_core(&mut self, id: SimId, seed: u64) -> NodeCore<SimId, M, ()> {
        let membership = (self.factory)(id, seed);
        let config = &self.net.config;
        match config.broadcast_mode {
            BroadcastMode::Flood => NodeCore::flood(membership, config.fanout),
            BroadcastMode::Plumtree => {
                NodeCore::plumtree(membership, PlumtreeState::new(id, config.plumtree.clone()))
            }
        }
    }

    /// Number of nodes ever added.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn time(&self) -> u64 {
        self.net.time
    }

    /// Number of events still waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.net.queue.len()
    }

    /// Heap bytes the event queue holds for events, pending or pooled for
    /// reuse ([`EventQueue::retained_bytes`]).
    pub fn queue_retained_bytes(&self) -> usize {
        self.net.queue.retained_bytes()
    }

    /// Whether the simulation is *quiescent*: the event queue is empty.
    ///
    /// Under variable latency "round complete" is meaningless — events of
    /// one logical round interleave arbitrarily with the next — so
    /// quiescence is defined purely on the queue, and every drain runs
    /// until this holds.
    pub fn is_quiescent(&self) -> bool {
        self.net.queue.is_empty()
    }

    /// Cumulative simulator statistics, materialized from the metric
    /// registry (the registry is the source of truth; this struct is the
    /// legacy snapshot view).
    pub fn stats(&self) -> SimStats {
        let counters = &self.net.counters;
        let value = |id: CounterId| self.net.metrics.counter_value(id);
        SimStats {
            membership_delivered: value(counters.membership_delivered),
            membership_to_dead: value(counters.membership_to_dead),
            gossip_delivered: value(counters.gossip_delivered),
            gossip_to_dead: value(counters.gossip_to_dead),
            failure_notifications: value(counters.failure_notifications),
            broadcasts: value(counters.frames.broadcasts),
            events_processed: value(counters.events_processed),
        }
    }

    /// Broadcast id the *next* broadcast will get — ids are sequential, so
    /// the broadcast just performed has id `next_broadcast_id() - 1`.
    pub fn next_broadcast_id(&self) -> u64 {
        self.next_broadcast
    }

    /// Whether `node` has delivered broadcast `id` since it (re)started, in
    /// flood and Plumtree mode alike; `false` for an id never broadcast. Lets
    /// experiments split reliability by node population, e.g. honest-only
    /// reliability under an infiltration attack.
    pub fn has_delivered(&self, node: SimId, id: u64) -> bool {
        self.net.delivered.has_delivered(id, node)
    }

    /// The simulator's metric registry: `sim.*` event-loop counters plus
    /// the `frames.*` / `broadcast.*` transport vocabulary it shares with
    /// the TCP runtime ([`hyparview_obsv::names`]).
    pub fn metrics(&self) -> &Registry {
        &self.net.metrics
    }

    /// A cluster-style metrics snapshot: the event-loop registry merged
    /// with the aggregated per-node protocol counters (`plumtree.*` in
    /// Plumtree mode).
    pub fn metrics_snapshot(&self) -> Registry {
        let mut snapshot = self.net.metrics.clone();
        if let Some(total) = self.plumtree_stats_total() {
            total.fill_registry(&mut snapshot);
        }
        snapshot
    }

    /// Turns on causal broadcast-path tracing: from now on every first
    /// delivery is tagged with its hop provenance (parent, depth, virtual
    /// delivery time). Records accumulate until [`Sim::take_path_records`]
    /// or [`Sim::clear_path_records`]; for long runs, drain between bursts
    /// to bound memory.
    pub fn enable_path_tracing(&mut self) {
        if self.net.path.is_none() {
            self.net.path = Some(PathTracer::new());
        }
    }

    /// The hop-provenance records accumulated so far (empty when tracing
    /// is disabled).
    pub fn path_records(&self) -> &[HopRecord] {
        self.net.path.as_ref().map(PathTracer::records).unwrap_or(&[])
    }

    /// Moves the accumulated hop-provenance records out, leaving the
    /// tracer enabled but empty.
    pub fn take_path_records(&mut self) -> PathTracer {
        match &mut self.net.path {
            Some(tracer) => std::mem::take(tracer),
            None => PathTracer::new(),
        }
    }

    /// Drops accumulated hop-provenance records (between bursts).
    pub fn clear_path_records(&mut self) {
        if let Some(tracer) = &mut self.net.path {
            tracer.clear();
        }
    }

    /// Turns on structured decision tracing into a bounded ring of
    /// `capacity` events (see [`TraceRing`]): Plumtree grafts, prunes,
    /// promotions/demotions, timer fires and first deliveries, stamped
    /// with deterministic virtual time.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.net.trace = Some(TraceRing::new(capacity));
    }

    /// The decision-trace ring, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceRing> {
        self.net.trace.as_ref()
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.net.config
    }

    /// Shared access to a node's protocol instance.
    pub fn node(&self, id: SimId) -> &M {
        self.nodes[id.index()].core.membership()
    }

    /// Mutable access to a node's protocol instance.
    pub fn node_mut(&mut self, id: SimId) -> &mut M {
        self.nodes[id.index()].core.membership_mut()
    }

    /// Shared access to a node's Plumtree broadcast state (tree inspection:
    /// eager/lazy sets, cache fill, per-node counters).
    ///
    /// # Panics
    ///
    /// Panics unless the simulation runs in [`BroadcastMode::Plumtree`].
    pub fn plumtree_node(&self, id: SimId) -> &PlumtreeState<SimId, ()> {
        self.nodes[id.index()]
            .core
            .plumtree_state()
            .expect("plumtree_node requires BroadcastMode::Plumtree")
    }

    /// Sum of every node's Plumtree counters (crashed nodes included —
    /// their counters freeze at crash time; revived nodes restart at zero).
    /// `None` outside [`BroadcastMode::Plumtree`].
    pub fn plumtree_stats_total(&self) -> Option<PlumtreeStats> {
        if self.net.config.broadcast_mode != BroadcastMode::Plumtree {
            return None;
        }
        let mut total = PlumtreeStats::default();
        for state in self.nodes.iter().filter_map(|slot| slot.core.plumtree_state()) {
            total += *state.stats();
        }
        Some(total)
    }

    /// Whether `id` is alive.
    pub fn is_alive(&self, id: SimId) -> bool {
        self.nodes[id.index()].alive
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Ids of all alive nodes.
    pub fn alive_ids(&self) -> Vec<SimId> {
        self.nodes.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| SimId::new(i)).collect()
    }

    /// A uniformly random alive node.
    ///
    /// # Panics
    ///
    /// Panics if every node is dead.
    pub fn random_alive(&mut self) -> SimId {
        assert!(self.alive > 0, "no alive nodes left");
        let k = self.net.rng.gen_range(0..self.alive);
        let index = (0..self.nodes.len()).filter(|&i| self.nodes[i].alive).nth(k);
        SimId::new(index.expect("`alive` counts the alive slots"))
    }

    // ------------------------------------------------------------------
    // Overlay construction and maintenance
    // ------------------------------------------------------------------

    /// Node `joiner` joins through `contact`; all protocol traffic drains
    /// before returning (the paper: "the overlay was created by having nodes
    /// join the network one by one, without running any membership rounds in
    /// between").
    pub fn join(&mut self, joiner: SimId, contact: SimId) {
        self.step(joiner, |node, out| node.join(contact, out));
        self.drain();
    }

    /// Runs `count` membership cycles. In each cycle every alive node
    /// executes its periodic action once, in random order, with the network
    /// drained after each node — the PeerSim cycle-based model.
    pub fn run_cycles(&mut self, count: usize) {
        for _ in 0..count {
            let mut order = self.alive_ids();
            // Fisher–Yates with the sim RNG keeps runs deterministic.
            for i in (1..order.len()).rev() {
                let j = self.net.rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for id in order {
                if !self.nodes[id.index()].alive {
                    continue;
                }
                self.step(id, |node, out| node.on_cycle(out));
                self.drain();
            }
        }
    }

    /// Crashes the given nodes. The crash itself is silent, but survivors
    /// holding an *open connection* to a crashed node (HyParView's active
    /// view, §4.1.iii) observe the broken connection: a
    /// `ConnectionLost` notification is scheduled for them. The
    /// notifications are events — they race with whatever traffic comes
    /// next (e.g. the first post-failure broadcast), like real TCP resets.
    pub fn fail_nodes(&mut self, ids: &[SimId]) {
        for id in ids {
            self.alive -= usize::from(std::mem::take(&mut self.nodes[id.index()].alive));
        }
        for v in 0..self.nodes.len() {
            let membership = self.nodes[v].core.membership();
            if !self.nodes[v].alive || !membership.detects_send_failures() {
                continue;
            }
            let connected = membership.connected_peers();
            for peer in connected {
                if !self.nodes[peer.index()].alive {
                    let latency = self.net.latency_of(peer, SimId::new(v));
                    self.net.queue.push(
                        self.net.time + latency,
                        peer,
                        SimId::new(v),
                        Payload::ConnectionLost { dead: peer },
                    );
                }
            }
        }
    }

    /// Crashes a uniformly random `fraction` of the alive nodes, returning
    /// the crashed ids.
    pub fn fail_fraction(&mut self, fraction: f64) -> Vec<SimId> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        let mut alive = self.alive_ids();
        let target = ((alive.len() as f64) * fraction).round() as usize;
        // Partial Fisher–Yates: the first `target` entries are the victims.
        for i in 0..target.min(alive.len().saturating_sub(1)) {
            let j = self.net.rng.gen_range(i..alive.len());
            alive.swap(i, j);
        }
        let victims: Vec<SimId> = alive.into_iter().take(target).collect();
        self.fail_nodes(&victims);
        victims
    }

    /// Revives a crashed node with fresh protocol state (it must re-join).
    pub fn revive(&mut self, id: SimId) {
        let seed = self
            .factory_seed
            .wrapping_add((id.index() as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(0x5EED);
        let core = self.make_core(id, seed);
        let slot = &mut self.nodes[id.index()];
        slot.core = core;
        self.alive += usize::from(!slot.alive);
        slot.alive = true;
        self.net.delivered.forget(id);
    }

    // ------------------------------------------------------------------
    // Broadcast
    // ------------------------------------------------------------------

    /// Broadcasts one message from `origin` and disseminates it to
    /// quiescence, returning the paper's per-message accounting.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is dead.
    pub fn broadcast_from(&mut self, origin: SimId) -> BroadcastReport {
        let burst = self.broadcast_burst_from(origin, 1);
        let mut report = burst.reports.into_iter().next().expect("burst of one");
        // With a single message in flight every control frame belongs to
        // it, including the id-less Prunes and optimization Grafts.
        report.control = burst.control_frames;
        report
    }

    /// Broadcasts `count` messages from `origin` *concurrently*: all of
    /// them are injected before the network drains, so they disseminate
    /// together — this is the workload where lazy-link batching can fold
    /// announcements of several messages into one `IHaveBatch` frame.
    ///
    /// Per-message reports carry `control == 0`; control traffic of a
    /// burst is only meaningful in aggregate ([`BurstReport`]).
    ///
    /// # Panics
    ///
    /// Panics if `origin` is dead or `count` is zero.
    pub fn broadcast_burst_from(&mut self, origin: SimId, count: usize) -> BurstReport {
        assert!(self.is_alive(origin), "broadcast origin must be alive");
        assert!(count > 0, "a burst needs at least one message");
        let base = self.next_broadcast;
        self.next_broadcast += count as u64;
        let row = vec![0; self.nodes.len().div_ceil(64)];
        self.net.delivered.rows.resize(self.next_broadcast as usize, row);
        self.net.metrics.add(self.net.counters.frames.broadcasts, count as u64);
        self.net.track = Track::tracking(base, count as u64, origin.index(), self.alive_count());

        self.act(origin, |core, ctx| {
            // Make sure the origin's tree links reflect its view before the
            // first push (`node_mut` can have changed it since the last
            // membership step). Once per burst: no events land mid-loop.
            core.sync_neighbors();
            for id in base..base + count as u64 {
                core.broadcast(MsgId::from(id), (), ctx);
            }
        });
        self.drain();

        let track = std::mem::take(&mut self.net.track);
        let control_frames = track.total_control();
        let reports = track
            .per
            .iter()
            .enumerate()
            .map(|(offset, per)| BroadcastReport {
                id: track.base + offset as u64,
                origin: track.origin,
                alive: track.alive_at_start,
                delivered: per.delivered,
                sent: per.sent,
                redundant: per.redundant,
                to_dead: per.to_dead,
                dropped: per.dropped,
                control: 0,
                max_hops: per.max_hops,
            })
            .collect();
        BurstReport { reports, control_frames }
    }

    /// Broadcasts from a uniformly random alive node.
    pub fn broadcast_random(&mut self) -> BroadcastReport {
        let origin = self.random_alive();
        self.broadcast_from(origin)
    }

    // ------------------------------------------------------------------
    // Metrics access
    // ------------------------------------------------------------------

    /// Snapshot of every node's out-view (`None` for crashed nodes), for
    /// overlay graph analysis.
    pub fn out_views(&self) -> Vec<Option<Vec<SimId>>> {
        self.nodes.iter().map(|s| s.alive.then(|| s.core.membership().out_view())).collect()
    }

    /// View accuracy (§2.3): mean over alive nodes of the fraction of their
    /// out-view members that are themselves alive.
    pub fn accuracy(&self) -> f64 {
        let mut total = 0.0;
        let mut counted = 0usize;
        for slot in self.nodes.iter().filter(|s| s.alive) {
            let view = slot.core.membership().out_view();
            if view.is_empty() {
                continue;
            }
            let alive_members = view.iter().filter(|id| self.nodes[id.index()].alive).count();
            total += alive_members as f64 / view.len() as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            total / counted as f64
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Drains all pending events until the simulation
    /// [is quiescent](Sim::is_quiescent) — the event *queue* is empty,
    /// which under variable latency is strictly stronger than any notion
    /// of a completed round.
    pub fn drain(&mut self) {
        // Timed fault ops whose `at` has already passed apply up front, so
        // a partition scheduled "now" governs this drain's first sends.
        self.apply_due_fault_ops();
        let mut processed: u64 = 0;
        while let Some(event) = self.net.queue.pop() {
            processed += 1;
            assert!(
                processed <= MAX_DRAIN_EVENTS,
                "drain exceeded {MAX_DRAIN_EVENTS} events — protocol livelock?"
            );
            self.net.time = self.net.time.max(event.time);
            if self.net.next_fault_op < self.net.fault_ops.len() {
                self.apply_due_fault_ops();
            }
            if self.nodes[event.to.index()].alive {
                self.deliver(event.from, event.to, event.payload);
            } else {
                self.lose(event.from, event.to, event.payload);
            }
        }
        self.net.metrics.add(self.net.counters.events_processed, processed);
    }

    /// Hands one event to the alive node `to`.
    fn deliver(&mut self, from: SimId, to: SimId, payload: Payload<M::Message>) {
        let counters = self.net.counters;
        match payload {
            Payload::Membership(message) => {
                self.net.metrics.inc(counters.membership_delivered);
                self.step(to, |node, out| node.handle_message(from, message, out));
            }
            Payload::Gossip { id, hops } => {
                self.net.metrics.inc(counters.gossip_delivered);
                self.act(to, |core, ctx| core.on_flood(Some(from), MsgId::from(id), hops, (), ctx));
            }
            Payload::ConnectionLost { dead } => {
                self.net.metrics.inc(counters.failure_notifications);
                self.step(to, |node, out| node.on_send_failed(dead, out));
            }
            // Plumtree payload receipts are counted like flood
            // transmissions, `IHave`/`Graft`/`Prune` as control traffic
            // beside the membership messages.
            Payload::Plumtree(message) => {
                self.net.metrics.inc(if message.carries_payload() {
                    counters.gossip_delivered
                } else {
                    counters.membership_delivered
                });
                self.act(to, |core, ctx| core.on_plumtree(from, message, ctx));
            }
            Payload::PlumtreeTimer { timer } => {
                self.act(to, |core, ctx| core.on_timer(timer, ctx));
            }
        }
    }

    /// An event for the crashed node `to`: messages are lost, and a sender
    /// that detects send failures finds out.
    fn lose(&mut self, from: SimId, to: SimId, payload: Payload<M::Message>) {
        match payload {
            Payload::Gossip { id, .. } => {
                self.lost_payload(MsgId::from(id));
                self.notify_send_failure(from, to);
            }
            Payload::Plumtree(PlumtreeMessage::Gossip { id, .. }) => {
                self.lost_payload(id);
                self.notify_send_failure(from, to);
            }
            Payload::Membership(_) | Payload::Plumtree(_) => {
                self.net.metrics.inc(self.net.counters.membership_to_dead);
                self.notify_send_failure(from, to);
            }
            Payload::ConnectionLost { .. } | Payload::PlumtreeTimer { .. } => {}
        }
    }

    /// Counts one payload transmission addressed to a crashed node.
    fn lost_payload(&mut self, id: MsgId) {
        self.net.metrics.inc(self.net.counters.gossip_to_dead);
        if let Some(per) = self.net.track.per_mut(id) {
            per.to_dead += 1;
        }
    }

    /// TCP-as-failure-detector: a send to a dead node synchronously informs
    /// detecting protocols.
    fn notify_send_failure(&mut self, sender: SimId, dead: SimId) {
        let slot = &self.nodes[sender.index()];
        if !slot.alive || !slot.core.membership().detects_send_failures() {
            return;
        }
        self.net.metrics.inc(self.net.counters.failure_notifications);
        self.step(sender, |node, out| node.on_send_failed(dead, out));
    }
}

/// Hashes one directed link into a latency seed. `from` and `to` mix with
/// different multipliers, so the two directions of a link draw
/// independently — per-link latency geometry is asymmetric by design.
fn mix_link(link_seed: u64, from: SimId, to: SimId) -> u64 {
    let mut x = link_seed
        ^ (from.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (to.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    // SplitMix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl<M: Membership<SimId>> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("nodes", &self.nodes.len())
            .field("alive", &self.alive_count())
            .field("time", &self.net.time)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyparview_core::Config;
    use hyparview_gossip::{GossipState, HyParViewMembership};

    fn hyparview_sim(seed: u64) -> Sim<HyParViewMembership<SimId>> {
        Sim::new(SimConfig::default(), seed, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        })
    }

    #[test]
    fn two_nodes_form_symmetric_overlay() {
        let mut sim = hyparview_sim(1);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        assert!(sim.node(a).out_view().contains(&b));
        assert!(sim.node(b).out_view().contains(&a));
    }

    #[test]
    fn broadcast_reaches_all_nodes_in_small_overlay() {
        let mut sim = hyparview_sim(2);
        let contact = sim.add_node();
        for i in 1..50 {
            let id = sim.add_node();
            assert_eq!(id.index(), i);
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let report = sim.broadcast_from(contact);
        assert_eq!(report.alive, 50);
        assert!(
            report.is_atomic(),
            "expected atomic broadcast, got {}/{}",
            report.delivered,
            report.alive
        );
        assert!(report.max_hops > 0);
    }

    #[test]
    fn failed_nodes_do_not_deliver() {
        let mut sim = hyparview_sim(3);
        let contact = sim.add_node();
        for _ in 1..30 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        let victims = sim.fail_fraction(0.3);
        assert_eq!(victims.len(), 9);
        assert_eq!(sim.alive_count(), 21);
        let origin = sim.random_alive();
        let report = sim.broadcast_from(origin);
        assert_eq!(report.alive, 21);
        assert!(report.delivered <= 21);
    }

    #[test]
    fn fail_fraction_bounds() {
        let mut sim = hyparview_sim(4);
        for _ in 0..10 {
            sim.add_node();
        }
        assert!(sim.fail_fraction(0.0).is_empty());
        let all = sim.fail_fraction(1.0);
        assert_eq!(all.len(), 10);
        assert_eq!(sim.alive_count(), 0);
    }

    #[test]
    fn accuracy_degrades_with_failures() {
        let mut sim = hyparview_sim(5);
        let contact = sim.add_node();
        for _ in 1..40 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let before = sim.accuracy();
        assert!(before > 0.99, "accuracy before failures was {before}");
        sim.fail_fraction(0.5);
        let after = sim.accuracy();
        assert!(after < before, "accuracy should drop after failures");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let mut sim = hyparview_sim(seed);
            let contact = sim.add_node();
            for _ in 1..40 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(3);
            sim.fail_fraction(0.4);
            let r = sim.broadcast_random();
            (r.delivered, r.sent, r.redundant, r.max_hops, sim.stats())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn revive_resets_state() {
        let mut sim = hyparview_sim(6);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        sim.fail_nodes(&[b]);
        assert!(!sim.is_alive(b));
        sim.revive(b);
        assert!(sim.is_alive(b));
        assert!(sim.node(b).out_view().is_empty(), "revived node starts fresh");
    }

    /// Reference model of the delivery table: the `GossipState` every slot
    /// used to own, fed with the first deliveries the path tracer records.
    struct DeliveryModel {
        nodes: Vec<GossipState>,
    }

    impl DeliveryModel {
        /// Folds the sim's new first deliveries into the model (each must
        /// be a first for the model too), then compares `has_delivered`
        /// for every node and every id up to one never broadcast.
        fn absorb(&mut self, sim: &mut Sim<HyParViewMembership<SimId>>) -> Vec<HopRecord> {
            self.nodes.resize_with(sim.len(), GossipState::new);
            let records = sim.take_path_records().records().to_vec();
            for r in &records {
                let first = self.nodes[r.node as usize].deliver(r.msg, r.depth);
                assert!(first, "node {} delivered broadcast {} twice", r.node, r.msg);
            }
            for id in 0..=sim.next_broadcast_id() {
                for (node, state) in self.nodes.iter().enumerate() {
                    assert_eq!(
                        sim.has_delivered(SimId::new(node), id),
                        state.has_delivered(id),
                        "node {node}, broadcast {id}"
                    );
                }
            }
            records
        }

        /// Runs one burst and checks every report field against the model
        /// and the sim's own transport counters.
        fn burst(
            &mut self,
            sim: &mut Sim<HyParViewMembership<SimId>>,
            origin: SimId,
            count: usize,
        ) -> BurstReport {
            let payload_frames =
                |sim: &Sim<_>| sim.net.metrics.counter_value(sim.net.counters.frames.payload);
            let (stats, payload, base) =
                (sim.stats(), payload_frames(sim), sim.next_broadcast_id());
            let burst = sim.broadcast_burst_from(origin, count);
            let records = self.absorb(sim);
            assert_eq!(burst.reports.len(), count);
            for (offset, report) in burst.reports.iter().enumerate() {
                let firsts: Vec<_> = records.iter().filter(|r| r.msg == report.id).collect();
                assert_eq!(report.id, base + offset as u64);
                assert_eq!(report.origin, origin.index());
                // The slot scan, not the counter `alive_count` returns.
                assert_eq!(report.alive, sim.alive_ids().len());
                assert_eq!(report.delivered, firsts.len());
                assert_eq!(report.max_hops, firsts.iter().map(|r| r.depth).max().unwrap());
                assert_eq!((report.dropped, report.control), (0, 0));
            }
            // Every payload frame sent reached an alive node, as a first
            // delivery (the origins' own excepted) or redundantly, or a
            // dead one.
            let total = |field: fn(&BroadcastReport) -> usize| {
                burst.reports.iter().map(field).sum::<usize>() as u64
            };
            let now = sim.stats();
            assert_eq!(total(|r| r.sent), payload_frames(sim) - payload);
            assert_eq!(total(|r| r.to_dead), now.gossip_to_dead - stats.gossip_to_dead);
            assert_eq!(
                total(|r| r.delivered - 1) + total(|r| r.redundant),
                now.gossip_delivered - stats.gossip_delivered
            );
            burst
        }
    }

    #[test]
    fn delivery_table_matches_a_gossip_state_per_node() {
        for mode in [BroadcastMode::Flood, BroadcastMode::Plumtree] {
            let config = SimConfig { broadcast_mode: mode, ..SimConfig::default() };
            let mut sim = Sim::new(config, 77, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            sim.enable_path_tracing();
            let mut model = DeliveryModel { nodes: Vec::new() };
            // 128 nodes fill two bitset words exactly, so the late joiner
            // below lands past the end of every existing row.
            let contact = build_overlay(&mut sim, 128);
            model.absorb(&mut sim);
            let stable = model.burst(&mut sim, contact, 3);
            assert!(stable.reports.iter().all(BroadcastReport::is_atomic), "{mode:?}");

            let victims = sim.fail_fraction(0.3);
            let survivor = sim.alive_ids()[0];
            model.burst(&mut sim, survivor, 2);
            sim.run_cycles(2);
            model.burst(&mut sim, survivor, 1);

            // A revived node starts with nothing delivered ...
            let revived = victims[0];
            assert!(sim.has_delivered(revived, 0));
            sim.revive(revived);
            model.nodes[revived.index()] = GossipState::new();
            sim.join(revived, survivor);
            // ... and so does a node added after broadcasts exist.
            let late = sim.add_node();
            sim.join(late, survivor);
            model.absorb(&mut sim);
            assert!(!sim.has_delivered(revived, 0) && !sim.has_delivered(late, 0));
            assert!(!sim.has_delivered(late, sim.next_broadcast_id()), "never broadcast");
            let healed = model.burst(&mut sim, survivor, 2);
            assert!(sim.has_delivered(revived, healed.reports[1].id));
            assert!(sim.has_delivered(late, healed.reports[1].id));

            // Both deliver an old broadcast when a copy still reaches them.
            // By now id 0 is older than the Plumtree stores' horizon: nodes
            // that forgot it take the copy for new and push it on (the
            // table counts those as duplicates), so `late` can get its copy
            // while `revived`'s is still draining. Whichever injection
            // brought it, each has one record, and `absorb` has checked
            // that nobody has two.
            let mut records = Vec::new();
            for node in [revived, late] {
                let payload = match mode {
                    BroadcastMode::Flood => Payload::Gossip { id: 0, hops: 1 },
                    BroadcastMode::Plumtree => {
                        Payload::Plumtree(PlumtreeMessage::Gossip { id: 0, round: 1, payload: () })
                    }
                };
                sim.net.queue.push(sim.net.time + 1, survivor, node, payload);
                sim.drain();
                records.extend(model.absorb(&mut sim));
                assert!(sim.has_delivered(node, 0), "{mode:?}");
            }
            for node in [revived, late] {
                let own = records.iter().filter(|r| (r.msg, r.node) == (0, node.index() as u64));
                assert_eq!(own.count(), 1, "{mode:?}: records of id 0 at {node:?}");
            }
        }
    }

    #[test]
    fn out_views_mark_dead_nodes() {
        let mut sim = hyparview_sim(7);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        sim.fail_nodes(&[a]);
        let views = sim.out_views();
        assert!(views[a.index()].is_none());
        assert!(views[b.index()].is_some());
    }

    #[test]
    #[should_panic(expected = "origin must be alive")]
    fn broadcast_from_dead_panics() {
        let mut sim = hyparview_sim(8);
        let a = sim.add_node();
        sim.fail_nodes(&[a]);
        sim.broadcast_from(a);
    }

    // ------------------------------------------------------------------
    // Plumtree mode
    // ------------------------------------------------------------------

    fn plumtree_sim(seed: u64) -> Sim<HyParViewMembership<SimId>> {
        let config = SimConfig { broadcast_mode: BroadcastMode::Plumtree, ..SimConfig::default() };
        Sim::new(config, seed, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        })
    }

    fn build_plumtree_overlay(seed: u64, n: usize) -> Sim<HyParViewMembership<SimId>> {
        let mut sim = plumtree_sim(seed);
        let contact = sim.add_node();
        for _ in 1..n {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        sim
    }

    #[test]
    fn plumtree_broadcast_is_atomic_on_stable_overlay() {
        let mut sim = build_plumtree_overlay(21, 50);
        let origin = SimId::new(0);
        let report = sim.broadcast_from(origin);
        assert_eq!(report.alive, 50);
        assert!(
            report.is_atomic(),
            "first Plumtree broadcast must span: {}/{}",
            report.delivered,
            report.alive
        );
    }

    #[test]
    fn plumtree_prunes_to_near_zero_redundancy() {
        let mut sim = build_plumtree_overlay(22, 60);
        let origin = SimId::new(0);
        // Warm-up: the first broadcasts carve the tree out of the overlay.
        for _ in 0..10 {
            sim.broadcast_from(origin);
        }
        let report = sim.broadcast_from(origin);
        assert!(report.is_atomic(), "steady state must stay atomic");
        assert_eq!(report.redundant, 0, "converged tree sends no duplicate payloads");
        assert_eq!(report.sent, report.delivered - 1, "payloads traverse exactly N-1 links");
        assert!(report.rmr().abs() < 1e-9, "RMR of a spanning tree is 0, got {}", report.rmr());
    }

    #[test]
    fn plumtree_eager_and_lazy_stay_within_active_view() {
        let mut sim = build_plumtree_overlay(23, 40);
        let origin = SimId::new(0);
        for _ in 0..5 {
            sim.broadcast_from(origin);
        }
        sim.fail_fraction(0.2);
        sim.broadcast_random();
        sim.run_cycles(2);
        for id in sim.alive_ids() {
            let view = sim.node(id).out_view();
            let pt = sim.plumtree_node(id);
            for peer in pt.eager_peers() {
                assert!(view.contains(&peer), "{id}: eager peer {peer} outside active view");
                assert!(!pt.lazy_peers().contains(&peer), "{id}: {peer} in both sets");
            }
            for peer in pt.lazy_peers() {
                assert!(view.contains(&peer), "{id}: lazy peer {peer} outside active view");
            }
        }
    }

    #[test]
    fn plumtree_accounting_balances() {
        let mut sim = build_plumtree_overlay(24, 50);
        for _ in 0..5 {
            sim.broadcast_random();
        }
        sim.fail_fraction(0.3);
        let report = sim.broadcast_random();
        assert_eq!(
            report.sent,
            (report.delivered - 1) + report.redundant + report.to_dead + report.dropped,
            "every payload send lands in exactly one bucket: {report:?}"
        );
        assert_eq!(report.dropped, 0, "no faults injected");
    }

    #[test]
    fn plumtree_graft_restores_delivery_after_eager_crash() {
        // Run Plumtree over *Cyclon*: no standing connections, so nobody is
        // told about the crash — the only mechanism that can route around
        // dead tree links during the broadcast is the IHave-timer → Graft
        // repair. (Over HyParView the TCP failure detector additionally
        // repairs the overlay itself; using Cyclon isolates the graft path
        // and exercises the any-Membership seam.)
        use hyparview_baselines::{Cyclon, CyclonConfig};
        let config = SimConfig { broadcast_mode: BroadcastMode::Plumtree, ..SimConfig::default() };
        let mut sim = Sim::new(config, 25, |id, seed| Cyclon::new(id, CyclonConfig::paper(), seed));
        let contact = sim.add_node();
        for _ in 1..60 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        let origin = SimId::new(0);
        for _ in 0..10 {
            sim.broadcast_from(origin);
        }
        let grafts_before: u64 =
            sim.alive_ids().iter().map(|id| sim.plumtree_node(*id).stats().grafts_sent).sum();
        // Crash a fifth of the overlay, tree links included. Views are now
        // stale and stay stale (no membership cycle runs).
        sim.fail_fraction(0.2);
        assert!(sim.is_alive(origin), "seed 25 must keep the origin alive");
        let report = sim.broadcast_from(origin);
        let grafts_after: u64 =
            sim.alive_ids().iter().map(|id| sim.plumtree_node(*id).stats().grafts_sent).sum();
        assert!(
            grafts_after > grafts_before,
            "crashed tree links must be repaired by Grafts ({grafts_before} -> {grafts_after})"
        );
        assert!(
            report.reliability() > 0.95,
            "graft repair should restore near-full delivery, got {}",
            report.reliability()
        );
    }

    #[test]
    fn plumtree_mode_is_deterministic() {
        let run = |seed: u64| {
            let mut sim = build_plumtree_overlay(seed, 40);
            sim.fail_fraction(0.3);
            let r = sim.broadcast_random();
            (r.delivered, r.sent, r.redundant, r.control, r.max_hops, sim.stats())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn burst_reports_every_message() {
        let mut sim = hyparview_sim(27);
        let contact = sim.add_node();
        for _ in 1..40 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        let burst = sim.broadcast_burst_from(contact, 5);
        assert_eq!(burst.reports.len(), 5);
        for (i, report) in burst.reports.iter().enumerate() {
            assert_eq!(report.id, burst.reports[0].id + i as u64);
            assert!(report.is_atomic(), "burst message {i}: {report:?}");
        }
        assert_eq!(burst.control_frames, 0, "flood sends no control traffic");
    }

    #[test]
    fn plumtree_burst_batching_cuts_control_frames() {
        // The same warmed-up overlay, a burst of 8 concurrent messages:
        // with per-message IHaves every lazy link pays 8 control frames,
        // with batching it pays ~1 IHaveBatch. Reliability must not move.
        let run = |flush: u64| {
            let config = SimConfig {
                broadcast_mode: BroadcastMode::Plumtree,
                plumtree: PlumtreeConfig::default().with_lazy_flush_interval(flush),
                ..SimConfig::default()
            };
            let mut sim = Sim::new(config, 28, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            let contact = sim.add_node();
            for _ in 1..60 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(5);
            for _ in 0..10 {
                sim.broadcast_from(contact);
            }
            sim.broadcast_burst_from(contact, 8)
        };
        let unbatched = run(0);
        let batched = run(4);
        for burst in [&unbatched, &batched] {
            for report in &burst.reports {
                assert!(report.is_atomic(), "burst must stay atomic: {report:?}");
            }
        }
        assert!(
            (batched.control_frames as f64) < unbatched.control_frames as f64 * 0.5,
            "batching should at least halve control frames: {} vs {}",
            batched.control_frames,
            unbatched.control_frames
        );
        let batches = run(4);
        let stats = |burst: &BurstReport| burst.control_frames;
        assert_eq!(stats(&batches), stats(&batched), "burst accounting is deterministic");
    }

    // ------------------------------------------------------------------
    // Latency models
    // ------------------------------------------------------------------

    #[test]
    fn uniform_constructor_reorders_degenerate_bounds() {
        let swapped = Latency::uniform(9, 2);
        assert_eq!(swapped.model.bounds(), (2, 9));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let draw = swapped.model.sample(&mut rng);
            assert!((2..=9).contains(&draw), "draw {draw} outside [2, 9]");
        }
    }

    #[test]
    fn log_normal_draws_stay_within_bounds_and_tail() {
        let latency = Latency::log_normal(4, 800);
        let (lo, hi) = latency.model.bounds();
        assert_eq!((lo, hi), (1, 4 * 32));
        let mut rng = StdRng::seed_from_u64(2);
        let draws: Vec<u64> = (0..2000).map(|_| latency.model.sample(&mut rng)).collect();
        assert!(draws.iter().all(|d| (lo..=hi).contains(d)));
        // Heavy tail: some draws land well past the median, none past cap.
        assert!(draws.iter().any(|&d| d >= 12), "no tail draws at σ = 0.8");
        let median_zone = draws.iter().filter(|&&d| (2..=8).contains(&d)).count();
        assert!(median_zone > draws.len() / 2, "mass should concentrate near the median");
    }

    #[test]
    fn per_link_geometry_is_asymmetric_and_stable() {
        let (a, b) = (SimId::new(3), SimId::new(9));
        assert_ne!(mix_link(7, a, b), mix_link(7, b, a), "directed links draw independently");
        assert_eq!(mix_link(7, a, b), mix_link(7, a, b));
        assert_ne!(mix_link(7, a, b), mix_link(8, a, b), "geometry follows the seed");
    }

    #[test]
    fn variable_latency_broadcasts_stay_atomic_and_deterministic() {
        let run = |latency: Latency| {
            let config = SimConfig { latency, ..SimConfig::default() };
            let mut sim = Sim::new(config, 31, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            let contact = sim.add_node();
            for _ in 1..50 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(3);
            let report = sim.broadcast_from(contact);
            assert!(sim.is_quiescent(), "drain must empty the event queue");
            assert!(
                report.is_atomic(),
                "{latency:?}: {} of {} delivered",
                report.delivered,
                report.alive
            );
            report
        };
        for latency in [
            Latency::fixed(3),
            Latency::uniform(1, 9),
            Latency::uniform(1, 9).per_link(),
            Latency::log_normal(3, 700),
            Latency::log_normal(3, 700).per_link(),
        ] {
            assert_eq!(run(latency), run(latency), "same seed must reproduce {latency:?}");
        }
    }

    /// Tree optimization's *late-IHave* path requires arrival order to
    /// disagree with round order. Under `fixed(1)` on a stable overlay
    /// deliveries are breadth-first — an announcement can never lose the
    /// race against a payload of a deeper round — so the late path must
    /// stay silent; under `uniform` latency the race is real and the path
    /// must fire (and each swap sends its `Prune`).
    #[test]
    fn late_optimization_fires_under_uniform_latency_never_under_fixed() {
        let run = |latency: Latency| {
            let plumtree = PlumtreeConfig::default()
                .with_optimization_threshold(Some(1))
                .with_timeouts_for_max_latency(latency.max_hop());
            let config = SimConfig {
                latency,
                broadcast_mode: BroadcastMode::Plumtree,
                plumtree,
                ..SimConfig::default()
            };
            let mut sim = Sim::new(config, 33, |id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
            let contact = sim.add_node();
            for _ in 1..80 {
                let id = sim.add_node();
                sim.join(id, contact);
            }
            sim.run_cycles(5);
            let origin = SimId::new(0);
            for _ in 0..20 {
                let report = sim.broadcast_from(origin);
                assert!(report.is_atomic(), "{latency:?} broadcast lost deliveries");
            }
            sim.plumtree_stats_total().expect("Plumtree mode")
        };
        let fixed = run(Latency::fixed(1));
        assert_eq!(
            fixed.late_optimizations, 0,
            "unit latency delivers in round order: no IHave can arrive late with a better round"
        );
        let uniform = run(Latency::uniform(1, 8));
        assert!(
            uniform.late_optimizations > 0,
            "variable latency must exercise the late-IHave optimization: {uniform:?}"
        );
        assert!(uniform.optimizations >= uniform.late_optimizations);
        assert!(uniform.prunes_sent > 0, "every optimization prunes the old parent");
    }

    #[test]
    fn flood_reports_have_no_control_traffic() {
        let mut sim = hyparview_sim(26);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        let report = sim.broadcast_from(a);
        assert_eq!(report.control, 0);
    }

    // ------------------------------------------------------------------
    // Observability: registry metrics, path tracing, decision trace
    // ------------------------------------------------------------------

    #[test]
    fn metrics_registry_mirrors_sim_stats_snapshot() {
        let mut sim = hyparview_sim(31);
        let contact = sim.add_node();
        for _ in 1..20 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        sim.broadcast_from(contact);
        let stats = sim.stats();
        let m = sim.metrics();
        assert!(stats.events_processed > 0);
        assert_eq!(m.value_by_name(names::SIM_EVENTS_PROCESSED), Some(stats.events_processed));
        assert_eq!(
            m.value_by_name(names::SIM_MEMBERSHIP_DELIVERED),
            Some(stats.membership_delivered)
        );
        assert_eq!(m.value_by_name(names::BROADCAST_SENT), Some(stats.broadcasts));
        assert!(m.value_by_name(names::FRAMES_SENT).unwrap() > 0);
        // Every cross-transport metric name is present in the snapshot.
        let snapshot = sim.metrics_snapshot();
        for name in names::SHARED_TRANSPORT_NAMES {
            assert!(snapshot.value_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn path_tracing_reconstructs_a_spanning_dissemination_tree() {
        let mut sim = build_plumtree_overlay(32, 40);
        for _ in 0..5 {
            sim.broadcast_from(SimId::new(0));
        }
        sim.enable_path_tracing();
        let report = sim.broadcast_from(SimId::new(0));
        assert!(report.is_atomic());
        let tracer = sim.take_path_records();
        let tree = tracer.tree(report.id).expect("traced broadcast has a tree");
        assert_eq!(tree.node_count(), report.alive, "tree spans every alive node");
        assert_eq!(tree.records()[0].parent, None, "root is the origin");
        assert_eq!(tree.max_depth(), report.max_hops);
        let hops = tree.hop_latency_histogram();
        assert_eq!(hops.count(), report.alive as u64 - 1, "one hop latency per non-root");
        let rendered = tree.render();
        assert!(rendered.contains("msg"), "render names the message: {rendered}");
        assert!(sim.path_records().is_empty(), "take drains the tracer");
    }

    #[test]
    fn path_tracing_works_in_flood_mode_too() {
        let mut sim = hyparview_sim(33);
        let contact = sim.add_node();
        for _ in 1..20 {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(3);
        sim.enable_path_tracing();
        let report = sim.broadcast_from(contact);
        let tree = sim.take_path_records().tree(report.id).expect("flood tree");
        assert_eq!(tree.node_count(), report.delivered);
        assert_eq!(tree.max_depth(), report.max_hops);
    }

    #[test]
    fn decision_trace_records_plumtree_protocol_events() {
        let mut sim = build_plumtree_overlay(34, 40);
        sim.enable_tracing(4096);
        for _ in 0..10 {
            sim.broadcast_from(SimId::new(0));
        }
        let ring = sim.trace().expect("tracing enabled");
        assert!(!ring.is_empty());
        let kinds: Vec<_> = ring.events().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::Delivered { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::PruneSent { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::LazyDemote { .. })));
        assert!(kinds.iter().any(|k| matches!(k, TraceKind::TimerFired { .. })));
        // Ring stays bounded.
        assert!(ring.len() <= 4096);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    fn lossy_sim(
        seed: u64,
        plan: FaultPlan,
        mode: BroadcastMode,
    ) -> Sim<HyParViewMembership<SimId>> {
        let config = SimConfig { broadcast_mode: mode, faults: plan, ..SimConfig::default() };
        Sim::new(config, seed, |id, seed| {
            HyParViewMembership::new(id, Config::default(), seed).unwrap()
        })
    }

    fn build_overlay(sim: &mut Sim<HyParViewMembership<SimId>>, n: usize) -> SimId {
        let contact = sim.add_node();
        for _ in 1..n {
            let id = sim.add_node();
            sim.join(id, contact);
        }
        sim.run_cycles(5);
        contact
    }

    #[test]
    fn zero_loss_plan_matches_the_faultless_run_exactly() {
        let plan = FaultPlan::default().with_loss(0.0).with_duplication(0.0);
        assert!(!plan.is_active(), "a zero plan must take the inert fast path");
        let mut plain = hyparview_sim(40);
        let mut faulted = lossy_sim(40, plan, BroadcastMode::Flood);
        build_overlay(&mut plain, 40);
        build_overlay(&mut faulted, 40);
        for _ in 0..5 {
            assert_eq!(plain.broadcast_random(), faulted.broadcast_random());
        }
        assert_eq!(plain.stats(), faulted.stats());
        assert_eq!(plain.time(), faulted.time());
    }

    #[test]
    fn fault_injection_is_deterministic_per_seed() {
        let plan = FaultPlan::default().with_loss(0.1).with_duplication(0.05);
        let mut a = lossy_sim(41, plan.clone(), BroadcastMode::Plumtree);
        let mut b = lossy_sim(41, plan, BroadcastMode::Plumtree);
        build_overlay(&mut a, 50);
        build_overlay(&mut b, 50);
        for _ in 0..8 {
            assert_eq!(a.broadcast_random(), b.broadcast_random());
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            a.metrics().value_by_name(names::FAULTS_DROPPED),
            b.metrics().value_by_name(names::FAULTS_DROPPED)
        );
    }

    #[test]
    fn lossy_broadcasts_stay_quiescent_and_balance_their_accounting() {
        for mode in [BroadcastMode::Flood, BroadcastMode::Plumtree] {
            let plan = FaultPlan::default().with_loss(0.25);
            let mut sim = lossy_sim(42, plan, mode);
            build_overlay(&mut sim, 60);
            let mut dropped = 0;
            for _ in 0..10 {
                let report = sim.broadcast_random();
                assert_eq!(
                    report.sent,
                    (report.delivered - 1) + report.redundant + report.to_dead + report.dropped,
                    "dropped frames land in their own bucket: {report:?}"
                );
                dropped += report.dropped;
                assert!(sim.is_quiescent(), "drops must not strand pending events");
                assert_eq!(sim.pending_events(), 0);
            }
            assert!(dropped > 0, "25% loss drops something across 10 broadcasts ({mode:?})");
            assert!(sim.metrics().value_by_name(names::FAULTS_DROPPED).unwrap_or(0) > 0);
        }
    }

    #[test]
    fn duplication_is_counted_and_cannot_hurt_delivery() {
        let plan = FaultPlan::default().with_duplication(0.3);
        let mut sim = lossy_sim(43, plan, BroadcastMode::Flood);
        let contact = build_overlay(&mut sim, 40);
        let report = sim.broadcast_from(contact);
        assert!(report.is_atomic(), "duplication alone never loses a frame");
        assert_eq!(
            report.sent,
            (report.delivered - 1) + report.redundant + report.to_dead + report.dropped
        );
        assert!(sim.metrics().value_by_name(names::FAULTS_DUPLICATED).unwrap_or(0) > 0);
        assert_eq!(sim.metrics().value_by_name(names::FAULTS_DROPPED), Some(0));
    }

    #[test]
    fn per_link_loss_override_kills_exactly_that_direction() {
        // Two nodes, the a→b direction always drops: a's broadcasts stop at
        // a, while b's still reach everyone.
        let plan = FaultPlan::default().with_link_loss(0, 1, 1.0);
        let mut sim = lossy_sim(44, plan, BroadcastMode::Flood);
        let a = sim.add_node();
        let b = sim.add_node();
        sim.join(b, a);
        let from_a = sim.broadcast_from(a);
        assert_eq!(from_a.delivered, 1, "a→b is severed: {from_a:?}");
        assert_eq!(from_a.dropped, from_a.sent);
        let from_b = sim.broadcast_from(b);
        assert!(from_b.is_atomic(), "b→a keeps the global (zero) loss rate: {from_b:?}");
    }

    #[test]
    fn partition_cuts_cross_group_frames_and_heal_restores_convergence() {
        let mut sim = hyparview_sim(45);
        let contact = build_overlay(&mut sim, 40);
        let alive = sim.alive_ids();
        let (left, right) = alive.split_at(alive.len() / 2);
        sim.partition_network(&[left.to_vec(), right.to_vec()]);
        assert!(sim.partitioned());
        let cut = sim.broadcast_from(contact);
        assert!(!cut.is_atomic(), "a partitioned flood cannot reach the far side");
        assert!(cut.delivered <= left.len());
        assert!(cut.dropped > 0, "cross-group frames drop: {cut:?}");
        assert!(sim.is_quiescent());
        let boundary_drops =
            sim.metrics().value_by_name(names::FAULTS_PARTITION_DROPPED).unwrap_or(0);
        assert!(boundary_drops > 0);
        sim.heal_partitions();
        assert!(!sim.partitioned());
        let healed = sim.broadcast_from(contact);
        assert!(healed.is_atomic(), "healing restores single-component convergence: {healed:?}");
        assert_eq!(healed.dropped, 0);
    }

    #[test]
    fn timed_partition_and_heal_apply_at_their_virtual_times() {
        // Four nodes, halves split at t=2000 and rejoined at t=2012. The
        // ops fire *mid-drain* as broadcasts push virtual time across the
        // window; intra-group traffic keeps the clock moving throughout.
        let plan =
            FaultPlan::default().with_partition_at(&[&[0, 1], &[2, 3]], 2_000).with_heal_at(2_012);
        let mut sim = lossy_sim(46, plan, BroadcastMode::Flood);
        let contact = build_overlay(&mut sim, 4);
        assert!(sim.time() < 2_000, "overlay built before the partition cue");
        assert!(!sim.partitioned());
        let mut saw_cut = false;
        while sim.time() <= 2_030 {
            let report = sim.broadcast_from(contact);
            if !report.is_atomic() {
                saw_cut = true;
                assert!(
                    sim.metrics().value_by_name(names::FAULTS_PARTITION_DROPPED).unwrap_or(0) > 0
                );
            }
        }
        assert!(saw_cut, "the partition window must cut at least one broadcast");
        assert!(!sim.partitioned(), "the heal op fired");
        assert!(sim.broadcast_from(contact).is_atomic());
    }

    #[test]
    fn dropped_frames_are_traced_at_the_sender() {
        let plan = FaultPlan::default().with_loss(0.5);
        let mut sim = lossy_sim(47, plan, BroadcastMode::Flood);
        let contact = build_overlay(&mut sim, 30);
        sim.enable_tracing(4096);
        for _ in 0..5 {
            sim.broadcast_from(contact);
        }
        let ring = sim.trace().expect("tracing enabled");
        assert!(
            ring.events().any(|e| matches!(e.kind, TraceKind::FrameDropped { .. })),
            "50% loss must trace FrameDropped"
        );
    }
}
