//! The two live-cluster workloads: real listeners, real TCP connections over
//! the host loopback interface, every node on the program's one
//! `hpv-reactor` thread, and all load generated in-process by the driver
//! thread through `Node::broadcast` / `Node::deliveries`.

use crate::alloc;
use crate::openloop::Schedule;
use crate::procfs::{self, ThreadUsage};
use crate::span::{Recorder, NO_BCAST};
use crate::stats::Hist;
use crate::{mix, Outcome, Rng};
use hyparview_core::Config;
use hyparview_net::{BroadcastMode, Cluster, NetConfig, Node, NodeStats};
use hyparview_obsv::names;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

/// A delivery not observed within this long of its broadcast's due time is
/// missed (and so misses any latency limit).
const DEADLINE_NS: u64 = 2_000_000_000;
/// Nodes spawned between two waits for their joins to land, and the longest
/// such wait.
const WAVE: usize = 100;
const WAVE_WAIT_NS: u64 = 300_000_000;
/// The descriptor limit `live_flood_small` needs: 2,000 listeners plus two
/// unidirectional connections per link end, with room for join-time churn.
pub const NOFILE_NEEDED: u64 = 19_000;

pub struct LiveSpec {
    pub nodes: usize,
    pub active: usize,
    pub passive: usize,
    pub shuffle_ms: u64,
    pub mode: BroadcastMode,
    pub payload_len: usize,
    pub dedup_capacity: usize,
    /// One seeded origin for the whole run, so a Plumtree tree forms;
    /// otherwise a seeded random origin per broadcast.
    pub fixed_origin: bool,
    pub warmup: usize,
    /// Open loop: bursts per second, broadcasts back-to-back per burst.
    pub paced_hz: f64,
    pub burst: usize,
    /// Closed loop: broadcasts kept in flight.
    pub inflight: usize,
    pub min_nofile: u64,
}

/// ROADMAP's fixed live configuration at the smallest message.
///
/// The paced rate is part of the workload, set once and not tuned per run: 5
/// broadcasts/s keeps the reactor about half busy on the box the benchmark
/// was defined on. That is 17% of the saturated rate (about 29/s), not the
/// 40% one would guess: alone in the cluster a broadcast costs twice the
/// reactor time it costs among 15 others, whose frames share reads, writes
/// and epoll batches. At 11/s the reactor was 90% busy and the median
/// latency swung between 24 and 170 ms from run to run.
///
/// `dedup_capacity` is 128 on both live workloads: with the default 8,192
/// every node's id set doubles at the same broadcast count, and
/// `peak_rss_mb` then jumps by 12% depending on whether a run got that far.
pub const FLOOD_SMALL: LiveSpec = LiveSpec {
    nodes: 2_000,
    active: 4,
    passive: 16,
    shuffle_ms: 2_000,
    mode: BroadcastMode::Flood,
    payload_len: 64,
    dedup_capacity: 128,
    fixed_origin: false,
    warmup: 20,
    paced_hz: 5.0,
    burst: 1,
    inflight: 16,
    min_nofile: NOFILE_NEEDED,
};

/// Byte-bound frames, timers and lazy control traffic. The Plumtree cache
/// holds payloads: 128 x 8 KiB x 500 nodes bounds resident memory near
/// 0.5 GB.
///
/// One seeded origin, so one tree forms and stays. With two or more origins
/// in flight at once the shipped tree optimisation keeps re-rooting the
/// tree: about 100 grafts per broadcast wait on 320 ms timers, the reactor
/// idles two thirds of the saturate phase and throughput falls 13-fold (see
/// README, "Found while defining the benchmark").
///
/// 7 bursts of 4 per second keep the reactor a little under half busy; the
/// saturated rate on this box was about 150 broadcasts/s.
pub const PLUMTREE_LARGE: LiveSpec = LiveSpec {
    nodes: 500,
    active: 4,
    passive: 16,
    shuffle_ms: 500,
    mode: BroadcastMode::Plumtree,
    payload_len: 8 * 1024,
    dedup_capacity: 128,
    fixed_origin: true,
    warmup: 40,
    paced_hz: 7.0,
    burst: 4,
    inflight: 8,
    min_nofile: 6_000,
};

// ---------------------------------------------------------------------------
// Payloads: sequence number + checksum + seeded body
// ---------------------------------------------------------------------------

const HEADER: usize = 16;

/// Word-wise multiply-xor checksum: fast enough to verify 8 KiB on every one
/// of N deliveries without the driver becoming the bottleneck.
fn checksum(body: &[u8]) -> u64 {
    let mut sum = 0x9E37_79B9_7F4A_7C15u64 ^ body.len() as u64;
    let mut chunks = body.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        sum = (sum ^ word).wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(29);
    }
    for &byte in chunks.remainder() {
        sum = (sum ^ u64::from(byte)).wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(29);
    }
    sum
}

fn make_payload(seq: u64, len: usize, rng: &mut Rng) -> Vec<u8> {
    assert!(len >= HEADER + 8, "payload too short for its header");
    let mut payload = vec![0u8; len];
    for chunk in payload[HEADER..].chunks_mut(8) {
        let word = rng.next().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    let sum = checksum(&payload[HEADER..]);
    payload[..8].copy_from_slice(&seq.to_le_bytes());
    payload[8..HEADER].copy_from_slice(&sum.to_le_bytes());
    payload
}

/// The sequence number of a received payload, if it is intact.
fn verify_payload(payload: &[u8], len: usize) -> Option<u64> {
    if payload.len() != len {
        return None;
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let sum = u64::from_le_bytes(payload[8..HEADER].try_into().ok()?);
    (checksum(&payload[HEADER..]) == sum).then_some(seq)
}

// ---------------------------------------------------------------------------
// One cluster and the traffic driven through it
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    WarmUp,
    Paced,
    Saturate,
}

struct Bcast {
    id: u128,
    due_ns: u64,
    phase: Phase,
    /// One bit per node; emptied when the broadcast is retired.
    seen: Vec<u64>,
    /// Paced only: microseconds from due to each delivery, until retired.
    reached_us: Vec<u32>,
    delivered: u32,
    first_hop_ns: u64,
    last_ns: u64,
    open: bool,
}

#[derive(Default, Clone, Copy)]
struct PhaseCount {
    bcasts: u64,
    /// Broadcasts every node delivered within the deadline.
    complete: u64,
    /// Deliveries observed within the deadline of their broadcast.
    delivered: u64,
}

/// Cumulative counters read at a phase boundary.
#[derive(Clone, Copy, Default)]
struct Snap {
    at_ns: u64,
    stats: NodeStats,
    epoll_waits: u64,
    epoll_wait_us: u64,
    timers_fired: u64,
    reactor: ThreadUsage,
    driver: ThreadUsage,
    /// `plumtree.*` protocol counters summed over the nodes (Plumtree mode).
    grafts: u64,
    prunes: u64,
    dead_letters: u64,
}

#[derive(Default)]
struct SetupReport {
    cluster_new_ns: u64,
    spawn_ns: Hist,
    join_ns: Hist,
    converge_ns: u64,
    rejoins: u64,
    fds: usize,
}

struct Session {
    spec: &'static LiveSpec,
    // Field order is drop order: the nodes go before the reactor they run on.
    nodes: Vec<Node>,
    cluster: Cluster,
    index: HashMap<SocketAddr, usize>,

    rng: Rng,
    fixed_origin: Option<usize>,
    bcasts: Vec<Bcast>,
    open: Vec<usize>,
    counts: [PhaseCount; 3],
    reactor_tid: Option<u32>,
    driver_tid: Option<u32>,

    latency_ns: Hist,
    /// Per paced broadcast: due to half, and to nine tenths, of the nodes.
    reach_half_ns: Hist,
    reach_most_ns: Hist,
    complete_ns: Hist,
    first_hop_ns: Hist,
    hops: Hist,
    call_ns: Hist,
    sweep_ns: Hist,
    stats_call_ns: Hist,
    last_sweep_ns: u64,

    /// Saturate deliveries observed before this instant count towards
    /// throughput.
    saturate_end_ns: u64,
    saturate_deliveries: u64,
    /// Allocations of threads other than the driver over the saturate phase
    /// (traced runs only).
    saturate_allocs: alloc::Counts,

    /// Deliveries taken off any channel, ever.
    received: u64,
    corrupt: u64,
    duplicate: u64,
    late: u64,
}

fn sum_stats(total: &mut NodeStats, s: &NodeStats) {
    total.broadcasts_sent += s.broadcasts_sent;
    total.deliveries += s.deliveries;
    total.duplicates += s.duplicates;
    total.mode_mismatched += s.mode_mismatched;
    total.frames_sent += s.frames_sent;
    total.payload_frames_sent += s.payload_frames_sent;
    total.ihave_frames_sent += s.ihave_frames_sent;
    total.ihave_batch_frames_sent += s.ihave_batch_frames_sent;
    total.ihave_batch_anns_sent += s.ihave_batch_anns_sent;
}

impl Session {
    /// `Cluster::new`, spawn and join in waves, converge to one component.
    fn set_up(
        spec: &'static LiveSpec,
        seed: u64,
        rec: &mut Recorder,
    ) -> Result<(Session, SetupReport), String> {
        let mut report = SetupReport::default();
        let mut rng = Rng::new(mix(seed, 0x5E7));

        let (cluster, cluster_new_ns) = rec.timed("net.cluster_new", NO_BCAST, Cluster::new);
        let cluster = cluster.map_err(|e| format!("Cluster::new: {e}"))?;
        report.cluster_new_ns = cluster_new_ns;

        let mut nodes: Vec<Node> = Vec::with_capacity(spec.nodes);
        let mut index = HashMap::new();
        let bind: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
        for i in 0..spec.nodes {
            let config = NetConfig {
                protocol: Config::default()
                    .with_active_capacity(spec.active)
                    .with_passive_capacity(spec.passive),
                shuffle_interval: Duration::from_millis(spec.shuffle_ms),
                seed: Some(mix(seed, 0x10_0000 + i as u64)),
                dedup_capacity: spec.dedup_capacity,
                broadcast_mode: spec.mode,
                ..NetConfig::default()
            };
            let (node, spawn_ns) =
                rec.timed("net.spawn_node", NO_BCAST, || cluster.spawn_node(bind, config));
            let node = node.map_err(|e| format!("spawn node {i}: {e}"))?;
            report.spawn_ns.record(spawn_ns);
            if i > 0 {
                let contact = nodes[rng.below(i as u64) as usize].addr();
                report
                    .join_ns
                    .record(rec.timed("net.join_call", NO_BCAST, || node.join(contact)).1);
            }
            index.insert(node.addr(), i);
            nodes.push(node);
            if (i + 1) % WAVE == 0 || i + 1 == spec.nodes {
                // Next wave once every node of this one has a neighbour. A
                // join can be lost for good (the contact may evict the
                // joiner before their connection is up); such a node is
                // left to the convergence loop after a short wait.
                let wave = &nodes[(i + 1).saturating_sub(WAVE).max(1)..];
                let open = rec.enter("harness.wave_wait");
                let give_up = rec.now_ns() + WAVE_WAIT_NS;
                while wave.iter().any(|n| n.active_view().is_empty()) && rec.now_ns() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                rec.exit(open);
            }
        }

        let fixed_origin = spec.fixed_origin.then(|| rng.below(spec.nodes as u64) as usize);
        let mut session = Session {
            spec,
            nodes,
            cluster,
            index,
            rng,
            fixed_origin,
            bcasts: Vec::new(),
            open: Vec::new(),
            counts: [PhaseCount::default(); 3],
            reactor_tid: procfs::threads_named("hpv-reactor").first().copied(),
            driver_tid: procfs::current_tid(),
            latency_ns: Hist::new(),
            reach_half_ns: Hist::new(),
            reach_most_ns: Hist::new(),
            complete_ns: Hist::new(),
            first_hop_ns: Hist::new(),
            hops: Hist::new(),
            call_ns: Hist::new(),
            sweep_ns: Hist::new(),
            stats_call_ns: Hist::new(),
            last_sweep_ns: 0,
            saturate_end_ns: u64::MAX,
            saturate_deliveries: 0,
            saturate_allocs: alloc::Counts::default(),
            received: 0,
            corrupt: 0,
            duplicate: 0,
            late: 0,
        };
        session.converge(&mut report, rec)?;
        report.fds = procfs::open_fds();
        Ok((session, report))
    }

    /// Nodes not reachable from node 0 over `active_view` snapshots.
    fn unreachable(&self) -> Vec<usize> {
        let views: Vec<Vec<SocketAddr>> = self.nodes.iter().map(Node::active_view).collect();
        let mut seen = vec![false; views.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for peer in &views[v] {
                if let Some(&j) = self.index.get(peer) {
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
        }
        (0..views.len()).filter(|&i| !seen[i]).collect()
    }

    /// One component over active views, seen twice 200 ms apart: a re-join
    /// can push somebody else out of a full view, so one clean probe is not
    /// enough. A node counts as stranded only when two probes in a row miss
    /// it (joins still in flight need no help); stranded nodes re-join
    /// through a random reachable node, with bounded, jittered back-off.
    fn converge(&mut self, report: &mut SetupReport, rec: &mut Recorder) -> Result<(), String> {
        let open = rec.enter("net.converge");
        let started = rec.now_ns();
        let give_up = started + 60_000_000_000;
        let (mut clean, mut attempt) = (0, 0u32);
        let mut missed_before: Vec<usize> = Vec::new();
        while clean < 2 {
            let probe = rec.enter("harness.connectivity_probe");
            let missed = self.unreachable();
            rec.exit(probe);
            if missed.is_empty() {
                clean += 1;
                attempt = 0;
            } else {
                clean = 0;
                if rec.now_ns() > give_up {
                    return Err(format!("{} nodes still stranded after 60 s", missed.len()));
                }
            }
            let stranded: Vec<usize> =
                missed.iter().copied().filter(|i| missed_before.contains(i)).collect();
            for &i in &stranded {
                let contact = loop {
                    let j = self.rng.below(self.spec.nodes as u64) as usize;
                    if !missed.contains(&j) {
                        break self.nodes[j].addr();
                    }
                };
                self.nodes[i].join(contact);
                report.rejoins += 1;
            }
            missed_before = missed;
            let mut pause_ms = 200;
            if !stranded.is_empty() {
                let nominal = (250u64 << attempt.min(3)).min(2_000);
                attempt += 1;
                pause_ms = nominal / 2 + self.rng.below(nominal / 2 + 1);
            }
            if clean < 2 {
                std::thread::sleep(Duration::from_millis(pause_ms));
            }
        }
        report.converge_ns = rec.now_ns() - started;
        rec.exit(open);
        Ok(())
    }

    fn pick_origin(&mut self) -> usize {
        self.fixed_origin.unwrap_or_else(|| self.rng.below(self.spec.nodes as u64) as usize)
    }

    fn issue(&mut self, origin: usize, due_ns: u64, phase: Phase, rec: &mut Recorder) {
        let seq = self.bcasts.len() as u64;
        let payload = make_payload(seq, self.spec.payload_len, &mut self.rng);
        let node = &self.nodes[origin];
        let (id, call_ns) = rec.timed("net.broadcast_call", seq, || node.broadcast(payload));
        self.call_ns.record(call_ns);
        self.bcasts.push(Bcast {
            id,
            due_ns,
            phase,
            seen: vec![0; self.spec.nodes.div_ceil(64)],
            reached_us: Vec::with_capacity(if phase == Phase::Paced { self.spec.nodes } else { 0 }),
            delivered: 0,
            first_hop_ns: 0,
            last_ns: 0,
            open: true,
        });
        self.open.push(seq as usize);
        self.counts[phase as usize].bcasts += 1;
    }

    /// Visits every node's delivery channel once, stamping each delivery
    /// with the instant it is taken off the channel.
    fn sweep(&mut self, rec: &Recorder) {
        let started = rec.now_ns();
        if self.last_sweep_ns != 0 {
            self.sweep_ns.record(started - self.last_sweep_ns);
        }
        self.last_sweep_ns = started;
        for (i, node) in self.nodes.iter().enumerate() {
            while let Ok(delivery) = node.deliveries().try_recv() {
                self.received += 1;
                let now = rec.now_ns();
                let bcast = verify_payload(&delivery.payload, self.spec.payload_len)
                    .and_then(|seq| self.bcasts.get_mut(seq as usize))
                    .filter(|b| b.id == delivery.id);
                let Some(bcast) = bcast else {
                    self.corrupt += 1;
                    continue;
                };
                if !bcast.open {
                    // Retired complete: the node delivered it twice. Retired
                    // by the deadline: already counted as missed.
                    if bcast.delivered as usize == self.spec.nodes {
                        self.duplicate += 1;
                    } else {
                        self.late += 1;
                    }
                    continue;
                }
                let (word, bit) = (i / 64, 1u64 << (i % 64));
                if bcast.seen[word] & bit != 0 {
                    self.duplicate += 1;
                    continue;
                }
                bcast.seen[word] |= bit;
                bcast.delivered += 1;
                bcast.last_ns = now;
                if delivery.hops >= 1 && bcast.first_hop_ns == 0 {
                    bcast.first_hop_ns = now;
                }
                self.counts[bcast.phase as usize].delivered += 1;
                match bcast.phase {
                    Phase::Paced => {
                        let late_ns = now.saturating_sub(bcast.due_ns);
                        self.latency_ns.record(late_ns);
                        bcast.reached_us.push((late_ns / 1_000) as u32);
                        self.hops.record(u64::from(delivery.hops));
                    }
                    Phase::Saturate if now < self.saturate_end_ns => {
                        self.saturate_deliveries += 1;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Closes broadcasts that completed or ran past their deadline.
    fn retire(&mut self, rec: &mut Recorder) {
        let now = rec.now_ns();
        let all = self.spec.nodes as u32;
        let mut k = 0;
        while k < self.open.len() {
            let seq = self.open[k];
            let bcast = &mut self.bcasts[seq];
            let complete = bcast.delivered == all;
            if !complete && now <= bcast.due_ns + DEADLINE_NS {
                k += 1;
                continue;
            }
            bcast.open = false;
            bcast.seen = Vec::new();
            if bcast.phase == Phase::Paced {
                // A node that never delivered took longer than any limit.
                let mut reached_us = std::mem::take(&mut bcast.reached_us);
                reached_us.resize(all as usize, (DEADLINE_NS / 1_000) as u32);
                reached_us.sort_unstable();
                let reach = |share: f64| {
                    let rank = (share * f64::from(all)).ceil() as usize;
                    u64::from(reached_us[rank.clamp(1, all as usize) - 1]) * 1_000
                };
                self.reach_half_ns.record(reach(0.5));
                self.reach_most_ns.record(reach(0.9));
            }
            if complete {
                self.counts[bcast.phase as usize].complete += 1;
                if bcast.phase == Phase::Paced {
                    self.complete_ns.record(bcast.last_ns.saturating_sub(bcast.due_ns));
                    if bcast.first_hop_ns != 0 {
                        self.first_hop_ns.record(bcast.first_hop_ns.saturating_sub(bcast.due_ns));
                    }
                }
            }
            let end_ns = if complete { bcast.last_ns } else { now };
            rec.add_closed("net.bcast", seq as u64, bcast.due_ns.min(end_ns), end_ns);
            self.open.swap_remove(k);
        }
    }

    fn pump(&mut self, rec: &mut Recorder) {
        self.sweep(rec);
        self.retire(rec);
    }

    fn snap(&mut self, rec: &mut Recorder) -> Snap {
        let open = rec.enter("net.stats_snapshot");
        let started = rec.now_ns();
        let mut stats = NodeStats::default();
        for node in &self.nodes {
            sum_stats(&mut stats, &node.stats());
        }
        self.stats_call_ns.record((rec.now_ns() - started) / self.spec.nodes as u64);
        rec.exit(open);
        let mut snap = Snap { at_ns: rec.now_ns(), stats, ..Snap::default() };
        if self.spec.mode == BroadcastMode::Plumtree {
            let open = rec.enter("obsv.node_metrics");
            for node in &self.nodes {
                let registry = node.metrics();
                let value = |name| registry.value_by_name(name).unwrap_or(0);
                snap.grafts += value("plumtree.grafts_sent");
                snap.prunes += value("plumtree.prunes_sent");
                snap.dead_letters += value("plumtree.graft_dead_letters");
            }
            rec.exit(open);
        }
        let reactor = self.cluster.reactor_metrics();
        let value = |name| reactor.value_by_name(name).unwrap_or(0);
        snap.epoll_waits = value(names::REACTOR_EPOLL_WAITS);
        snap.epoll_wait_us = value(names::REACTOR_EPOLL_WAIT_US);
        snap.timers_fired = value(names::REACTOR_TIMERS_FIRED);
        snap.reactor = self.reactor_tid.map(ThreadUsage::read).unwrap_or_default();
        snap.driver = self.driver_tid.map(ThreadUsage::read).unwrap_or_default();
        snap
    }

    /// Closed loop, `inflight` outstanding, until `warmup` broadcasts are done.
    fn warm_up(&mut self, rec: &mut Recorder) {
        let mut issued = 0;
        while issued < self.spec.warmup || !self.open.is_empty() {
            while issued < self.spec.warmup && self.open.len() < self.spec.inflight {
                let origin = self.pick_origin();
                self.issue(origin, rec.now_ns(), Phase::WarmUp, rec);
                issued += 1;
            }
            self.pump(rec);
        }
    }

    /// Open loop for `duration_ns`; returns the snapshots at its two ends
    /// and the generator's lag. Broadcasts still in flight at the end are
    /// waited for (up to their deadline) before the phase returns.
    fn paced(&mut self, duration_ns: u64, rec: &mut Recorder) -> (Snap, Snap, Hist) {
        let first = self.snap(rec);
        let mut schedule = Schedule::new(rec.now_ns(), self.spec.paced_hz, duration_ns);
        let end_ns = first.at_ns + duration_ns;
        let mut last = None;
        loop {
            while let Some((_, due_ns)) = schedule.poll(rec.now_ns()) {
                let origin = self.pick_origin();
                for _ in 0..self.spec.burst {
                    self.issue(origin, due_ns, Phase::Paced, rec);
                }
            }
            self.pump(rec);
            if last.is_none() && rec.now_ns() >= end_ns {
                last = Some(self.snap(rec));
            }
            if let Some(last) = last.filter(|_| schedule.finished() && self.open.is_empty()) {
                return (first, last, schedule.lag_ns);
            }
        }
    }

    /// Closed loop for `duration_ns`; returns the snapshots at its two ends.
    /// In a traced run the counting allocator is on for the phase.
    fn saturate(&mut self, duration_ns: u64, traced: bool, rec: &mut Recorder) -> (Snap, Snap) {
        let first = self.snap(rec);
        let end_ns = first.at_ns + duration_ns;
        self.saturate_end_ns = end_ns;
        alloc::set_enabled(traced);
        let allocs_before = alloc::others();
        let mut last = None;
        loop {
            if rec.now_ns() < end_ns {
                while self.open.len() < self.spec.inflight {
                    let origin = self.pick_origin();
                    self.issue(origin, rec.now_ns(), Phase::Saturate, rec);
                }
            }
            self.pump(rec);
            if last.is_none() && rec.now_ns() >= end_ns {
                self.saturate_allocs = alloc::others().since(allocs_before);
                alloc::set_enabled(false);
                last = Some(self.snap(rec));
            }
            if let Some(last) = last.filter(|_| self.open.is_empty()) {
                return (first, last);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn run(
    spec: &'static LiveSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let limit = hyparview_net::reactor::raise_nofile_limit().unwrap_or(0);
    if limit < spec.min_nofile {
        return Err(format!(
            "open-file limit is {limit}, this workload needs {} ({} nodes: a listener each and \
             two connections per link end): raise `ulimit -n`",
            spec.min_nofile, spec.nodes
        ));
    }
    let base_fds = procfs::open_fds();

    let root = rec.enter("set_up");
    let started = rec.now_ns();
    let (mut session, report) = Session::set_up(spec, seed, rec)?;
    rec.exit(root);
    let root = rec.enter("warm_up");
    session.warm_up(rec);
    rec.exit(root);
    out.metrics.set("setup_s", (rec.now_ns() - started) as f64 / 1e9);
    let warm = session.counts[Phase::WarmUp as usize];
    if warm.complete != warm.bcasts {
        out.problems.push(format!(
            "warm-up: {} of {} broadcasts reached every node",
            warm.complete, warm.bcasts
        ));
    }

    // Paced and saturated in the ratio 10 : 8.
    let paced_ns = seconds * 1_000_000_000 * 5 / 9;
    let saturate_ns = seconds * 1_000_000_000 - paced_ns;
    let root = rec.enter("paced");
    let (paced_first, paced_last, lag_ns) = session.paced(paced_ns, rec);
    rec.exit(root);
    let root = rec.enter("saturate");
    let (sat_first, sat_last) = session.saturate(saturate_ns, traced, rec);
    rec.exit(root);

    // Everything in flight has been retired; let the last publishes land,
    // empty the channels once more, and take the closing counts.
    let root = rec.enter("shut_down");
    std::thread::sleep(Duration::from_millis(50));
    session.sweep(rec);
    let closing = session.snap(rec);
    let sample = &session.nodes[..spec.nodes.min(100)];
    let node_metrics_started = rec.now_ns();
    sample.iter().for_each(|node| drop(std::hint::black_box(node.metrics())));
    let node_metrics_ns = (rec.now_ns() - node_metrics_started) / sample.len() as u64;
    let gauges = session.cluster.reactor_metrics();
    let snaps = Snaps { paced_first, paced_last, sat_first, sat_last, closing };
    report_metrics(&session, &report, &snaps, &lag_ns, traced, base_fds, out);
    out.metrics.set("net.reactor.batch_max", gauge(&gauges, names::REACTOR_BATCH_MAX));
    out.metrics.set("net.reactor.outq_high_water", gauge(&gauges, names::REACTOR_OUTQ_HIGH_WATER));
    out.metrics
        .set("net.reactor.timer_lag_us_max", gauge(&gauges, names::REACTOR_TIMER_LAG_US_MAX));
    out.metrics.set("obsv.node_metrics_us", node_metrics_ns as f64 / 1e3);

    let started = rec.now_ns();
    drop(session);
    out.metrics.set("net.shutdown_s", (rec.now_ns() - started) as f64 / 1e9);
    rec.exit(root);
    Ok(())
}

fn gauge(registry: &hyparview_obsv::Registry, name: &str) -> f64 {
    registry.value_by_name(name).unwrap_or(0) as f64
}

/// The counters read at the four phase boundaries and after the last sweep.
struct Snaps {
    paced_first: Snap,
    paced_last: Snap,
    sat_first: Snap,
    sat_last: Snap,
    closing: Snap,
}

/// Turns what the session counted into the catalogue's metrics and runs the
/// output checks.
fn report_metrics(
    session: &Session,
    report: &SetupReport,
    snaps: &Snaps,
    lag_ns: &Hist,
    traced: bool,
    base_fds: usize,
    out: &mut Outcome,
) {
    let spec = session.spec;
    let Snaps { paced_first, paced_last, sat_first, sat_last, closing } = snaps;
    let m = &mut out.metrics;
    let nodes = spec.nodes as f64;
    let [_, paced, saturate] = session.counts;
    let measured = paced.bcasts + saturate.bcasts;
    let expected = measured as f64 * nodes;
    let delivered = (paced.delivered + saturate.delivered) as f64;
    out.attempted = measured;
    out.failed = measured - paced.complete - saturate.complete;
    let delivered_share = per(delivered, expected);
    let missed_share = 1.0 - delivered_share;
    // Saturate deltas of the nodes' own counters.
    let d = |f: fn(&NodeStats) -> u64| (f(&sat_last.stats) - f(&sat_first.stats)) as f64;
    let frames = d(|s| s.frames_sent);
    let counted = d(|s| s.deliveries);

    // ---- end to end --------------------------------------------------------
    m.set("delivered_share", delivered_share);
    m.set("frames_per_delivery", per(frames, counted));
    m.set("peak_rss_mb", procfs::peak_rss_mb());

    // ---- what a user sees, timed (per-layer: no bound) ---------------------
    let sat_wall_ns = (sat_last.at_ns - sat_first.at_ns) as f64;
    m.set("deliveries_per_s", per(session.saturate_deliveries as f64, sat_wall_ns / 1e9));
    m.set("bcast_latency_p50_ms", session.latency_ns.quantile(0.5) / 1e6);
    m.set("bcast_latency_p99_ms", session.latency_ns.quantile(0.99) / 1e6);
    m.set("net.bcast_reach_half_q1_ms", session.reach_half_ns.quantile(0.25) / 1e6);
    m.set("net.bcast_reach_most_q1_ms", session.reach_most_ns.quantile(0.25) / 1e6);
    m.set("missed_share", missed_share);
    out.latency_samples = session.latency_ns.count();
    if let Some(q) = crate::stats::highest_supported_quantile(session.latency_ns.count()) {
        out.latency_tail = Some((q, session.latency_ns.quantile(q) / 1e6));
    }

    // ---- net.reactor: saturate deltas --------------------------------------
    let kframes = frames / 1e3;
    let reactor = sat_last.reactor.since(&sat_first.reactor);
    let (user_us, sys_us) = reactor.cpu_us();
    let busy = |first: &Snap, last: &Snap| {
        1.0 - per(
            (last.epoll_wait_us - first.epoll_wait_us) as f64,
            (last.at_ns - first.at_ns) as f64 / 1e3,
        )
    };
    m.set("net.reactor.frames_per_s", per(frames, sat_wall_ns / 1e9));
    m.set("net.reactor.cpu_user_us_per_kframe", per(user_us, kframes));
    m.set("net.reactor.cpu_sys_us_per_kframe", per(sys_us, kframes));
    m.set("net.reactor.busy_share_paced", busy(paced_first, paced_last));
    m.set("net.reactor.busy_share_saturate", busy(sat_first, sat_last));
    m.set(
        "net.reactor.epoll_waits_per_kframe",
        per((sat_last.epoll_waits - sat_first.epoll_waits) as f64, kframes),
    );
    m.set(
        "net.reactor.timers_fired_per_bcast",
        per((sat_last.timers_fired - sat_first.timers_fired) as f64, saturate.bcasts as f64),
    );
    m.set("net.reactor.ctx_switches_per_kframe", per(reactor.ctx_switches as f64, kframes));
    if traced {
        let allocs = session.saturate_allocs;
        m.set("net.reactor.allocs_per_frame", per(allocs.allocs as f64, frames));
        m.set("net.reactor.alloc_bytes_per_frame", per(allocs.bytes as f64, frames));
    }
    m.set("net.reactor.fds_per_node", report.fds.saturating_sub(base_fds) as f64 / nodes);
    let measured_wall_ns = sat_last.at_ns - paced_first.at_ns;
    let reactor_run_delay =
        sat_last.reactor.since(&paced_first.reactor).run_delay_share(measured_wall_ns);
    m.set("net.reactor.run_delay_share", reactor_run_delay);

    // ---- net: set-up, calls, broadcast anatomy -----------------------------
    m.set("net.cluster_new_us", report.cluster_new_ns as f64 / 1e3);
    m.set("net.spawn_node_us", report.spawn_ns.mean() / 1e3);
    m.set("net.join_call_us", report.join_ns.mean() / 1e3);
    m.set("net.converge_s", report.converge_ns as f64 / 1e9);
    m.set("net.rejoins", report.rejoins as f64);
    m.set("net.broadcast_call_us_p50", session.call_ns.quantile(0.5) / 1e3);
    m.set("net.broadcast_call_us_p99", session.call_ns.quantile(0.99) / 1e3);
    m.set("net.stats_snapshot_us", session.stats_call_ns.mean() / 1e3);
    m.set("net.bcast_first_hop_ms", session.first_hop_ns.quantile(0.5) / 1e6);
    m.set("net.bcast_complete_p50_ms", session.complete_ns.quantile(0.5) / 1e6);
    m.set("net.bcast_hops_p50", session.hops.quantile(0.5).round());
    m.set("net.bcast_hops_max", session.hops.max() as f64);
    m.set("net.paced_rate_hz", spec.paced_hz * spec.burst as f64);

    // ---- frames by kind, saturate ------------------------------------------
    let sat_bcasts = saturate.bcasts as f64;
    m.set("net.frames.payload_per_delivery", per(d(|s| s.payload_frames_sent), counted));
    m.set("net.frames.ihave_per_bcast", per(d(|s| s.ihave_frames_sent), sat_bcasts));
    m.set("net.frames.ihave_batch_per_bcast", per(d(|s| s.ihave_batch_frames_sent), sat_bcasts));
    m.set(
        "net.frames.anns_per_batch",
        per(d(|s| s.ihave_batch_anns_sent), d(|s| s.ihave_batch_frames_sent)),
    );
    m.set("net.duplicates_per_delivery", per(d(|s| s.duplicates), counted));
    if spec.mode == BroadcastMode::Plumtree {
        let control = d(|s| s.ihave_frames_sent)
            + d(|s| s.ihave_batch_frames_sent)
            + (sat_last.grafts - sat_first.grafts) as f64
            + (sat_last.prunes - sat_first.prunes) as f64;
        m.set("plumtree.control_per_bcast", per(control, sat_bcasts));
        m.set(
            "plumtree.grafts_per_bcast",
            per((sat_last.grafts - sat_first.grafts) as f64, sat_bcasts),
        );
        m.set("plumtree.dead_letters", (closing.dead_letters - paced_first.dead_letters) as f64);
    }
    let drops = closing.stats.deliveries.saturating_sub(session.received);
    m.set("net.delivery_channel_drops", drops as f64);

    // ---- how far the numbers can be trusted --------------------------------
    m.set("harness.generator_lag_us_p99", lag_ns.quantile(0.99) / 1e3);
    m.set("harness.sweep_period_us_p99", session.sweep_ns.quantile(0.99) / 1e3);
    let driver_run_delay =
        sat_last.driver.since(&paced_first.driver).run_delay_share(measured_wall_ns);
    m.set("harness.driver_run_delay_share", driver_run_delay);
    out.run_delay_share = reactor_run_delay.max(driver_run_delay);

    // ---- output checks -----------------------------------------------------
    let mut check = |ok: bool, what: String| {
        if !ok {
            out.problems.push(what);
        }
    };
    check(
        closing.stats.mode_mismatched == 0,
        format!("{} mode-mismatched frames", closing.stats.mode_mismatched),
    );
    check(
        session.corrupt == 0,
        format!("{} deliveries failed the sequence/checksum check", session.corrupt),
    );
    check(session.duplicate == 0, format!("{} deliveries repeated on one node", session.duplicate));
    check(drops == 0, format!("{drops} deliveries dropped at a full delivery channel"));
    check(missed_share <= 0.001, format!("missed share {missed_share:.6} above 0.001"));
    check(paced.bcasts > 0 && saturate.bcasts > 0, "a measured phase issued no broadcast".into());
    out.notes.push(format!(
        "live traffic crossed the host loopback interface; {} nodes, {}-byte payloads, paced {} bcast/s \
         ({} issued), saturate {} in flight ({} issued), {} late deliveries",
        spec.nodes,
        spec.payload_len,
        spec.paced_hz * spec.burst as f64,
        paced.bcasts,
        spec.inflight,
        saturate.bcasts,
        session.late
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_carry_their_sequence_number_and_detect_damage() {
        let mut rng = Rng::new(9);
        for len in [64usize, 100, 8 * 1024] {
            let payload = make_payload(41, len, &mut rng);
            assert_eq!(payload.len(), len);
            assert_eq!(verify_payload(&payload, len), Some(41));
            assert_eq!(verify_payload(&payload[..len - 1], len), None, "truncated");
            let mut damaged = payload.clone();
            damaged[len - 1] ^= 1;
            assert_eq!(verify_payload(&damaged, len), None, "flipped body bit");
            let mut reordered = payload.clone();
            reordered.swap(HEADER, HEADER + 8);
            assert_eq!(verify_payload(&reordered, len), None, "the checksum depends on order");
        }
        assert_ne!(
            make_payload(1, 64, &mut rng),
            make_payload(1, 64, &mut rng),
            "bodies are drawn afresh"
        );
    }
}
