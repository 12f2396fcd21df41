//! The two simulator workloads. One busy thread; everything is a function of
//! the seed, so every count in the fingerprint must repeat exactly.

use crate::alloc;
use crate::procfs::{self, ThreadUsage};
use crate::span::{Recorder, NO_BCAST};
use crate::stats::{self, Hist};
use crate::{mix, Outcome};
use hyparview_core::Config;
use hyparview_graph::{connectivity, in_degrees, Overlay};
use hyparview_obsv::names;
use hyparview_sim::protocols::{build_hyparview, HyParViewSim};
use hyparview_sim::{
    run_churn, BroadcastMode, ChurnEpoch, ChurnPlan, FaultPlan, Latency, PlumtreeConfig, Scenario,
};
use std::fmt::Write as _;

/// Broadcasts per phase of `sim_flood_failures`, per second of `--seconds`:
/// 600 per phase at the benchmark's 20 s, set so that the window takes about
/// `--seconds` on the box the benchmark was defined on.
const FLOOD_BCASTS_PER_S: u64 = 30;
/// Churn epochs of `sim_plumtree_wan_churn` per 10 s of `--seconds`, set the
/// same way: 24 epochs of 30 broadcasts at 20 s.
const CHURN_EPOCHS_PER_10S: u64 = 12;
const BCASTS_PER_EPOCH: u64 = 30;
/// Broadcasts on each side of the tracing-on / tracing-off comparison.
const TRACE_COMPARE_BCASTS: usize = 60;

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct SetUp {
    sim: HyParViewSim,
    /// Exact counts after set-up: events, frames, a hash of every view.
    fingerprint: String,
    events: u64,
}

fn view_hash(sim: &HyParViewSim) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut feed = |value: u64| hash = (hash ^ value).wrapping_mul(0x0000_0100_0000_01B3);
    for view in sim.out_views() {
        match view {
            Some(view) => {
                feed(view.len() as u64);
                view.iter().for_each(|peer| feed(peer.index() as u64));
            }
            None => feed(u64::MAX),
        }
    }
    hash
}

/// Builds and stabilises the overlay and checks it, once: `setup_s` is the
/// time from here to the window being ready.
fn set_up(
    scenario: &Scenario,
    warmup_bcasts: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> SetUp {
    let root = rec.enter("set_up");
    let started = rec.now_ns();
    let (mut sim, build_ns) =
        rec.timed("sim.build", NO_BCAST, || build_hyparview(scenario, Config::default()));
    let cycles = scenario.stabilization_cycles;
    let ((), stabilise_ns) = rec.timed("sim.stabilise", NO_BCAST, || sim.run_cycles(cycles));
    rec.timed("sim.warm_up_broadcasts", NO_BCAST, || {
        for _ in 0..warmup_bcasts {
            sim.broadcast_random();
        }
    });

    let (overlay, overlay_ns) = rec.timed("graph.overlay_new", NO_BCAST, || {
        let views = sim.out_views().into_iter();
        Overlay::new(
            views.map(|v| v.map(|ids| ids.iter().map(|id| id.index()).collect())).collect(),
        )
    });
    let (report, connectivity_ns) =
        rec.timed("graph.connectivity", NO_BCAST, || connectivity(&overlay));
    let (in_edges, in_degrees_ns) =
        rec.timed("graph.in_degrees", NO_BCAST, || in_degrees(&overlay).iter().sum::<usize>());
    if !report.is_connected() || in_edges != overlay.edge_count() {
        out.problems.push("the stabilised overlay is not one component".into());
    }
    let seconds = (rec.now_ns() - started) as f64 / 1e9;
    rec.exit(root);

    let m = &mut out.metrics;
    m.set("setup_s", seconds);
    m.set("sim.build_s", build_ns as f64 / 1e9);
    m.set("sim.stabilise_s_per_cycle", stabilise_ns as f64 / 1e9 / cycles.max(1) as f64);
    m.set("graph.overlay_new_ms", overlay_ns as f64 / 1e6);
    m.set("graph.connectivity_ms", connectivity_ns as f64 / 1e6);
    m.set("graph.in_degrees_ms", in_degrees_ns as f64 / 1e6);
    let events = sim.stats().events_processed;
    let frames = sim.metrics().value_by_name(names::FRAMES_SENT).unwrap_or(0);
    SetUp {
        fingerprint: format!(
            "setup_events={events};setup_frames={frames};views={:016x}",
            view_hash(&sim)
        ),
        sim,
        events,
    }
}

// ---------------------------------------------------------------------------
// Measured broadcasts
// ---------------------------------------------------------------------------

/// Sums over the broadcasts of one phase.
#[derive(Default, Clone, Copy)]
struct Tally {
    bcasts: u64,
    delivered: u64,
    expected: u64,
    redundant: u64,
    control: u64,
    max_hops: u32,
    /// Broadcasts that reached fewer nodes than the phase's bar.
    failed: u64,
    ns: u64,
}

impl Tally {
    fn reliability(&self) -> f64 {
        self.delivered as f64 / self.expected.max(1) as f64
    }

    fn mean_us(&self) -> f64 {
        self.ns as f64 / 1e3 / self.bcasts.max(1) as f64
    }

    fn add(&mut self, other: &Tally) {
        self.bcasts += other.bcasts;
        self.delivered += other.delivered;
        self.expected += other.expected;
        self.redundant += other.redundant;
        self.control += other.control;
        self.max_hops = self.max_hops.max(other.max_hops);
        self.failed += other.failed;
        self.ns += other.ns;
    }

    fn fingerprint(&self, phase: &str, text: &mut String) {
        write!(
            text,
            ";{phase}={}/{}/{}/{}/{}",
            self.delivered, self.expected, self.redundant, self.control, self.max_hops
        )
        .expect("write to String");
    }
}

/// Counters read when the window opens and when it closes.
#[derive(Clone, Copy)]
struct Counters {
    at_ns: u64,
    events: u64,
    membership: u64,
    failure_notifications: u64,
    frames: u64,
    faults_dropped: u64,
    faults_duplicated: u64,
    grafts: u64,
    dead_letters: u64,
    driver: ThreadUsage,
}

impl Counters {
    fn read(sim: &HyParViewSim, rec: &Recorder) -> Counters {
        let stats = sim.stats();
        let registry = sim.metrics();
        let value = |name| registry.value_by_name(name).unwrap_or(0);
        let plumtree = sim.plumtree_stats_total().unwrap_or_default();
        Counters {
            at_ns: rec.now_ns(),
            events: stats.events_processed,
            membership: stats.membership_delivered,
            failure_notifications: stats.failure_notifications,
            frames: value(names::FRAMES_SENT),
            faults_dropped: value(names::FAULTS_DROPPED),
            faults_duplicated: value(names::FAULTS_DUPLICATED),
            grafts: plumtree.grafts_sent,
            dead_letters: plumtree.graft_dead_letters,
            driver: procfs::current_tid().map(ThreadUsage::read).unwrap_or_default(),
        }
    }

    /// What was counted since `earlier`.
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            at_ns: self.at_ns - earlier.at_ns,
            events: self.events - earlier.events,
            membership: self.membership - earlier.membership,
            failure_notifications: self.failure_notifications - earlier.failure_notifications,
            frames: self.frames - earlier.frames,
            faults_dropped: self.faults_dropped - earlier.faults_dropped,
            faults_duplicated: self.faults_duplicated - earlier.faults_duplicated,
            grafts: self.grafts - earlier.grafts,
            dead_letters: self.dead_letters - earlier.dead_letters,
            driver: self.driver.since(&earlier.driver),
        }
    }
}

/// The measured window: what was counted when it opened and the wall time
/// of every broadcast in it. In a traced run the counting allocator is on
/// from `open` to `close`.
struct Window {
    set_up_events: u64,
    set_up_fingerprint: String,
    opened: Counters,
    allocs_opened: alloc::Counts,
    call_ns: Hist,
    seq: u64,
}

/// `count` random-origin broadcasts, each to quiescence. A broadcast that
/// reaches less than `bar` of the alive nodes counts as failed.
fn broadcasts(
    sim: &mut HyParViewSim,
    count: u64,
    bar: f64,
    window: &mut Window,
    rec: &mut Recorder,
) -> Tally {
    let mut tally = Tally::default();
    for _ in 0..count {
        let (report, ns) = rec.timed("sim.broadcast", window.seq, || sim.broadcast_random());
        window.seq += 1;
        window.call_ns.record(ns);
        tally.bcasts += 1;
        tally.delivered += report.delivered as u64;
        tally.expected += report.alive as u64;
        tally.redundant += report.redundant as u64;
        tally.control += report.control as u64;
        tally.max_hops = tally.max_hops.max(report.max_hops);
        tally.failed += u64::from((report.delivered as f64) < bar * report.alive as f64);
        tally.ns += ns;
    }
    tally
}

impl Window {
    fn open(
        sim: &HyParViewSim,
        set_up_events: u64,
        set_up_fingerprint: String,
        traced: bool,
        rec: &Recorder,
    ) -> Window {
        alloc::set_enabled(traced);
        Window {
            set_up_events,
            set_up_fingerprint,
            opened: Counters::read(sim, rec),
            allocs_opened: alloc::driver(),
            call_ns: Hist::new(),
            seq: 0,
        }
    }

    /// Closes the window and reports everything the two workloads report
    /// alike; returns the phases' total and what the window counted.
    fn close(
        self,
        sim: &mut HyParViewSim,
        phases: &[(&str, Tally)],
        traced: bool,
        rec: &mut Recorder,
        out: &mut Outcome,
    ) -> (Tally, Counters) {
        let counted = Counters::read(sim, rec).since(&self.opened);
        let allocs = alloc::driver().since(self.allocs_opened);
        alloc::set_enabled(false);
        let window = self;
        let mut total = Tally::default();
        phases.iter().for_each(|(_, tally)| total.add(tally));
        let wall_ns = counted.at_ns;
        let wall_s = wall_ns as f64 / 1e9;
        let events = counted.events;
        let bcasts = total.bcasts as f64;

        let m = &mut out.metrics;
        m.set("delivered_share", total.reliability());
        m.set("missed_share", 1.0 - total.reliability());
        m.set("frames_per_delivery", counted.frames as f64 / total.delivered.max(1) as f64);
        m.set("peak_rss_mb", procfs::peak_rss_mb());
        // One thread makes one broadcast at a time, so the simulator's
        // latency is the wall time of a call, issue to quiescence.
        m.set("deliveries_per_s", total.delivered as f64 / wall_s);
        m.set("bcast_latency_p50_ms", window.call_ns.quantile(0.5) / 1e6);
        m.set("bcast_latency_p99_ms", window.call_ns.quantile(0.99) / 1e6);
        out.latency_samples = window.call_ns.count();
        if let Some(q) = stats::highest_supported_quantile(window.call_ns.count()) {
            out.latency_tail = Some((q, window.call_ns.quantile(q) / 1e6));
        }

        m.set("sim.bcasts_per_s", bcasts / wall_s);
        m.set("sim.events_per_s", events as f64 / wall_s);
        m.set("sim.events_per_bcast", events as f64 / bcasts);
        m.set("sim.bcast_us", total.mean_us());
        m.set("core.msgs_per_bcast", counted.membership as f64 / bcasts);
        m.set(
            "gossip.redundant_per_delivery",
            total.redundant as f64 / total.delivered.max(1) as f64,
        );
        m.set("sim.faults_dropped", counted.faults_dropped as f64);
        m.set("sim.faults_duplicated", counted.faults_duplicated as f64);
        if traced {
            m.set("sim.allocs_per_event", allocs.allocs as f64 / events.max(1) as f64);
            m.set("sim.alloc_bytes_per_event", allocs.bytes as f64 / events.max(1) as f64);
        }
        let driver_delay = counted.driver.run_delay_share(wall_ns);
        m.set("harness.driver_run_delay_share", driver_delay);
        out.run_delay_share = driver_delay;
        let (snapshot, snapshot_ns) =
            rec.timed("obsv.node_metrics", NO_BCAST, || sim.metrics_snapshot());
        m.set("obsv.node_metrics_us", snapshot_ns as f64 / 1e3);
        std::hint::black_box(snapshot);

        out.attempted = total.bcasts;
        out.failed = total.failed;
        out.window_ns = wall_ns;

        let mut fingerprint = format!(
            "{};window_events={events};window_frames={}",
            window.set_up_fingerprint, counted.frames
        );
        phases.iter().for_each(|(name, tally)| tally.fingerprint(name, &mut fingerprint));
        write!(
            fingerprint,
            ";alive={};faults={}/{};grafts={}/{}",
            sim.alive_count(),
            counted.faults_dropped,
            counted.faults_duplicated,
            counted.grafts,
            counted.dead_letters
        )
        .expect("write to String");
        out.fingerprint = Some(fingerprint);
        out.notes.push(format!(
            "{} broadcasts, {events} events in {wall_s:.3} s (set-up processed {} events)",
            total.bcasts, window.set_up_events
        ));
        (total, counted)
    }
}

/// ROADMAP aim 4(e): what the simulator's own decision and path tracing cost
/// when switched on. Tracing cannot be switched off again, so this runs
/// after the window, on the overlay the window left: first with both off,
/// then with both on.
fn trace_on_overhead(sim: &mut HyParViewSim, rec: &mut Recorder) -> f64 {
    let open = rec.enter("sim.trace_compare");
    let timed = |sim: &mut HyParViewSim| {
        let started = rec.now_ns();
        let before = sim.stats().events_processed;
        for k in 0..TRACE_COMPARE_BCASTS {
            sim.broadcast_random();
            if k % 10 == 9 {
                sim.clear_path_records();
            }
        }
        (rec.now_ns() - started) as f64 / (sim.stats().events_processed - before).max(1) as f64
    };
    let off = timed(sim);
    sim.enable_tracing(65_536);
    sim.enable_path_tracing();
    let on = timed(sim);
    rec.exit(open);
    on / off - 1.0
}

// ---------------------------------------------------------------------------
// sim_flood_failures
// ---------------------------------------------------------------------------

/// The Figure-2 cell ROADMAP names as the simulator headline: 10,000 nodes,
/// paper configuration, flood, unit latency, half the nodes crashed at once.
pub fn flood_failures(
    seed: u64,
    seconds: u64,
    traced: bool,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let scenario = Scenario::new(10_000, seed).with_latency(Latency::fixed(1));
    let SetUp { mut sim, events: set_up_events, fingerprint } = set_up(&scenario, 0, rec, out);

    let count = FLOOD_BCASTS_PER_S * seconds;
    let root = rec.enter("window");
    let mut window = Window::open(&sim, set_up_events, fingerprint, traced, rec);
    let stable = broadcasts(&mut sim, count, 1.0, &mut window, rec);
    let (crashed, fail_fraction_ns) =
        rec.timed("sim.fail_fraction", NO_BCAST, || sim.fail_fraction(0.5).len());
    // No membership cycle in between: the paper's method. Repair runs on
    // the failure notifications the first broadcasts trigger.
    let post_crash = broadcasts(&mut sim, count, 0.99, &mut window, rec);
    rec.timed("sim.heal_cycles", NO_BCAST, || sim.run_cycles(10));
    let healed = broadcasts(&mut sim, count, 1.0, &mut window, rec);
    let phases = [("stable", stable), ("post_crash", post_crash), ("healed", healed)];
    let (total, counted) = window.close(&mut sim, &phases, traced, rec, out);
    rec.exit(root);

    let m = &mut out.metrics;
    m.set("sim.bcast_us_stable", stable.mean_us());
    m.set("sim.bcast_us_post_crash", post_crash.mean_us());
    m.set("sim.bcast_us_healed", healed.mean_us());
    m.set("sim.fail_fraction_ms", fail_fraction_ns as f64 / 1e6);
    m.set("sim.post_crash_reliability", post_crash.reliability());
    if traced {
        let root = rec.enter("trace_compare");
        m.set("sim.trace_on_overhead_share", trace_on_overhead(&mut sim, rec));
        rec.exit(root);
    }

    for (name, tally) in [("stable", stable), ("healed", healed)] {
        if tally.delivered != tally.expected {
            out.problems
                .push(format!("{name}: {} of {} deliveries", tally.delivered, tally.expected));
        }
    }
    if post_crash.reliability() < 0.99 {
        out.problems
            .push(format!("post_crash reliability {:.4} below 0.99", post_crash.reliability()));
    }
    if crashed != 5_000 {
        out.problems.push(format!("{crashed} nodes crashed, 5000 expected"));
    }

    let increments = 2 * counted.events + counted.frames;
    out.budget = vec![
        ("sim", "sim.queue_unit_ns_per_event", counted.events, "events pushed and popped"),
        ("gossip", "gossip.deliver_first_ns", total.delivered, "first deliveries"),
        ("gossip", "gossip.deliver_dup_ns", total.redundant, "redundant receipts"),
        ("core", "core.broadcast_targets_ns", total.delivered, "forwards, one per first delivery"),
        ("core", "core.on_peer_failed_ns", counted.failure_notifications, "failure notifications"),
        (
            "core",
            "core.handle_neighbor_ns",
            counted.membership,
            "membership messages (as Neighbor)",
        ),
        (
            "obsv",
            "obsv.counter_inc_ns",
            increments,
            "counter increments (~2 per event, 1 per frame)",
        ),
    ];
    Ok(())
}

// ---------------------------------------------------------------------------
// sim_plumtree_wan_churn
// ---------------------------------------------------------------------------

/// The same `sim` layer used differently: heavy-tailed per-link latency
/// (overflow heap), adaptive Plumtree (timers, grafts), a fault draw per
/// frame, and crashes and joins inside the window.
pub fn plumtree_wan_churn(
    seed: u64,
    seconds: u64,
    traced: bool,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let latency = Latency::log_normal(2, 600).per_link();
    let plumtree = PlumtreeConfig::default()
        .with_optimization_threshold(Some(2))
        .with_lazy_flush_interval(2)
        .with_timeouts_for_max_latency(latency.max_hop());
    let scenario = Scenario::new(5_000, seed)
        .with_broadcast_mode(BroadcastMode::Plumtree)
        .with_plumtree(plumtree)
        .with_latency(latency)
        .with_faults(FaultPlan::default().with_loss(0.05).with_duplication(0.025))
        .with_stabilization_cycles(30);
    let SetUp { mut sim, events: set_up_events, fingerprint } = set_up(&scenario, 20, rec, out);

    let epochs = (CHURN_EPOCHS_PER_10S * seconds).div_ceil(10);
    let epoch = ChurnEpoch { crash_fraction: 0.01, joins: 50, revivals: 0, cycles: 1, probes: 0 };
    let plan = ChurnPlan::new().epoch(epoch);
    let mut churned = Tally::default();
    let mut churn_ns = 0u64;
    let root = rec.enter("window");
    let mut window = Window::open(&sim, set_up_events, fingerprint, traced, rec);
    for e in 0..epochs {
        let churn_seed = mix(seed, 0xC4_0000 + e);
        churn_ns +=
            rec.timed("sim.churn_epoch", NO_BCAST, || run_churn(&mut sim, &plan, churn_seed)).1;
        // The bar the repository's own churn property test sets under
        // heavy-tailed latency.
        churned.add(&broadcasts(&mut sim, BCASTS_PER_EPOCH, 0.95, &mut window, rec));
    }
    let (total, counted) = window.close(&mut sim, &[("churn", churned)], traced, rec, out);
    rec.exit(root);

    let m = &mut out.metrics;
    let bcasts = total.bcasts as f64;
    m.set("sim.churn_epoch_ms", churn_ns as f64 / 1e6 / epochs as f64);
    m.set("plumtree.control_per_bcast", total.control as f64 / bcasts);
    m.set("plumtree.grafts_per_bcast", counted.grafts as f64 / bcasts);
    m.set("plumtree.dead_letters", counted.dead_letters as f64);
    if traced {
        let root = rec.enter("trace_compare");
        m.set("sim.trace_on_overhead_share", trace_on_overhead(&mut sim, rec));
        rec.exit(root);
    }
    if total.reliability() < 0.95 {
        out.problems.push(format!("reliability under churn {:.4} below 0.95", total.reliability()));
    }

    let increments = 2 * counted.events + counted.frames;
    out.budget = vec![
        ("sim", "sim.queue_tail_ns_per_event", counted.events, "events pushed and popped"),
        ("plumtree", "plumtree.gossip_first_ns", total.delivered, "first payload receipts"),
        ("plumtree", "plumtree.gossip_dup_ns", total.redundant, "redundant payload receipts"),
        ("plumtree", "plumtree.ihave_ns", total.control, "control frames (as IHave)"),
        ("plumtree", "plumtree.graft_ns", counted.grafts, "grafts"),
        ("core", "core.handle_shuffle_ns", counted.membership, "membership messages (as Shuffle)"),
        (
            "obsv",
            "obsv.counter_inc_ns",
            increments,
            "counter increments (~2 per event, 1 per frame)",
        ),
    ];
    Ok(())
}
