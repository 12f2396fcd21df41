//! Plumtree over HyParView: the broadcast-tree experiment this
//! reproduction adds on top of the paper's figures.
//!
//! The HyParView paper disseminates with an eager flood: every delivering
//! node forwards the payload to its whole active view, a Relative Message
//! Redundancy (RMR) near `fanout − 1`. The same authors' Plumtree work
//! carries a spanning tree over the same overlay instead: warm-up
//! broadcasts prune the redundant links to lazy ones, payloads traverse
//! about `N − 1` links (RMR ≈ 0), and `IHave`/`Graft` repair keeps the
//! flood's reliability under failures. Its §3.8 adds two adaptive
//! mechanisms: tree optimization (an `IHave` whose round beats the eager
//! delivery swaps the shorter path into the tree) and lazy-link batching
//! (announcements flush periodically as one `IHaveBatch` frame).
//!
//! One cell runner measures one strategy ([`STRATEGIES`]) under one
//! latency model ([`LATENCY_CASES`]), one per-link loss rate (duplication
//! at half of it) and one disturbance, in the same phase sequence:
//!
//! 1. **stable** — stabilize, carve the tree with [`WARMUP`] broadcasts
//!    from node 0, then measure in bursts of [`BURST`] with path tracing;
//! 2. **disturbed** — crash a fraction of the nodes, or split the overlay
//!    in two by index parity, and measure [`DISTURBED_MESSAGES`]
//!    broadcasts from a live origin;
//! 3. **heal** — run [`HEAL_CYCLES`] membership cycles after a crash, or
//!    heal the partition, then broadcast until delivery is atomic again
//!    (at most [`HEAL_ATTEMPTS`] times), dating `time_to_heal` with the
//!    causal path tracer;
//! 4. **healed** — re-carve with [`WARMUP`] broadcasts (the adaptation
//!    window where optimization reshapes the tree) and measure again.
//!
//! [`grid`] names the cells the experiment runs, in four slices:
//!
//! * `cost` — flood vs the static tree after 10%, 30% and 50% crashes;
//! * `adaptive` — optimization, batching and both at unit latency;
//! * `latency` — static vs optimized trees under uniform jitter, a
//!   uniform per-link geometry and a heavy-tailed one, where arrival order
//!   and round order disagree;
//! * `wan` — flood, static and adaptive trees under heavy-tailed per-link
//!   latency at 0%, 5% and 10% loss, through a partition and its heal.

use crate::parallel;
use crate::params::Params;
use hyparview_core::{Config, SimId};
use hyparview_obsv::{names, Histogram, Registry};
use hyparview_plumtree::{BroadcastMode, PlumtreeConfig};
use hyparview_sim::protocols::{build_hyparview, HyParViewSim};
use hyparview_sim::{FaultPlan, Latency};

/// Broadcasts from one origin that carve the tree before each measured
/// phase (irrelevant to the flood, applied to it for fairness).
pub const WARMUP: usize = 30;

/// Messages per concurrent burst in a measured phase: the workload where
/// batching can fold several announcements into one frame.
pub const BURST: usize = 4;

/// Broadcasts measured right after the disturbance.
pub const DISTURBED_MESSAGES: usize = 10;

/// Membership cycles a crashed overlay heals for (Figure 4's methodology).
pub const HEAL_CYCLES: usize = 5;

/// Broadcasts tried after the recovery step until one is atomic again.
pub const HEAL_ATTEMPTS: usize = 10;

/// One dissemination strategy: flood, or a Plumtree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strategy {
    /// Display label, the artifact's `variant`.
    pub label: &'static str,
    /// Flood or Plumtree dissemination.
    pub mode: BroadcastMode,
    /// Tree-optimization round threshold (`None` = off).
    pub optimization_threshold: Option<u32>,
    /// Lazy-flush interval in timer units (`0` = per-message `IHave`s).
    pub lazy_flush_interval: u64,
}

const fn tree(label: &'static str, threshold: Option<u32>, flush: u64) -> Strategy {
    Strategy {
        label,
        mode: BroadcastMode::Plumtree,
        optimization_threshold: threshold,
        lazy_flush_interval: flush,
    }
}

/// Every strategy, in display order: the robust-but-redundant flood, the
/// paper's static tree, and §3.8's optimization (round threshold 2),
/// batching (flush every 4 timer units) and both.
pub const STRATEGIES: [Strategy; 5] = [
    Strategy {
        label: "flood",
        mode: BroadcastMode::Flood,
        optimization_threshold: None,
        lazy_flush_interval: 0,
    },
    tree("static", None, 0),
    tree("optimized", Some(2), 0),
    tree("batched", None, 4),
    tree("adaptive", Some(2), 4),
];

/// One latency model, labeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyCase {
    /// Display label, the first part of a cell's label.
    pub label: &'static str,
    /// The latency model messages are scheduled under.
    pub latency: Latency,
}

/// Every latency model, in display order: the paper's unit latency, jitter
/// in `[1, 4]` per message, the same distribution drawn once per directed
/// link (a stable, asymmetric geometry that consumes no simulator
/// randomness), and a heavy-tailed per-link geometry (median 2, σ = 0.6).
pub const LATENCY_CASES: [LatencyCase; 4] = [
    LatencyCase { label: "fixed", latency: Latency::fixed(1) },
    LatencyCase { label: "uniform", latency: Latency::uniform(1, 4) },
    LatencyCase { label: "uniform-link", latency: Latency::uniform(1, 4).per_link() },
    LatencyCase { label: "lognormal-link", latency: Latency::log_normal(2, 600).per_link() },
];

/// What happens to the overlay between the stable and the healed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disturbance {
    /// This fraction of the nodes crashes.
    Crash(f64),
    /// The overlay splits into two halves by index parity: silent drops,
    /// so views keep spanning the cut.
    Partition,
}

/// Where a cell sits in the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coordinates {
    /// The slice of the grid the cell was added for.
    pub slice: &'static str,
    /// Dissemination strategy.
    pub strategy: Strategy,
    /// Latency model.
    pub latency: LatencyCase,
    /// Per-link loss probability; duplication runs at half of it.
    pub loss: f64,
    /// The disturbance between the stable and the healed phase.
    pub disturbance: Disturbance,
}

impl Coordinates {
    /// `<latency>.loss<N>.<crashN|partition>`: with the strategy, the
    /// cell's stable name in the artifact.
    pub fn label(&self) -> String {
        let disturbance = match self.disturbance {
            Disturbance::Crash(fraction) => format!("crash{}", percent(fraction)),
            Disturbance::Partition => "partition".to_owned(),
        };
        format!("{}.loss{}.{disturbance}", self.latency.label, percent(self.loss))
    }
}

fn percent(fraction: f64) -> u64 {
    (fraction * 100.0).round() as u64
}

/// The cells the experiment runs, slice by slice. No two share
/// coordinates.
pub fn grid() -> Vec<Coordinates> {
    let [flood, static_, optimized, batched, adaptive] = STRATEGIES;
    let [fixed, uniform, uniform_link, lognormal_link] = LATENCY_CASES;
    let crash30 = Disturbance::Crash(0.3);
    let at = |slice, strategy, latency, loss, disturbance| Coordinates {
        slice,
        strategy,
        latency,
        loss,
        disturbance,
    };
    let mut grid = Vec::new();
    for crash in [0.1, 0.3, 0.5] {
        for strategy in [flood, static_] {
            grid.push(at("cost", strategy, fixed, 0.0, Disturbance::Crash(crash)));
        }
    }
    for strategy in [optimized, batched, adaptive] {
        grid.push(at("adaptive", strategy, fixed, 0.0, crash30));
    }
    for latency in [uniform, uniform_link, lognormal_link] {
        for strategy in [static_, optimized] {
            grid.push(at("latency", strategy, latency, 0.0, crash30));
        }
    }
    for strategy in [flood, static_, adaptive] {
        for loss in [0.0, 0.05, 0.10] {
            grid.push(at("wan", strategy, lognormal_link, loss, Disturbance::Partition));
        }
    }
    grid
}

/// Broadcast metrics of one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseMetrics {
    /// Mean reliability over the measured broadcasts.
    pub mean_reliability: f64,
    /// Minimum per-broadcast reliability.
    pub min_reliability: f64,
    /// Mean Relative Message Redundancy (0 = perfect spanning tree,
    /// ≈ fanout − 1 for the flood).
    pub mean_rmr: f64,
    /// Mean last-delivery hop (deepest first delivery per broadcast).
    pub mean_last_hop: f64,
    /// Mean control frames (`IHave`/`IHaveBatch`/`Graft`/`Prune`) per
    /// broadcast.
    pub control_per_broadcast: f64,
    /// Mean payload transmissions per broadcast.
    pub payload_per_broadcast: f64,
}

/// Dissemination-path summary of one measured phase, folded from the
/// simulator's hop-provenance records. Everything here is a pure function
/// of the seed, so it belongs in the byte-identical results artifact.
#[derive(Debug, Clone, Default)]
pub struct PathSummary {
    /// Per-hop delivery latencies (child delivery time − parent delivery
    /// time, virtual units) across every measured broadcast.
    pub hop_latency: Histogram,
    /// Delivery depths (hops from the origin) across every broadcast.
    pub depth: Histogram,
    /// Branching factors of internal tree nodes across every broadcast.
    pub branching: Histogram,
    /// The first measured broadcast's dissemination tree, rendered as
    /// indented text (see [`hyparview_obsv::DisseminationTree::render`]).
    pub sample_tree: String,
}

/// The result of one cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Where the cell sits in the grid.
    pub at: Coordinates,
    /// Metrics on the intact overlay.
    pub stable: PhaseMetrics,
    /// Dissemination paths of the stable phase.
    pub stable_paths: PathSummary,
    /// Mean reliability of the broadcasts right after the disturbance.
    pub disturbed_reliability: f64,
    /// Broadcasts needed after the recovery step until delivery was atomic
    /// again.
    pub heal_broadcasts: u64,
    /// Virtual time from the recovery step to the last delivery of the
    /// broadcast that restored atomic delivery (via the path tracer).
    pub time_to_heal: u64,
    /// Whether delivery became atomic again within [`HEAL_ATTEMPTS`].
    pub converged: bool,
    /// Metrics after the overlay healed.
    pub healed: PhaseMetrics,
    /// Dissemination paths of the healed phase.
    pub healed_paths: PathSummary,
    /// Tree optimizations across the run (both trigger paths).
    pub optimizations: u64,
    /// Optimizations triggered by an `IHave` that lost the race against
    /// its payload, which unit latency cannot produce.
    pub late_optimizations: u64,
    /// `IHaveBatch` frames sent across the run.
    pub batches: u64,
    /// `Graft` repairs across the run.
    pub grafts: u64,
    /// Missing messages abandoned after exhausting graft retries.
    pub dead_letters: u64,
    /// Frames dropped by the loss model (`faults.dropped`).
    pub dropped: u64,
    /// Frames dropped at the partition boundary
    /// (`faults.partition_dropped`).
    pub partition_dropped: u64,
    /// Frames duplicated in flight (`faults.duplicated`).
    pub duplicated: u64,
    /// Simulator events processed across the cell's run.
    pub events: u64,
    /// Final metric-registry snapshot of the cell's simulation, deterministic
    /// per seed.
    pub metrics: Registry,
}

/// Disseminates `messages` broadcasts from `origin` in bursts of [`BURST`],
/// reconstructing every broadcast's dissemination tree from hop
/// provenance. Records are drained per burst, so memory stays bounded by
/// one burst whatever `messages` is.
pub(crate) fn measure(
    sim: &mut HyParViewSim,
    origin: SimId,
    messages: usize,
) -> (PhaseMetrics, PathSummary) {
    let mut reliability_sum = 0.0;
    let mut min_reliability = f64::INFINITY;
    let mut rmr_sum = 0.0;
    let mut hop_sum = 0.0;
    let mut control = 0usize;
    let mut payload = 0usize;
    let mut count = 0usize;
    let mut paths = PathSummary::default();
    sim.enable_path_tracing();
    sim.clear_path_records();
    // Honor `messages` exactly: full bursts plus a partial final burst.
    while count < messages.max(1) {
        let size = BURST.min(messages.max(1) - count);
        let burst = sim.broadcast_burst_from(origin, size);
        control += burst.control_frames;
        let tracer = sim.take_path_records();
        for report in &burst.reports {
            reliability_sum += report.reliability();
            min_reliability = min_reliability.min(report.reliability());
            rmr_sum += report.rmr();
            hop_sum += report.max_hops as f64;
            payload += report.sent;
            count += 1;
            if let Some(tree) = tracer.tree(report.id) {
                paths.hop_latency.merge(&tree.hop_latency_histogram());
                paths.depth.merge(&tree.depth_histogram());
                paths.branching.merge(&tree.branching_histogram());
                if paths.sample_tree.is_empty() {
                    paths.sample_tree = tree.render();
                }
            }
        }
    }
    let n = count as f64;
    let metrics = PhaseMetrics {
        mean_reliability: reliability_sum / n,
        min_reliability,
        mean_rmr: rmr_sum / n,
        mean_last_hop: hop_sum / n,
        control_per_broadcast: control as f64 / n,
        payload_per_broadcast: payload as f64 / n,
    };
    (metrics, paths)
}

fn warm_up(sim: &mut HyParViewSim, origin: SimId) {
    for _ in 0..WARMUP {
        sim.broadcast_from(origin);
    }
}

/// Runs one cell through the phase sequence of the module docs. Every
/// broadcast originates at node 0 while it lives, so last-delivery hop
/// tracks the depth of one tree.
fn run_cell(params: &Params, at: Coordinates) -> Cell {
    let latency = at.latency.latency;
    let strategy = at.strategy;
    let plumtree = PlumtreeConfig::default()
        .with_optimization_threshold(strategy.optimization_threshold)
        .with_lazy_flush_interval(strategy.lazy_flush_interval)
        .with_timeouts_for_max_latency(latency.max_hop());
    let scenario = params
        .scenario(0)
        .with_latency(latency)
        .with_broadcast_mode(strategy.mode)
        .with_plumtree(plumtree)
        .with_faults(FaultPlan::default().with_loss(at.loss).with_duplication(at.loss / 2.0));
    let mut sim = build_hyparview(&scenario, Config::paper());
    sim.run_cycles(params.stabilization_cycles);

    let mut origin = SimId::new(0);
    warm_up(&mut sim, origin);
    let (stable, stable_paths) = measure(&mut sim, origin, params.messages);

    match at.disturbance {
        Disturbance::Crash(fraction) => {
            sim.fail_fraction(fraction);
        }
        // A contiguous index split would be pathological: every node
        // joined through node 0, so its view holds the latest joiners and
        // a low/high cut isolates the origin from its entire view. Parity
        // spreads both halves uniformly across the overlay, like a WAN
        // split across two sites that peers were never placed by.
        Disturbance::Partition => {
            let (even, odd): (Vec<_>, Vec<_>) =
                sim.alive_ids().into_iter().partition(|id| id.index() % 2 == 0);
            sim.partition_network(&[even, odd]);
        }
    }
    if !sim.is_alive(origin) {
        origin = sim.alive_ids()[0];
    }
    let disturbed_reliability =
        (0..DISTURBED_MESSAGES).map(|_| sim.broadcast_from(origin).reliability()).sum::<f64>()
            / DISTURBED_MESSAGES as f64;

    // Recover and date it. Partition drops are silent, so both halves
    // still believe their cross-cut links are alive and the first
    // broadcasts flow over them; under loss one can still miss nodes, so
    // broadcasts repeat until one is atomic.
    let heal_time = sim.time();
    match at.disturbance {
        Disturbance::Crash(_) => sim.run_cycles(HEAL_CYCLES),
        Disturbance::Partition => sim.heal_partitions(),
    }
    sim.clear_path_records();
    let (mut heal_broadcasts, mut time_to_heal, mut converged) = (0, 0, false);
    while heal_broadcasts < HEAL_ATTEMPTS as u64 && !converged {
        let report = sim.broadcast_from(origin);
        heal_broadcasts += 1;
        let last_delivery = sim
            .take_path_records()
            .records()
            .iter()
            .filter(|r| r.msg == report.id)
            .map(|r| r.time)
            .max()
            .unwrap_or_else(|| sim.time());
        time_to_heal = last_delivery.saturating_sub(heal_time);
        converged = report.is_atomic();
    }

    warm_up(&mut sim, origin);
    let (healed, healed_paths) = measure(&mut sim, origin, params.messages);

    let stats = sim.plumtree_stats_total().unwrap_or_default();
    let count = |name: &str| sim.metrics().value_by_name(name).unwrap_or(0);
    Cell {
        at,
        stable,
        stable_paths,
        disturbed_reliability,
        heal_broadcasts,
        time_to_heal,
        converged,
        healed,
        healed_paths,
        optimizations: stats.optimizations,
        late_optimizations: stats.late_optimizations,
        batches: stats.ihave_batches_sent,
        grafts: stats.grafts_sent,
        dead_letters: stats.graft_dead_letters,
        dropped: count(names::FAULTS_DROPPED),
        partition_dropped: count(names::FAULTS_PARTITION_DROPPED),
        duplicated: count(names::FAULTS_DUPLICATED),
        events: sim.stats().events_processed,
        metrics: sim.metrics_snapshot(),
    }
}

/// The whole grid. The cells are independent simulations, fanned out over
/// [`parallel::sweep`] and returned in grid order. The experiment runs
/// one seed per cell, so `params.runs` is not read.
pub fn run(params: &Params) -> Vec<Cell> {
    let grid = grid();
    parallel::sweep(grid.len(), params.jobs, |i| run_cell(params, grid[i]))
}

/// The cell of `strategy` labeled `label` (see [`Coordinates::label`]).
///
/// # Panics
///
/// Panics if the grid has no such cell.
pub fn cell<'c>(cells: &'c [Cell], strategy: &str, label: &str) -> &'c Cell {
    cells
        .iter()
        .find(|c| c.at.strategy.label == strategy && c.at.label() == label)
        .unwrap_or_else(|| panic!("no {strategy} cell labeled {label}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit-latency, lossless cell of `strategy` after a 30% crash, on
    /// a quarter of the smoke overlay: the golden covers n = 200, this the
    /// same claims at n = 50.
    fn small_cell(strategy: &str) -> Cell {
        let params = Params::smoke().with_n(50).with_messages(8);
        let at = grid()
            .into_iter()
            .find(|at| at.strategy.label == strategy && at.label() == "fixed.loss0.crash30")
            .expect("a cost cell");
        run_cell(&params, at)
    }

    #[test]
    fn plumtree_beats_flood_on_stable_network() {
        let (flood, tree) = (small_cell("flood"), small_cell("static"));
        assert!(flood.stable.mean_reliability > 0.9999, "flood: {:?}", flood.stable);
        assert!(tree.stable.mean_reliability > 0.9999, "tree: {:?}", tree.stable);
        assert!(tree.stable.mean_rmr < 0.1, "a converged tree: {:?}", tree.stable);
        assert!(flood.stable.mean_rmr > 1.5, "the flood near fanout - 1: {:?}", flood.stable);
        assert!(
            tree.stable.payload_per_broadcast < flood.stable.payload_per_broadcast / 2.0,
            "tree {:?} vs flood {:?}",
            tree.stable,
            flood.stable
        );
    }

    #[test]
    fn plumtree_stays_reliable_after_failures() {
        let tree = small_cell("static");
        assert!(tree.disturbed_reliability > 0.95, "after a 30% crash: {tree:?}");
        assert!(tree.converged && tree.healed.mean_reliability > 0.9999, "{tree:?}");
    }

    #[test]
    fn rows_cover_failures_and_modes() {
        let grid = grid();
        assert_eq!(grid.len(), 24);
        let names: std::collections::HashSet<_> =
            grid.iter().map(|at| (at.strategy.label, at.label())).collect();
        assert_eq!(names.len(), grid.len(), "no two cells share coordinates");
        for (slice, cells) in [("cost", 6), ("adaptive", 3), ("latency", 6), ("wan", 9)] {
            assert_eq!(grid.iter().filter(|at| at.slice == slice).count(), cells, "{slice}");
        }
        assert_eq!(grid[0].label(), "fixed.loss0.crash10");
        assert_eq!(grid[23].label(), "lognormal-link.loss10.partition");
    }
}
