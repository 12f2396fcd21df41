//! The paper's evaluation (§5): one cell type, one runner, nine slices.
//!
//! Every figure and table of §5 follows one procedure: nodes join one by
//! one, the overlay runs its membership cycles, a fraction of the nodes
//! crashes, and broadcasts count who delivers. A [`Cell`] names one such
//! simulation by its coordinates and [`run_cell`] runs it. Each experiment
//! of the evaluation is a [`Slice`]: the cells it reads, rendered by
//! `report.rs`. [`grid`] joins the slices of one invocation so that each
//! distinct cell runs once, and [`run`] spreads the grid over `--jobs`
//! workers. A slice that reads fewer broadcasts than a cell ran reads a
//! prefix of its reports, which is exact: each broadcast drains to
//! quiescence and only the next origin draw comes between two.

use crate::parallel;
use crate::params::Params;
use hyparview_core::Config;
use hyparview_gossip::{BroadcastReport, HyParViewMembership, ReliabilitySummary};
use hyparview_graph::{
    clustering_coefficient, connectivity, indegree_report, shortest_path_stats, IndegreeReport,
    Overlay,
};
use hyparview_sim::protocols::ProtocolKind::{self, Cyclon, CyclonAcked, HyParView, Scamp};
use hyparview_sim::{AnySim, Scenario};

/// Broadcasts per healing probe, per the paper (§5.3).
pub const PROBES_PER_CYCLE: usize = 10;

/// Membership cycles a heal cell runs at most.
pub const MAX_HEAL_CYCLES: usize = 60;

/// BFS sources sampled for Table 1's average shortest path.
pub const PATH_SAMPLES: usize = 100;

/// Figure 2's failure levels (10%–95%).
pub const FIG2_FAILURES: [f64; 11] =
    [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95];

/// Figure 3's failure levels, one panel each.
pub const FIG3_FAILURES: [f64; 6] = [0.20, 0.40, 0.60, 0.70, 0.80, 0.95];

/// Figure 4's failure levels.
pub const FIG4_FAILURES: [f64; 9] = [0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90];

/// The protocols Figure 4 heals (the paper omits Scamp: its healing is
/// governed by the lease period).
pub const FIG4_PROTOCOLS: [ProtocolKind; 3] = [HyParView, CyclonAcked, Cyclon];

/// One simulation of the evaluation, by its coordinates. Slices that ask
/// for equal cells share one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Which of the four protocols.
    pub kind: ProtocolKind,
    /// The HyParView configuration (the other protocols run their paper
    /// configurations; see [`AnySim::build`]).
    pub hyparview: Config,
    /// HyParView forwards to a random `fanout` of its active view instead
    /// of flooding it (the §5.5 ablation).
    pub random_fanout: bool,
    /// Gossip fanout of the scenario.
    pub fanout: usize,
    /// Fraction of the nodes crashed after stabilization.
    pub failure: f64,
    /// Whether the cell measures healing (Figure 4).
    pub heal: bool,
}

impl Cell {
    /// `kind` with the paper's configurations at `params.fanout`, stable.
    pub fn new(params: &Params, kind: ProtocolKind) -> Cell {
        let (hyparview, fanout, failure) = (Config::paper(), params.fanout, 0.0);
        Cell { kind, hyparview, random_fanout: false, fanout, failure, heal: false }
    }

    /// HyParView running `config` at `params.fanout`, stable.
    pub fn hyparview(params: &Params, config: Config) -> Cell {
        Cell { hyparview: config, ..Cell::new(params, HyParView) }
    }

    /// Figure 1's cell of `kind` at `fanout`: HyParView's active view
    /// becomes `fanout + 1` (§4.1) at the paper's 6× passive ratio.
    pub fn fig1(params: &Params, kind: ProtocolKind, fanout: usize) -> Cell {
        let active = Config::default().with_active_capacity(fanout + 1);
        let config = active.with_passive_capacity(((fanout + 1) * 6).max(6));
        let cell = if kind == HyParView {
            Cell::hyparview(params, config)
        } else {
            Cell::new(params, kind)
        };
        Cell { fanout, ..cell }
    }

    /// This cell after crashing `failure` of the nodes.
    pub fn failing(self, failure: f64) -> Cell {
        Cell { failure, ..self }
    }
}

/// One experiment of the evaluation: which cells it reads, and how much
/// of each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Figure 1a/1b: Cyclon, Scamp and HyParView × fanouts 1–8, stable.
    Fig1,
    /// Figure 1c: Cyclon and Scamp after 50% failures.
    Fig1c,
    /// Figure 2: every protocol × [`FIG2_FAILURES`].
    Fig2,
    /// Figure 3: every protocol × [`FIG3_FAILURES`], message by message.
    Fig3,
    /// Figure 4: [`FIG4_PROTOCOLS`] × [`FIG4_FAILURES`], healing.
    Fig4,
    /// Figure 5: every protocol, stable.
    Fig5,
    /// Table 1: every protocol, stable.
    Table1,
    /// §3.1's overhead: every protocol × fanouts 4–6, stable.
    Overhead,
    /// §5.5 and §6: HyParView variants ([`ablations`]).
    Ablations,
}

/// The slices of `hpv-bench all`, in its order.
pub const ALL: [Slice; 7] =
    [Slice::Fig1, Slice::Fig1c, Slice::Fig2, Slice::Fig3, Slice::Fig4, Slice::Table1, Slice::Fig5];

impl Slice {
    /// The cells this slice reads, in display order.
    pub fn cells(self, params: &Params) -> Vec<Cell> {
        let grid = |kinds: &[ProtocolKind], failures: &[f64]| -> Vec<Cell> {
            let cell = |&f| kinds.iter().map(move |&kind| Cell::new(params, kind).failing(f));
            failures.iter().flat_map(cell).collect()
        };
        match self {
            Slice::Fig1 => [Cyclon, Scamp, HyParView]
                .iter()
                .flat_map(|&kind| (1..=8).map(move |fanout| Cell::fig1(params, kind, fanout)))
                .collect(),
            Slice::Fig1c => grid(&[Cyclon, Scamp], &[0.5]),
            Slice::Fig2 => grid(&ProtocolKind::ALL, &FIG2_FAILURES),
            Slice::Fig3 => grid(&ProtocolKind::ALL, &FIG3_FAILURES),
            Slice::Fig4 => grid(&FIG4_PROTOCOLS, &FIG4_FAILURES)
                .into_iter()
                .map(|cell| Cell { heal: true, ..cell })
                .collect(),
            Slice::Fig5 | Slice::Table1 => grid(&ProtocolKind::ALL, &[0.0]),
            Slice::Overhead => grid(&ProtocolKind::ALL, &[0.0])
                .into_iter()
                .flat_map(|cell| [4, 5, 6].map(|fanout| Cell { fanout, ..cell.clone() }))
                .collect(),
            Slice::Ablations => {
                ablations(params).into_iter().flat_map(|s| s.1).map(|r| r.1).collect()
            }
        }
    }

    /// Broadcasts this slice reads per cell after the crash: the paper's
    /// 50 for Figure 1 and Table 1, its 100 for Figure 1c and the
    /// overhead, one probe on a heal cell.
    pub fn broadcasts(self, params: &Params) -> usize {
        match self {
            Slice::Fig1 | Slice::Table1 => params.messages.min(50),
            Slice::Fig1c | Slice::Overhead => params.messages.min(100),
            Slice::Fig2 | Slice::Fig3 | Slice::Ablations => params.messages,
            Slice::Fig4 => PROBES_PER_CYCLE,
            Slice::Fig5 => 0,
        }
    }

    /// `cell` as this slice reads it: the four reliability figures merge
    /// `params.runs` runs, the other slices read run 0.
    pub fn key(self, params: &Params, cell: Cell) -> Key {
        let merges = matches!(self, Slice::Fig1 | Slice::Fig1c | Slice::Fig2 | Slice::Fig3);
        let runs = if merges { params.runs } else { 1 };
        let overlay = matches!(self, Slice::Fig5 | Slice::Table1);
        Key { cell, runs, broadcasts: self.broadcasts(params), overlay }
    }
}

/// The ablation table: titled sections of labeled HyParView cells.
pub fn ablations(params: &Params) -> Vec<(&'static str, Vec<(String, Cell)>)> {
    let row = |label: String, config: Config, failure| {
        (label, Cell::hyparview(params, config).failing(failure))
    };
    let passive = [1, 5, 10, 20, 30, 60].map(|size| {
        row(format!("passive={size}"), Config::default().with_passive_capacity(size), 0.8)
    });
    let flood = row("flood (paper)".to_owned(), Config::default(), 0.5);
    let random = (
        format!("random fanout={}", params.fanout),
        Cell { random_fanout: true, ..flood.1.clone() },
    );
    let walks = [(6, 3), (3, 1), (1, 1), (10, 5)].map(|(arwl, prwl)| {
        let config = Config::default().with_arwl(arwl).with_prwl(prwl);
        row(format!("ARWL={arwl} PRWL={prwl}"), config, 0.6)
    });
    let payloads = [(3, 4), (1, 1), (0, 7), (6, 8)].map(|(ka, kp)| {
        let config = Config::default().with_shuffle_active(ka).with_shuffle_passive(kp);
        row(format!("ka={ka} kp={kp}"), config, 0.6)
    });
    vec![
        ("Passive view size vs resilience at 80% failures (§6 future work)", passive.to_vec()),
        ("Deterministic flood vs random fanout at 50% failures (§5.5)", vec![flood, random]),
        ("Join walk lengths (ARWL/PRWL) at 60% failures", walks.to_vec()),
        ("Shuffle payload (ka/kp) at 60% failures", payloads.to_vec()),
    ]
}

/// A cell of the grid with how much of it the slices read.
#[derive(Debug, Clone, PartialEq)]
pub struct Key {
    /// The cell.
    pub cell: Cell,
    /// Runs to execute (seeds `params.scenario(0..runs)`).
    pub runs: usize,
    /// Broadcasts to send after the crash.
    pub broadcasts: usize,
    /// Whether to snapshot the stabilized overlay.
    pub overlay: bool,
}

/// The union of `slices`' cells: each distinct cell once, in the order it
/// is first asked for, with all that any slice reads of it.
pub fn grid(params: &Params, slices: &[Slice]) -> Vec<Key> {
    let mut grid: Vec<Key> = Vec::new();
    for &slice in slices {
        for key in slice.cells(params).into_iter().map(|cell| slice.key(params, cell)) {
            match grid.iter_mut().find(|k| k.cell == key.cell) {
                Some(k) => {
                    k.runs = k.runs.max(key.runs);
                    k.broadcasts = k.broadcasts.max(key.broadcasts);
                    k.overlay |= key.overlay;
                }
                None => grid.push(key),
            }
        }
    }
    grid
}

/// A stable overlay's graph properties (Figure 5, Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct OverlaySnapshot {
    /// In-degree histogram and summary.
    pub indegree: IndegreeReport,
    /// Average clustering coefficient.
    pub clustering: f64,
    /// Average shortest path over [`PATH_SAMPLES`] BFS sources.
    pub avg_shortest_path: f64,
    /// Whether the overlay is connected.
    pub connected: bool,
    /// Mean out-view size.
    pub mean_view: f64,
}

/// A heal cell's probes (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Healing {
    /// Probe reliability before the crash.
    pub baseline: f64,
    /// Probe reliability after each cycle (index 0 = before any cycle).
    pub probes: Vec<f64>,
}

impl Healing {
    /// Cycles run until a probe regained `share` of the baseline (`None`:
    /// not within [`MAX_HEAL_CYCLES`]). At extreme failure rates a few
    /// survivors are left with empty active *and* all-dead passive views,
    /// which no protocol step rescues, so Figure 4 also reads 99.5%.
    pub fn cycles(&self, share: f64) -> Option<usize> {
        self.probes.iter().position(|&r| r >= self.baseline * share)
    }
}

/// What one run of one cell measured.
#[derive(Debug, Clone)]
pub struct Run {
    /// The stabilized overlay, where a slice reads it.
    pub overlay: Option<OverlaySnapshot>,
    /// View accuracy (§2.3) right after the crash.
    pub accuracy_before: f64,
    /// Every broadcast sent after the crash, in order.
    pub broadcasts: Vec<BroadcastReport>,
    /// View accuracy after those broadcasts.
    pub accuracy_after: f64,
    /// Share of the alive nodes whose out-view is empty after them.
    pub isolated: f64,
    /// Simulator events processed through the last broadcast.
    pub events: u64,
    /// The healing probes, on a heal cell.
    pub healing: Option<Healing>,
}

/// Runs `key`'s cell once, with seed `params.scenario(run)`: stabilize;
/// snapshot the overlay if a slice reads it (no simulator randomness is
/// drawn); on a heal cell, probe the pre-failure reliability; crash the
/// cell's failure fraction; broadcast `key.broadcasts` times; on a heal
/// cell, run a cycle and a probe until the probe regains the baseline or
/// [`MAX_HEAL_CYCLES`] cycles have run.
pub fn run_cell(params: &Params, key: &Key, run: usize) -> Run {
    let cell = &key.cell;
    let mut sim = build(cell, &params.scenario(run).with_fanout(cell.fanout));
    sim.run_cycles(params.stabilization_cycles);
    let overlay = key.overlay.then(|| snapshot(&sim, params.seed));
    let baseline = cell.heal.then(|| probe(&mut sim, PROBES_PER_CYCLE).1);
    if cell.failure > 0.0 {
        sim.fail_fraction(cell.failure);
    }
    let accuracy_before = sim.accuracy();
    let (broadcasts, first_probe) = probe(&mut sim, key.broadcasts);
    let views = sim.out_views();
    let alive: Vec<&Vec<usize>> = views.iter().flatten().collect();
    let isolated = alive.iter().filter(|view| view.is_empty()).count();
    let isolated = isolated as f64 / alive.len().max(1) as f64;
    let (accuracy_after, events) = (sim.accuracy(), sim.stats().events_processed);
    let healing = baseline.map(|baseline| {
        let mut probes = vec![first_probe];
        while probes[probes.len() - 1] < baseline && probes.len() <= MAX_HEAL_CYCLES {
            sim.run_cycles(1);
            probes.push(probe(&mut sim, PROBES_PER_CYCLE).1);
        }
        Healing { baseline, probes }
    });
    Run { overlay, accuracy_before, broadcasts, accuracy_after, isolated, events, healing }
}

fn build(cell: &Cell, scenario: &Scenario) -> AnySim {
    let config = cell.hyparview.clone();
    if cell.random_fanout {
        return AnySim::HyParView(scenario.build_with(move |id, seed| {
            let node = HyParViewMembership::new(id, config.clone(), seed);
            node.expect("valid HyParView config").with_random_fanout(seed ^ 0xFA17)
        }));
    }
    AnySim::build(cell.kind, scenario, config)
}

fn snapshot(sim: &AnySim, seed: u64) -> OverlaySnapshot {
    let overlay = Overlay::new(sim.out_views());
    let views: usize = overlay.alive_nodes().iter().map(|&v| overlay.out_degree(v)).sum();
    OverlaySnapshot {
        indegree: indegree_report(&overlay),
        clustering: clustering_coefficient(&overlay),
        avg_shortest_path: shortest_path_stats(&overlay, PATH_SAMPLES, seed).average,
        connected: connectivity(&overlay).is_connected(),
        mean_view: views as f64 / overlay.alive_count().max(1) as f64,
    }
}

/// `count` broadcasts from random origins, and their mean reliability.
fn probe(sim: &mut AnySim, count: usize) -> (Vec<BroadcastReport>, f64) {
    let reports: Vec<BroadcastReport> = (0..count).map(|_| sim.broadcast_random()).collect();
    let total: f64 = reports.iter().map(BroadcastReport::reliability).sum();
    (reports, total / count as f64)
}

/// Every cell of a grid with its runs, in grid order.
#[derive(Debug)]
pub struct Results(pub(crate) Vec<(Key, Vec<Run>)>);

/// Runs every `(cell, run)` of `grid` over `params.jobs` workers.
pub fn run(params: &Params, grid: Vec<Key>) -> Results {
    let f = |key: &Key, run| run_cell(params, key, run);
    Results(parallel::sweep_grid(grid, |key| key.runs, params.jobs, f))
}

impl Results {
    /// The cells, in grid order, with their runs.
    pub fn cells(&self) -> &[(Key, Vec<Run>)] {
        &self.0
    }

    /// The runs of `cell`, in run order.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no such cell.
    pub fn runs(&self, cell: &Cell) -> &[Run] {
        let found = self.0.iter().find(|(key, _)| key.cell == *cell);
        &found.unwrap_or_else(|| panic!("no cell {cell:?} in the grid")).1
    }

    /// Run 0 of `cell`: what the slices that merge no runs read.
    pub fn first(&self, cell: &Cell) -> &Run {
        &self.runs(cell)[0]
    }

    /// The mean reliability of the first `broadcasts` broadcasts after the
    /// crash, over the runs of `cell`.
    pub fn reliability(&self, cell: &Cell, broadcasts: usize) -> f64 {
        summary(self.runs(cell), broadcasts).mean_reliability()
    }

    /// Messages sent and redundant per broadcast over the first
    /// `broadcasts` broadcasts of `cell`, and their mean reliability (§3.1).
    pub fn overhead(&self, cell: &Cell, broadcasts: usize) -> [f64; 3] {
        let summary = summary(self.runs(cell), broadcasts);
        let n = summary.count().max(1) as f64;
        let (sent, redundant) = (summary.total_sent() as f64, summary.total_redundant() as f64);
        [sent / n, redundant / n, summary.mean_reliability()]
    }

    /// The probes of heal cell `cell` (Figure 4).
    pub fn healing(&self, cell: &Cell) -> &Healing {
        self.first(cell).healing.as_ref().expect("a heal cell heals")
    }

    /// The stable overlay of `kind`'s cell at `params` (Figure 5, Table 1).
    pub fn overlay(&self, params: &Params, kind: ProtocolKind) -> &OverlaySnapshot {
        self.first(&Cell::new(params, kind)).overlay.as_ref().expect("a stable overlay")
    }

    /// `read` averaged over the runs of `cell`.
    pub fn mean(&self, cell: &Cell, read: impl Fn(&Run) -> f64) -> f64 {
        let runs = self.runs(cell);
        runs.iter().map(read).sum::<f64>() / runs.len() as f64
    }

    /// The reliability of the first `broadcasts` broadcasts after the
    /// crash, one by one, averaged over the runs of `cell`.
    pub fn series(&self, cell: &Cell, broadcasts: usize) -> Vec<f64> {
        (0..broadcasts).map(|i| self.mean(cell, |run| run.broadcasts[i].reliability())).collect()
    }
}

/// The first `broadcasts` reports of each of `runs`, in run order.
pub fn summary(runs: &[Run], broadcasts: usize) -> ReliabilitySummary {
    let mut summary = ReliabilitySummary::new();
    runs.iter().flat_map(|run| &run.broadcasts[..broadcasts]).for_each(|r| summary.add(r));
    summary
}

/// Index of the first message of `series` whose reliability reaches
/// `threshold` (`None` if none does).
pub fn messages_to_reach(series: &[f64], threshold: f64) -> Option<usize> {
    series.iter().position(|r| *r >= threshold)
}

/// Mean reliability over the last quarter of `series`: the plateau the
/// protocol converges to.
pub fn plateau(series: &[f64]) -> f64 {
    let len = series.len();
    if len == 0 {
        return 0.0;
    }
    let tail = &series[len - (len / 4).max(1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell run with `k` broadcasts yields the first `k` reports of the
    /// same cell run with more, after a crash and on a stable overlay.
    #[test]
    fn a_shorter_run_is_a_prefix_of_a_longer_one() {
        let params = Params::smoke().with_n(60);
        for failure in [0.5, 0.0] {
            let cell = Cell::new(&params, Cyclon).failing(failure);
            let key = |broadcasts| Key { cell: cell.clone(), runs: 1, broadcasts, overlay: true };
            let (short, long) = (run_cell(&params, &key(5), 0), run_cell(&params, &key(12), 0));
            assert_eq!(short.broadcasts[..], long.broadcasts[..5], "failure {failure}");
            assert_eq!(
                (short.accuracy_before, short.overlay),
                (long.accuracy_before, long.overlay)
            );
        }
    }

    /// `all`'s grid holds every cell once: 96 of them at the presets'
    /// fanout of 4, whatever the scale and message count. So does
    /// `ablations`'.
    #[test]
    fn the_grid_of_all_holds_each_cell_once() {
        for params in [Params::smoke(), Params::quick().with_messages(3), Params::paper()] {
            let all = grid(&params, &ALL);
            assert_eq!(all.len(), 96, "{}", params.describe());
            for (i, key) in all.iter().enumerate() {
                assert!(all[..i].iter().all(|k| k.cell != key.cell), "{:?} twice", key.cell);
            }
            let asked: usize = ALL.iter().map(|slice| slice.cells(&params).len()).sum();
            assert_eq!(asked, 129, "the slices ask for 129 cells, 33 of them shared");
            // Two ablations, `ARWL=6 PRWL=3` and `ka=3 kp=4`, are the default.
            assert_eq!(grid(&params, &[Slice::Ablations]).len(), 15);
        }
    }
}
