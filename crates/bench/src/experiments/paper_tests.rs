// The claims table's unit tests and the paper slices', one
// `<figure>::tests` module per slice so that each test keeps its name. A
// claim test asserts its rows of the claims table (`claims.rs`), read off
// one run of `all`, `overhead` and `ablations` at `--smoke`; the others
// check the grid runner. Included by `experiments/mod.rs` in test builds.

use crate::cli::{self, Outcome};
use crate::{experiments::paper::*, Params};
use hyparview_obsv::Registry;
use hyparview_sim::protocols::ProtocolKind::HyParView;

/// Runs `cells` as `slice` reads them.
fn measure(params: &Params, slice: Slice, cells: &[Cell]) -> Results {
    run(params, cells.iter().map(|cell| slice.key(params, cell.clone())).collect())
}

/// `all`, `overhead` and `ablations` at `--smoke --jobs 2`, as `hpv-bench`
/// runs them, run once for every test that reads a row.
fn smoke() -> &'static [Outcome] {
    static OUTCOMES: std::sync::OnceLock<Vec<Outcome>> = std::sync::OnceLock::new();
    OUTCOMES.get_or_init(|| {
        let outcome = |name| {
            let args = [name, "--smoke", "--jobs", "2"].map(str::to_owned);
            let invocation = cli::parse(&args).expect("a valid hpv-bench command line");
            (invocation.run)(&invocation.params)
        };
        ["all", "overhead", "ablations"].map(outcome).into()
    })
}

/// Asserts that `slice`'s rows about `subjects` hold at `--smoke`.
fn holds(slice: Slice, subjects: &[&str]) {
    let experiment = format!("{slice:?}");
    for subject in subjects {
        let mut rows = claims::table().into_iter();
        let claim = rows.find(|c| c.experiment == experiment && c.subject == *subject);
        let prefix = claim.unwrap_or_else(|| panic!("no claim about {subject:?}")).failure("");
        let failed: Vec<_> = smoke().iter().flat_map(|o| &o.failures).collect();
        assert!(failed.iter().all(|f| !f.starts_with(&prefix)), "{failed:#?}");
    }
}

/// Every row checked at the smoke scale holds, in the reports `hpv-bench`
/// prints.
#[test]
fn every_claim_holds_at_the_smoke_scale() {
    let failed: Vec<_> = smoke().iter().flat_map(|o| &o.failures).collect();
    assert!(failed.is_empty(), "{failed:#?}");
    let held = smoke().iter().flat_map(|o| o.report.lines()).filter(|l| l.ends_with("holds"));
    assert_eq!(held.count(), claims::table().iter().filter(|c| c.n.is_none()).count());
}

/// `plumtree`'s grid with values on which every row holds: full
/// reliability, a pruned tree on a third of the flood's payloads, batches
/// and optimizations where the strategy has them, late ones only under
/// varying latency, and faults only where the cell injects them.
fn plumtree_cells() -> Vec<plumtree::Cell> {
    let cell = |at: plumtree::Coordinates| {
        let (tree, batches) = (at.strategy.label != "flood", at.strategy.lazy_flush_interval > 0);
        let optimizes = at.strategy.optimization_threshold.is_some();
        let phase = plumtree::PhaseMetrics {
            mean_reliability: 1.0,
            min_reliability: 1.0,
            mean_rmr: if tree { 0.0 } else { 3.0 },
            mean_last_hop: if optimizes { 5.0 } else { 7.0 },
            control_per_broadcast: if batches { 50.0 } else { 150.0 },
            payload_per_broadcast: if tree { 199.0 } else { 600.0 },
        };
        let (lossy, wan) = (at.loss > 0.0, at.slice == "wan");
        plumtree::Cell {
            at,
            stable: phase,
            stable_paths: Default::default(),
            disturbed_reliability: if wan { 0.5 } else { 1.0 },
            heal_broadcasts: 1,
            time_to_heal: 10,
            converged: true,
            healed: phase,
            healed_paths: Default::default(),
            optimizations: optimizes.into(),
            late_optimizations: (optimizes && at.latency.label != "fixed").into(),
            batches: batches.into(),
            grafts: 0,
            dead_letters: 0,
            dropped: lossy.into(),
            partition_dropped: wan.into(),
            duplicated: lossy.into(),
            events: 0,
            metrics: Registry::new(),
        }
    };
    plumtree::grid().into_iter().map(cell).collect()
}

/// `hyparview_attack`'s grid with values on which every row holds: the
/// undefended overlays are flooded, eclipsed at cycle 2 and capture more;
/// the hardened ones hold past a 30-cycle horizon and damp a `Neighbor`.
fn attack_cells() -> Vec<AttackCell> {
    let cell = |model, fraction, defense| {
        let open = defense == "open";
        AttackCell {
            model,
            fraction,
            defense,
            horizon: 30,
            eclipsed: open,
            time_to_eclipse: if open { 2 } else { 31 },
            capture_fraction: if open { 0.3 } else { 0.2 },
            honest_reliability: 1.0,
            neighbors_damped: (!open).into(),
            neighbor_floods: 1,
            ..AttackCell::default()
        }
    };
    let mut cells = Vec::new();
    for (model, _) in ATTACK_MODELS {
        for fraction in ATTACK_FRACTIONS {
            cells.extend(DEFENSES.map(|(defense, _)| cell(model, fraction, defense)));
        }
    }
    cells
}

/// `outcome` fails exactly on `failure`, and its report shows the row
/// that FAILS.
fn fails_exactly(outcome: Outcome, failure: &str) {
    assert_eq!(outcome.failures, [failure]);
    let failed = outcome.report.lines().filter(|l| l.ends_with("FAILS")).count();
    assert_eq!(failed, 1, "{}", outcome.report);
}

/// A row that does not hold fails its experiment, naming it, the subject,
/// the statement and the measured value; `--assert` exits 1 on it. One
/// case each for a paper slice, `plumtree` and `hyparview_attack`: one
/// value pushed past one row's bound fails that row alone.
#[test]
fn a_failing_row_is_a_failure_of_its_slice() {
    let params = Params::smoke();
    let mut results = run(&params, grid(&params, &[Slice::Fig5]));
    let hyparview = Cell::new(&params, HyParView);
    let (_, runs) = results.0.iter_mut().find(|(key, _)| key.cell == hyparview).unwrap();
    runs[0].overlay.as_mut().unwrap().indegree.summary.stddev = 2.0;
    let failure = "Fig5: HyParView (concentrated at the active view size): 99.0% at 5, \
                   stddev 2.00";
    fails_exactly(crate::report::report(Slice::Fig5, &params, &results), failure);

    let mut cells = plumtree_cells();
    let adaptive = cells.iter_mut().find(|c| {
        c.at.strategy.label == "adaptive" && c.at.label() == "lognormal-link.loss10.partition"
    });
    adaptive.unwrap().stable.mean_reliability = 0.98;
    let outcome = claims::check(Outcome::default(), claims::plumtree_table(), &params, &cells[..]);
    let failure = "plumtree: adaptive tree at 10% loss (lazy repair holds 99% under per-link \
                   loss): 98.00% (flood 100.00%), 1 frames duplicated";
    fails_exactly(outcome, failure);

    let mut cells = attack_cells();
    let hard_10 = cells.iter_mut().find(|c| {
        (c.model, c.fraction, c.defense) == ("eclipse", 0.10, "hardened")
    });
    let hard_10 = hard_10.unwrap();
    (hard_10.eclipsed, hard_10.time_to_eclipse) = (true, 5);
    let outcome = claims::check(Outcome::default(), claims::attack_table(), &params, &cells[..]);
    let failure = "hyparview_attack: eclipse at 10%, hardened (the defenses hold past the \
                   horizon): time-to-eclipse 5";
    fails_exactly(outcome, failure);
}

/// One `<figure>::tests` module per slice: a test named after each group
/// of `$slice`'s rows, which asserts that they hold, then the module's
/// other tests.
macro_rules! slice_tests {
    ($($module:ident($slice:ident) {
        $($test:ident: [$($subject:literal),+],)*
        $(#[test] fn $other:ident() $body:block)*
    })+) => {$(
        mod $module {
            mod tests {
                use super::super::*;
                $(#[test] fn $test() { holds(Slice::$slice, &[$($subject),+]) })*
                $(#[test] fn $other() $body)*
            }
        }
    )+};
}

slice_tests! {
    fig1(Fig1) {
        reliability_grows_with_fanout_for_cyclon: ["Cyclon, fanout 1 vs 4"],
        hyparview_flood_is_atomic_on_stable_overlay: ["HyParView, fanout 4"],
    }
    fig2(Fig2) {
        hyparview_survives_moderate_failures: ["HyParView at 40% failures"],
        hyparview_beats_cyclon_after_heavy_failures: ["Cyclon, Scamp"],

        #[test]
        fn rows_cover_all_requested_levels() {
            let params = Params::smoke().with_messages(5);
            let cells = [0.1, 0.5].map(|f| Cell::new(&params, HyParView).failing(f));
            let results = measure(&params, Slice::Fig2, &cells);
            let rows: Vec<_> = results.cells().iter().map(|(k, r)| (&k.cell, r.len())).collect();
            assert_eq!(rows, [(&cells[0], 1), (&cells[1], 1)]);
        }
    }
    fig3(Fig3) {
        hyparview_recovers_within_a_few_messages: ["HyParView through 80%"],
        accuracy_improves_for_detecting_protocols: ["View accuracy"],
        plain_cyclon_stays_flat: ["View accuracy"],

        #[test]
        fn messages_to_reach_and_plateau_edge_cases() {
            let series = [0.2, 0.5, 0.9, 0.95];
            assert_eq!(messages_to_reach(&series, 0.9), Some(2));
            assert_eq!(messages_to_reach(&series, 0.99), None);
            assert!((plateau(&series) - 0.95).abs() < 1e-12);
        }
    }
    fig4(Fig4) {
        hyparview_heals_within_a_few_cycles: ["HyParView"],
        cyclon_heals_slower_than_hyparview: ["Cyclon"],

        #[test]
        fn probe_series_starts_at_cycle_zero() {
            let params = Params::smoke();
            let cell = Cell { heal: true, ..Cell::new(&params, HyParView).failing(0.2) };
            let results = measure(&params, Slice::Fig4, std::slice::from_ref(&cell));
            assert!(!results.healing(&cell).probes.is_empty());
        }
    }
    fig5(Fig5) {
        hyparview_in_degree_concentrates_at_active_size: ["HyParView"],
        cyclon_in_degree_spreads_wider_than_hyparview: ["Cyclon vs HyParView"],
    }
    table1(Table1) {
        hyparview_has_lowest_clustering_and_longest_paths: ["Clustering", "Average path"],
        overlays_are_connected_after_stabilization: ["Every overlay"],
        hyparview_view_size_matches_config: ["HyParView mean view"],
    }
    overhead(Overhead) {
        higher_fanout_costs_more_and_is_mostly_redundant: ["Fanout 6 vs 4"],
        hyparview_fanout4_flood_cost_is_bounded: ["HyParView, fanout 4"],
    }
    ablations(Ablations) {
        tiny_passive_views_hurt_resilience: ["Passive view 30 vs 1"],
        flood_beats_random_fanout_under_failures: ["Flood vs random fanout at 50%"],

        #[test]
        fn walk_sweep_produces_a_point_per_config() {
            let params = Params::smoke().with_messages(10);
            let walk = |a, p| hyparview_core::Config::default().with_arwl(a).with_prwl(p);
            let cells = [walk(6, 3), walk(2, 1)].map(|c| Cell::hyparview(&params, c).failing(0.3));
            let results = measure(&params, Slice::Ablations, &cells);
            assert_eq!(results.cells().len(), 2);
            assert!(cells.iter().all(|cell| results.reliability(cell, params.messages) > 0.0));
        }
    }
}
