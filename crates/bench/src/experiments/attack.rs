//! Adversarial membership: eclipse/infiltration attackers vs overlay
//! defenses.
//!
//! The paper's resilience argument (§5.4) covers *random* failures; this
//! experiment measures the *coordinated* case. A colluding fraction of the
//! scenario's nodes runs one of the attacker models of
//! [`hyparview_sim::AttackPlan`] — **eclipse** (flood high-priority
//! `Neighbor` requests at a victim set, churning to re-roll rejections) or
//! **infiltration** (join aggressively and bias every `Shuffle` payload to
//! advertise only colluders) — against either an **open** overlay (the
//! paper's protocol, no defenses) or a **hardened** one (admission
//! cooldown, per-cycle eviction budget, bounded active-view tenure, churn
//! shuffle boost; [`hyparview_core::Config::hardened`]).
//!
//! Per cycle, the overlay snapshot is scored with the
//! [`hyparview_graph::adversary`] analyzers; the headline metric is
//! **time-to-eclipse** — the first cycle at which some victim's active
//! view is 100% colluders — which the defenses must push to 5× the
//! undefended one at 20% colluders and past the horizon at 10%
//! ([`claims::attack_table`](super::claims::attack_table)). After the
//! membership phase the experiment broadcasts from an honest node and
//! reports reliability over the *honest* population only (colluders
//! black-hole payloads, so global reliability is capped by construction).

use crate::parallel;
use crate::params::Params;
use hyparview_core::{Config, SimId};
use hyparview_graph::{
    capture_fraction, eclipsed_victims, honest_connectivity, indegree_capture, Overlay,
};
use hyparview_obsv::{names, Registry};
use hyparview_sim::protocols::{build_hyparview, HyParViewSim};
use hyparview_sim::{AttackPlan, AttackerModel};

/// The swept colluder fractions. 20% is the headline point: the defenses
/// must hold the victim set past the horizon there.
pub const ATTACK_FRACTIONS: [f64; 2] = [0.10, 0.20];

/// The two attacker models in display order, with their labels.
pub const ATTACK_MODELS: [(&str, AttackerModel); 2] =
    [("eclipse", AttackerModel::Eclipse), ("infiltration", AttackerModel::Infiltration)];

/// The paper's protocol untouched.
pub const OPEN: (&str, Config) = ("open", Config::paper());

/// The paper's protocol with every overlay defense on.
pub const HARDENED: (&str, Config) = ("hardened", Config::hardened());

/// The two defense configurations in display order, each with its label.
pub const DEFENSES: [(&str, Config); 2] = [OPEN, HARDENED];

/// Membership cycles each cell runs under attack before the broadcast
/// phase: three stabilization periods, floored at 30 so the smoke preset
/// still leaves the defenses a 5× headroom over an undefended eclipse.
pub fn default_horizon(params: &Params) -> usize {
    (3 * params.stabilization_cycles).max(30)
}

/// Result of one `(model, fraction, defense)` combination.
#[derive(Debug, Clone, Default)]
pub struct AttackCell {
    /// Attacker model label (`"eclipse"`, `"infiltration"`).
    pub model: &'static str,
    /// Colluding fraction of this cell.
    pub fraction: f64,
    /// Defense configuration label (`"open"`, `"hardened"`).
    pub defense: &'static str,
    /// Membership cycles run under attack.
    pub horizon: usize,
    /// Number of colluding nodes.
    pub colluders: usize,
    /// Number of targeted nodes.
    pub victims: usize,
    /// First cycle (1-based) at which some victim's active view was 100%
    /// colluders; `horizon + 1` when that never happened.
    pub time_to_eclipse: u64,
    /// Whether any victim was fully eclipsed within the horizon.
    pub eclipsed: bool,
    /// Victims fully eclipsed in the final snapshot.
    pub eclipsed_victims: usize,
    /// Mean colluder share of honest out-views, per cycle (1-based index
    /// = cycle). Not serialized — the artifact carries the final value.
    pub capture_by_cycle: Vec<f64>,
    /// Mean colluder share of honest out-views in the final snapshot.
    pub capture_fraction: f64,
    /// Colluder share of total in-degree mass in the final snapshot.
    pub indegree_capture: f64,
    /// Largest honest component over the honest population, colluders and
    /// every link through them discounted.
    pub honest_component: f64,
    /// Mean fraction of *honest* nodes reached per measured broadcast from
    /// an honest origin.
    pub honest_reliability: f64,
    /// `attack.joins_damped` — re-`Join`s rejected by the admission
    /// cooldown.
    pub joins_damped: u64,
    /// `attack.neighbors_damped` — high-priority `Neighbor` re-admissions
    /// rejected by cooldown or eviction budget.
    pub neighbors_damped: u64,
    /// `attack.tenure_swaps` — forced active-view rotations.
    pub tenure_swaps: u64,
    /// `attack.shuffle_boosts` — extra shuffles sent after churn.
    pub shuffle_boosts: u64,
    /// `attack.neighbor_floods` — high-priority `Neighbor` frames sent at
    /// victims by eclipse attackers.
    pub neighbor_floods: u64,
    /// `attack.rejoins` — attacker churn re-`Join`s.
    pub rejoins: u64,
    /// `attack.shuffles_biased` — shuffle payloads rewritten to advertise
    /// only colluders.
    pub shuffles_biased: u64,
    /// Simulator events processed across the cell's run.
    pub events: u64,
    /// Final metric-registry snapshot, including the `attack.*` counters —
    /// deterministic per seed.
    pub metrics: Registry,
}

impl AttackCell {
    /// The time-to-eclipse as printed: its cycle, or `> horizon` when no
    /// victim was captured.
    pub fn eclipse_time(&self) -> String {
        if self.eclipsed {
            self.time_to_eclipse.to_string()
        } else {
            format!("> {}", self.horizon)
        }
    }
}

fn overlay_of(sim: &HyParViewSim) -> Overlay {
    let views = sim
        .out_views()
        .into_iter()
        .map(|view| view.map(|ids| ids.into_iter().map(SimId::index).collect()))
        .collect();
    Overlay::new(views)
}

/// Measures one combination: build the overlay with the colluders joining
/// last, run `horizon` membership cycles scoring every snapshot, then
/// broadcast from honest node 0 and score delivery over the honest
/// population.
pub fn attack_cell(
    params: &Params,
    model_label: &'static str,
    model: AttackerModel,
    fraction: f64,
    (defense, config): (&'static str, Config),
    horizon: usize,
) -> AttackCell {
    let plan = match model {
        AttackerModel::Eclipse => AttackPlan::eclipse(fraction),
        AttackerModel::Infiltration => AttackPlan::infiltration(fraction),
    };
    let colluders = plan.colluder_indices(params.n);
    let victims = plan.victim_indices(params.n);
    let scenario = params.scenario(0).with_attack(plan);
    let mut sim = build_hyparview(&scenario, config);

    let mut capture_by_cycle = Vec::with_capacity(horizon);
    let mut time_to_eclipse = horizon as u64 + 1;
    let mut eclipsed = false;
    for cycle in 1..=horizon {
        sim.run_cycles(1);
        let overlay = overlay_of(&sim);
        capture_by_cycle.push(capture_fraction(&overlay, &colluders));
        if !eclipsed && !eclipsed_victims(&overlay, &victims, &colluders).is_empty() {
            eclipsed = true;
            time_to_eclipse = cycle as u64;
        }
    }

    let overlay = overlay_of(&sim);
    let final_capture = capture_fraction(&overlay, &colluders);
    let final_indegree = indegree_capture(&overlay, &colluders);
    let honest = honest_connectivity(&overlay, &colluders);
    let honest_count = params.n - colluders.len();
    let honest_component = honest.largest_component as f64 / honest_count.max(1) as f64;

    // Broadcast phase: origin 0 is honest by construction (colluders are
    // the highest indices), and only honest receivers count — a colluder
    // "delivering" a payload it then black-holes is not dissemination.
    let honest_ids: Vec<SimId> =
        (0..params.n).filter(|i| !colluders.contains(i)).map(SimId::new).collect();
    let origin = SimId::new(0);
    let messages = params.messages.max(1);
    let mut honest_sum = 0.0;
    for _ in 0..messages {
        sim.broadcast_from(origin);
        let id = sim.next_broadcast_id() - 1;
        let delivered = honest_ids.iter().filter(|&&node| sim.has_delivered(node, id)).count();
        honest_sum += delivered as f64 / honest_ids.len() as f64;
    }

    let counter = |name: &str| sim.metrics().value_by_name(name).unwrap_or(0);
    AttackCell {
        model: model_label,
        fraction,
        defense,
        horizon,
        colluders: colluders.len(),
        victims: victims.len(),
        time_to_eclipse,
        eclipsed,
        eclipsed_victims: eclipsed_victims(&overlay, &victims, &colluders).len(),
        capture_by_cycle,
        capture_fraction: final_capture,
        indegree_capture: final_indegree,
        honest_component,
        honest_reliability: honest_sum / messages as f64,
        joins_damped: counter(names::ATTACK_JOINS_DAMPED),
        neighbors_damped: counter(names::ATTACK_NEIGHBORS_DAMPED),
        tenure_swaps: counter(names::ATTACK_TENURE_SWAPS),
        shuffle_boosts: counter(names::ATTACK_SHUFFLE_BOOSTS),
        neighbor_floods: counter(names::ATTACK_NEIGHBOR_FLOODS),
        rejoins: counter(names::ATTACK_REJOINS),
        shuffles_biased: counter(names::ATTACK_SHUFFLES_BIASED),
        events: sim.stats().events_processed,
        metrics: sim.metrics_snapshot(),
    }
}

/// The full sweep: every attacker model × colluder fraction × defense
/// configuration. The cells are independent simulations, executed over
/// [`parallel::sweep`] and returned in display order.
pub fn hyparview_attack(params: &Params, horizon: usize) -> Vec<AttackCell> {
    let mut combos = Vec::with_capacity(ATTACK_MODELS.len() * ATTACK_FRACTIONS.len() * 2);
    for (label, model) in ATTACK_MODELS {
        for fraction in ATTACK_FRACTIONS {
            for defense in DEFENSES {
                combos.push((label, model, fraction, defense));
            }
        }
    }
    parallel::sweep(combos.len(), params.jobs, |i| {
        let (label, model, fraction, defense) = combos[i].clone();
        attack_cell(params, label, model, fraction, defense, horizon)
    })
}

/// The cell measured for `(model, fraction, defense)`.
pub fn attack_cell_for<'c>(
    cells: &'c [AttackCell],
    model: &str,
    fraction: f64,
    defense: &str,
) -> &'c AttackCell {
    cells
        .iter()
        .find(|c| c.model == model && (c.fraction - fraction).abs() < 1e-9 && c.defense == defense)
        .expect("model, fraction and defense present")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::plumtree::measure;
    use hyparview_sim::protocols::build_hyparview;

    #[test]
    fn undefended_infiltration_capture_grows_monotonically() {
        let params = Params::smoke().with_messages(1);
        let cell =
            attack_cell(&params, "infiltration", AttackerModel::Infiltration, 0.20, OPEN, 30);
        // Windowed monotonicity: per-cycle noise is fine, the trend is not.
        let window = |range: std::ops::Range<usize>| {
            let slice = &cell.capture_by_cycle[range];
            slice.iter().sum::<f64>() / slice.len() as f64
        };
        let (early, mid, late) = (window(0..10), window(10..20), window(20..30));
        assert!(mid >= early - 0.02, "capture sagged mid-run: {early} → {mid}");
        assert!(late > early, "capture never grew: {early} → {late}");
        assert!(cell.shuffles_biased > 0, "infiltrators must bias shuffle payloads");
        assert!(
            cell.capture_fraction > cell.fraction,
            "an active infiltration should exceed the passive baseline share \
             ({} ≤ {})",
            cell.capture_fraction,
            cell.fraction
        );
    }

    #[test]
    fn hardened_defenses_without_attackers_keep_the_broadcast_headline() {
        // Satellite property: defenses enabled + zero attackers must not
        // change the reliability/RMR headline — tenure rotation and
        // admission damping reshape membership, not dissemination quality.
        let params = Params::smoke().with_messages(16);
        let phase = |config: Config| {
            let mut sim = build_hyparview(&params.scenario(0), config);
            sim.run_cycles(params.stabilization_cycles);
            measure(&mut sim, SimId::new(0), params.messages).0
        };
        let open = phase(Config::paper());
        let hard = phase(Config::hardened());
        assert!(open.mean_reliability > 0.9999, "open baseline must be atomic");
        assert!(hard.mean_reliability > 0.9999, "defenses alone must not cost reliability");
        assert!(
            (open.mean_rmr - hard.mean_rmr).abs() < 0.3,
            "defenses alone must not move RMR: {} vs {}",
            open.mean_rmr,
            hard.mean_rmr
        );
    }

    #[test]
    fn sweep_covers_the_grid_in_display_order() {
        let params = Params::smoke().with_messages(2).with_jobs(2);
        let cells = hyparview_attack(&params, 6);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].model, "eclipse");
        assert_eq!(cells[0].defense, "open");
        let cell = attack_cell_for(&cells, "infiltration", 0.20, "hardened");
        assert_eq!(cell.colluders, 40, "20% of the smoke scenario's 200 nodes");
        assert!(cell.honest_reliability > 0.0);
        assert_eq!(cell.capture_by_cycle.len(), 6);
    }
}
