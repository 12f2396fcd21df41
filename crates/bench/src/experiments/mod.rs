//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§5), plus the ablations suggested by §5.5/§6.
//!
//! Every function here is deterministic given its [`Params`](crate::Params)
//! and returns structured data; `report.rs` prints the tables, builds
//! the artifacts and checks the headlines, one function per `hpv-bench`
//! experiment.

pub mod ablations;
pub mod adaptive;
pub mod attack;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod latency;
pub mod overhead;
pub mod plumtree;
pub mod table1;
pub mod wan;

pub use ablations::{
    flood_vs_random, passive_size_sweep, shuffle_payload_sweep, walk_length_sweep, AblationPoint,
};
pub use adaptive::{
    adaptive_cell, plumtree_adaptive, AdaptiveCell, AdaptiveVariant, PhaseMetrics,
    ADAPTIVE_VARIANTS,
};
pub use attack::{
    attack_cell, attack_cell_for, default_horizon, defense_config, hyparview_attack, AttackCell,
    ATTACK_FRACTIONS, ATTACK_MODELS, ATTACK_VICTIMS, DEFENSES,
};
pub use fig1::{fanout_sweep, Fig1Point};
pub use fig2::{reliability_after_failures, Fig2Cell, Fig2Row};
pub use fig3::{recovery_series, RecoverySeries};
pub use fig4::{healing_time, HealingResult};
pub use fig5::{in_degree_distribution, Fig5Row};
pub use latency::{
    latency_cell, pair_by_case, plumtree_latency, LatencyCase, LatencyCell, LATENCY_CASES,
    LATENCY_VARIANTS,
};
pub use overhead::{message_overhead, OverheadPoint};
pub use plumtree::{
    broadcast_cost_cell, flood_vs_plumtree, BroadcastCostCell, BroadcastCostRow, BROADCAST_MODES,
};
pub use table1::{graph_properties, Table1Row};
pub use wan::{plumtree_wan, wan_cell, wan_cell_for, WanCell, WanMode, WAN_LOSSES, WAN_MODES};
