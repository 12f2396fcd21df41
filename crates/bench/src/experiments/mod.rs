//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§5), plus the ablations suggested by §5.5/§6.
//!
//! Every function here is deterministic given its [`Params`](crate::Params)
//! and returns structured data; `report.rs` prints the tables, builds
//! the artifacts and checks the headlines, one function per `hpv-bench`
//! experiment.

pub mod ablations;
pub mod attack;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod overhead;
pub mod plumtree;
pub mod table1;

pub use ablations::{
    flood_vs_random, passive_size_sweep, shuffle_payload_sweep, walk_length_sweep, AblationPoint,
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
pub use overhead::{message_overhead, OverheadPoint};
pub use table1::{graph_properties, Table1Row};
