//! The experiment harness: the paper's evaluation (§5) and its ablations
//! (§5.5/§6) as slices of one grid of cells ([`paper`]), the Plumtree and
//! attack extensions, and every experiment's claims as one table
//! ([`claims`]).
//!
//! Every function here is deterministic given its [`Params`](crate::Params)
//! and returns structured data; `report.rs` prints the tables, builds
//! the artifacts and checks the claims, one function per `hpv-bench`
//! experiment.

pub mod attack;
pub mod claims;
pub mod paper;
pub mod plumtree;

pub use attack::{
    attack_cell, attack_cell_for, default_horizon, hyparview_attack, AttackCell, ATTACK_FRACTIONS,
    ATTACK_MODELS, DEFENSES, HARDENED, OPEN,
};

#[cfg(test)]
include!("paper_tests.rs");
