//! # hyparview-sim
//!
//! A deterministic discrete-event simulator for membership and gossip
//! protocols — the reproduction's substitute for the PeerSim simulator used
//! in the HyParView paper's evaluation (§5).
//!
//! The simulator reproduces PeerSim's cycle-based model: nodes join one by
//! one, membership cycles execute every node's periodic action, and
//! broadcasts disseminate to quiescence between cycles. Messages to crashed
//! nodes are lost; protocols that use a reliable transport (HyParView,
//! CyclonAcked) receive synchronous send-failure notifications, modelling
//! "TCP as a failure detector".
//!
//! Everything is a pure function of the scenario seed, so experiments are
//! exactly reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod any;
pub mod attack;
pub mod churn;
pub mod event;
pub mod fault;
pub mod scenario;
pub mod sim;

pub use any::AnySim;
pub use attack::{AttackPlan, ECLIPSE_VICTIMS};
pub use churn::{run_churn, ChurnEpoch, ChurnPlan, ChurnReport};
pub use event::{EventQueue, Scheduled};
pub use fault::{FaultOp, FaultOpKind, FaultPlan};
pub use hyparview_gossip::{AttackerModel, AttackerRole, MembershipEvent, ATTACKER_REJOIN};
pub use hyparview_plumtree::{BroadcastMode, PlumtreeConfig, PlumtreeStats, PlumtreeTimer};
pub use scenario::{protocols, ContactPolicy, Scenario};
pub use sim::{BurstReport, Latency, LatencyAssignment, LatencyModel, Sim, SimConfig, SimStats};
