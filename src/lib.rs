//! # hyparview-suite
//!
//! Umbrella crate for the HyParView reproduction: re-exports the member
//! crates under one roof for the workspace examples and integration tests.
//!
//! * [`core`] — the sans-io HyParView protocol state machine.
//! * [`gossip`] — the gossip broadcast layer and the `Membership` trait.
//! * [`plumtree`] — the Plumtree state machine and `NodeCore`, the one
//!   composition of a node.
//! * [`baselines`] — Cyclon, Scamp and CyclonAcked.
//! * [`sim`] — the deterministic discrete-event simulator (PeerSim
//!   substitute).
//! * [`graph`] — overlay graph metrics.
//! * [`net`] — the real TCP runtime.
//! * [`obsv`] — the sans-io observability layer (metric registry,
//!   structured traces, broadcast-path tracing).
//!
//! The paper-figure harness, `hyparview-bench` (the `hpv-bench` binary),
//! is not re-exported. See `README.md` for a tour.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hyparview_baselines as baselines;
pub use hyparview_core as core;
pub use hyparview_gossip as gossip;
pub use hyparview_graph as graph;
pub use hyparview_net as net;
pub use hyparview_obsv as obsv;
pub use hyparview_plumtree as plumtree;
pub use hyparview_sim as sim;
