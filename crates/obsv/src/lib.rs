//! # hyparview-obsv
//!
//! The sans-io observability layer of the HyParView reproduction: one
//! shared vocabulary for everything the simulator, the TCP runtime and
//! the bench harness measure.
//!
//! The paper's evaluation is entirely about *measured* dissemination
//! behavior — reliability, redundancy, last-hop delay, view accuracy.
//! This crate gives every layer the same three instruments:
//!
//! * [`Registry`] — named counters, gauges and log-bucketed
//!   [`Histogram`]s with fixed bucket boundaries, so snapshots stay
//!   byte-deterministic and partial results merge associatively;
//! * [`TraceSink`]/[`TraceRing`] — structured [`TraceEvent`]s at protocol
//!   decision points, timestamped in simulated time units by the simulator
//!   and in [`WallClock`] microseconds by the reactor;
//! * [`PathTracer`]/[`DisseminationTree`] — causal broadcast-path
//!   tracing: every first delivery tagged with its hop provenance, so a
//!   finished broadcast reconstructs as the tree it actually traversed.
//!
//! The crate is dependency-free and sans-io: producers own their
//! registries and rings; aggregation and serialization happen in the
//! embedding layer (see `hyparview-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod hist;
pub mod metrics;
pub mod names;
pub mod path;
pub mod trace;

pub use clock::WallClock;
pub use hist::{bucket_bounds, bucket_index, Histogram};
pub use metrics::{CounterId, GaugeId, HistogramId, Registry};
pub use path::{DisseminationTree, HopRecord, PathTracer};
pub use trace::{TimerKind, TraceEvent, TraceKind, TraceRing, TraceSink};
