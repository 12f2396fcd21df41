//! # hyparview-net
//!
//! A real TCP runtime for HyParView: the deployable counterpart of the
//! discrete-event simulator, using the very same sans-io protocol core
//! (`hyparview-core`).
//!
//! * [`wire`] — hand-rolled length-prefixed frame codec.
//! * [`reactor`] — the nonblocking epoll transport: a [`Cluster`] runtime
//!   multiplexing the listeners, connections, and timers of thousands of
//!   nodes onto one thread, with lazy outbound connections, an identity
//!   `Hello` handshake and failure reporting (connect errors, broken
//!   connections, NeEM-style slow-node expulsion, §5.5).
//! * [`node`] — the application-facing [`Node`] handle over the
//!   I/O-independent protocol core.
//!
//! The paper's §4.1 architecture maps directly: one open TCP connection per
//! active-view member, broadcast by flooding the active view, TCP doubling
//! as the failure detector.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod core;
pub mod node;
pub mod reactor;
pub mod wire;

pub use hyparview_plumtree::{BroadcastMode, PlumtreeConfig};
pub use node::{
    Delivery, NetConfig, Node, NodeStats, PayloadTooLarge, DEFAULT_LAZY_FLUSH_INTERVAL,
    DEFAULT_OPTIMIZATION_THRESHOLD,
};
pub use reactor::Cluster;
pub use wire::{Frame, FrameReader, WireError, MAX_PAYLOAD_LEN};
