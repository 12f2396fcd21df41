//! # hyparview-net
//!
//! A real TCP runtime for HyParView: the deployable counterpart of the
//! discrete-event simulator, using the very same sans-io protocol core
//! (`hyparview-core`).
//!
//! * [`wire`] — hand-rolled length-prefixed frame codec.
//! * [`transport`] — thread-per-connection TCP with lazy outbound
//!   connections, identity `Hello` handshake, failure reporting (connect
//!   errors, broken connections, NeEM-style slow-node expulsion, §5.5).
//! * [`reactor`] — the nonblocking epoll backend: a [`Cluster`] runtime
//!   multiplexing the listeners, connections, and timers of thousands of
//!   nodes onto one thread.
//! * [`node`] — the application-facing [`Node`] handle, runnable on either
//!   backend ([`node::TransportBackend`]); both drive the same
//!   backend-independent protocol core.
//!
//! The paper's §4.1 architecture maps directly: one open TCP connection per
//! active-view member, broadcast by flooding the active view, TCP doubling
//! as the failure detector.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod core;
pub mod node;
pub mod reactor;
pub mod transport;
pub mod wire;

pub use hyparview_plumtree::{BroadcastMode, PlumtreeConfig};
pub use node::{
    Delivery, NetConfig, Node, NodeStats, TransportBackend, DEFAULT_LAZY_FLUSH_INTERVAL,
    DEFAULT_OPTIMIZATION_THRESHOLD,
};
pub use reactor::Cluster;
pub use transport::{Transport, TransportConfig, TransportEvent};
pub use wire::{Frame, FrameReader, WireError};
