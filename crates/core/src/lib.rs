//! # hyparview-core
//!
//! A faithful, sans-io Rust implementation of **HyParView** — the *Hybrid
//! Partial View* membership protocol for reliable gossip-based broadcast
//! (João Leitão, José Pereira, Luís Rodrigues; DSN 2007 / DI-FCUL TR-07-13).
//!
//! HyParView maintains two partial views at every node:
//!
//! * a small, **symmetric active view** (size `fanout + 1`) over which
//!   broadcasts are *deterministically flooded*, with the transport (TCP)
//!   doubling as a fast failure detector, and
//! * a larger **passive view**, refreshed by periodic shuffles, holding
//!   backup peers that are promoted into the active view when members fail.
//!
//! This combination recovers broadcast reliability within a couple of
//! membership rounds even when up to 90% of all nodes crash simultaneously.
//!
//! ## Design
//!
//! [`HyParView`] is a pure state machine: event handlers consume inputs
//! (messages, timer ticks, transport failure notifications), append the
//! messages to send to the caller's [`Outbox`] (HyParView's is named
//! [`Actions`]) and buffer defense decisions as [`MembershipEvent`]s. The
//! baseline protocols and the broadcast layers fill the same [`Outbox`].
//! Wall clocks, sockets and threads live in the embedding runtime — see the
//! `hyparview-sim` crate for a discrete-event simulator and `hyparview-net`
//! for a real TCP runtime.
//!
//! ## Quickstart
//!
//! ```
//! use hyparview_core::{Actions, Config, HyParView};
//!
//! # fn main() -> Result<(), hyparview_core::ConfigError> {
//! // Two nodes; node 1 joins through contact node 0.
//! let mut contact = HyParView::new(0u32, Config::default(), 1)?;
//! let mut joiner = HyParView::new(1u32, Config::default(), 2)?;
//!
//! let mut actions = Actions::new();
//! joiner.join(0, &mut actions);
//!
//! // A runtime would now ship the JOIN message; do it by hand here.
//! let mut replies = Actions::new();
//! for (to, message) in actions.drain() {
//!     assert_eq!(to, 0);
//!     contact.handle_message(1, message, &mut replies);
//! }
//! assert!(contact.active_view().contains(&1));
//! assert!(joiner.active_view().contains(&0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collections;
pub mod config;
pub mod id;
pub mod message;
pub mod outbox;
pub mod protocol;
pub mod stats;
pub mod view;

pub use collections::RecentSet;
pub use config::{Config, ConfigError};
pub use id::{Identity, SimId};
pub use message::{Message, MessageKind, Priority};
pub use outbox::{MembershipEvent, Outbox};
pub use protocol::{Actions, HyParView};
pub use stats::Stats;
