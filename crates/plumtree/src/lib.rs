//! # hyparview-plumtree
//!
//! **Plumtree** — *epidemic broadcast trees* — over the HyParView overlay:
//! the broadcast protocol the HyParView authors designed the overlay to
//! carry (Leitão, Pereira, Rodrigues, SRDS 2007).
//!
//! The paper's evaluation disseminates broadcasts with an eager flood whose
//! steady-state cost is roughly `fanout × N` payload transmissions per
//! message. Plumtree keeps the flood's reliability while cutting the
//! redundancy to near zero: each node splits its (symmetric, active-view)
//! neighbors into an **eager** set, which receives the full payload
//! immediately, and a **lazy** set, which only receives an `IHave`
//! announcement. The first broadcasts prune redundant eager links
//! (`Prune`), leaving a spanning tree embedded in the overlay; when a tree
//! link fails, a missing-message timer fires at the node that saw an
//! `IHave` without the payload and a `Graft` pulls the message — and the
//! link back into the tree — from the announcer.
//!
//! The paper's *adaptive* mechanisms (§3.8) are available behind two
//! [`PlumtreeConfig`] knobs: **tree optimization**
//! ([`PlumtreeConfig::optimization_threshold`]) swaps a shorter lazy path
//! into the tree when an `IHave`'s round beats the eager delivery round by
//! the threshold, and **lazy-link batching**
//! ([`PlumtreeConfig::lazy_flush_interval`]) queues announcements per peer
//! and flushes them as one [`PlumtreeMessage::IHaveBatch`] frame. A third
//! knob, [`PlumtreeConfig::graft_retry_limit`], bounds `Graft` retries for
//! messages whose announcers never answer (partitioned overlays) and
//! counts the abandoned ids in [`PlumtreeStats::graft_dead_letters`].
//!
//! Like `hyparview-core`, this crate is **sans-io**: [`PlumtreeState`] is a
//! pure state machine that consumes events (messages, timer expirations,
//! neighbor changes from any [`Membership`] implementation) and emits
//! effects through a [`PlumtreeOut`] buffer — sends via the same `Outbox`
//! that HyParView fills, local deliveries, and timer requests.
//!
//! The crate also holds the one place where a node is put together:
//! [`node`]'s [`NodeCore`] composes any [`Membership`] with the paper's
//! eager flood or with [`PlumtreeState`] (tree links follow the membership
//! view), and emits every effect through a [`NodeCtx`]. It lives here
//! because this is the lowest crate that sees both layers. The
//! discrete-event simulator (`hyparview-sim`) implements the context over
//! its event queue, mapping timer requests to cycle-delayed events; the TCP
//! runtime (`hyparview-net`) implements it over the wire codec, mapping
//! them to wall-clock deadlines.
//!
//! ## Quickstart
//!
//! ```
//! use hyparview_plumtree::{PlumtreeConfig, PlumtreeOut, PlumtreeState};
//!
//! let mut node: PlumtreeState<u32, &'static str> =
//!     PlumtreeState::new(0, PlumtreeConfig::default());
//! node.on_neighbor_up(1);
//! node.on_neighbor_up(2);
//!
//! let mut out = PlumtreeOut::new();
//! node.broadcast(7, "hello", &mut out);
//! assert_eq!(out.deliveries.len(), 1, "origin delivers locally");
//! assert_eq!(out.outbox.len(), 2, "payload eager-pushed to both neighbors");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod message;
pub mod node;
pub mod state;

pub use config::{BroadcastMode, PlumtreeConfig};
// What a runtime names when it implements [`NodeCtx`] for HyParView nodes,
// so it need not depend on `hyparview-gossip` itself.
pub use hyparview_gossip::{HyParViewMembership, Membership, MembershipEvent};
pub use message::{Announcement, MsgId, PlumtreeMessage};
pub use node::{FrameCounters, NodeCore, NodeCtx, Scratch};
pub use state::{
    PlumtreeDelivery, PlumtreeOut, PlumtreeState, PlumtreeStats, PlumtreeTimer, TimerRequest,
    MAX_IHAVE_BATCH,
};
