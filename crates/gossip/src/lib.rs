//! # hyparview-gossip
//!
//! The gossip-broadcast layer of the HyParView reproduction and the
//! [`Membership`] abstraction that lets one broadcast protocol run over any
//! of the paper's membership services (HyParView, Cyclon, Scamp,
//! CyclonAcked).
//!
//! The broadcast protocol is the one used throughout the paper's evaluation
//! (§5): *a node forwards a message to its gossip targets when it receives
//! it for the first time*. Reliability (§2.5) is the percentage of alive
//! nodes that deliver a broadcast.
//!
//! This crate is runtime-agnostic: [`GossipState`] and the report types do
//! the bookkeeping, while actual message shipping is owned by
//! `hyparview-sim` (discrete-event simulation) or `hyparview-net` (TCP).
//! The [`Outbox`] every protocol step fills and the [`MembershipEvent`]s it
//! reports are defined in `hyparview-core` and re-exported here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod broadcast;
pub mod hyparview_impl;
pub mod membership;

pub use adversary::{AttackerModel, AttackerRole, ATTACKER_REJOIN};
pub use broadcast::{BroadcastId, BroadcastReport, GossipState, ReliabilitySummary};
pub use hyparview_impl::HyParViewMembership;
pub use membership::{Membership, MembershipEvent, Outbox};
