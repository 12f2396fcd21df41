//! Effects requested by a sans-io membership protocol.
//!
//! Event handlers never touch sockets or clocks. Instead they append the
//! messages they want sent to an [`Outbox`] supplied by the caller, and
//! buffer the decisions worth counting as [`MembershipEvent`]s. The
//! embedding runtime (simulator, TCP runtime, tests) ships the one and
//! counts the other. This keeps every protocol deterministic and trivially
//! testable. HyParView, Cyclon, Scamp and CyclonAcked all fill the same
//! outbox; only the message type differs.

use crate::Identity;

/// Outgoing protocol messages produced by one protocol event, in FIFO
/// order.
///
/// # Examples
///
/// ```
/// use hyparview_core::{Message, Outbox};
///
/// let mut out: Outbox<u32, Message<u32>> = Outbox::new();
/// out.send(7, Message::Join);
/// let drained: Vec<(u32, Message<u32>)> = out.drain().collect();
/// assert_eq!(drained, vec![(7, Message::Join)]);
/// ```
#[derive(Debug, Clone)]
pub struct Outbox<I, M> {
    messages: Vec<(I, M)>,
}

impl<I: Identity, M> Default for Outbox<I, M> {
    fn default() -> Self {
        Outbox { messages: Vec::new() }
    }
}

impl<I: Identity, M> Outbox<I, M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `message` for delivery to `to`.
    pub fn send(&mut self, to: I, message: M) {
        self.messages.push((to, message));
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Drains the queued `(destination, message)` pairs in FIFO order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, (I, M)> {
        self.messages.drain(..)
    }

    /// Read-only view of the queued messages.
    pub fn as_slice(&self) -> &[(I, M)] {
        &self.messages
    }

    /// Mutable view of the queued messages, for a layer that rewrites what
    /// a protocol step queued before the runtime ships it.
    pub fn as_mut_slice(&mut self) -> &mut [(I, M)] {
        &mut self.messages
    }
}

/// An observable membership decision, buffered by the protocol and drained
/// through its `take_events`.
///
/// Covers both sides of the adversarial-membership experiments: defense
/// decisions made by honest nodes (damping, tenure swaps, shuffle boosts)
/// and attack actions taken by colluders (floods, churn re-joins, biased
/// shuffles). The runtime turns these into `attack.*` registry counters and
/// trace events. Metrics only: consuming or ignoring them never changes
/// protocol behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent<I> {
    /// A `JOIN` from `peer` was rejected because the same identifier was
    /// admitted within the last [`Config::admission_cooldown`] cycles.
    ///
    /// [`Config::admission_cooldown`]: crate::Config::admission_cooldown
    JoinDamped {
        /// The damped sender.
        peer: I,
    },
    /// A high-priority `NEIGHBOR` request from `peer` was rejected by the
    /// admission cooldown or the per-cycle eviction budget.
    NeighborDamped {
        /// The damped sender.
        peer: I,
    },
    /// `peer` was rotated out of the active view after exceeding
    /// [`Config::max_active_tenure`] cycles of membership.
    ///
    /// [`Config::max_active_tenure`]: crate::Config::max_active_tenure
    TenureSwapped {
        /// The rotated-out active-view member.
        peer: I,
    },
    /// An extra shuffle was sent because churn was observed this cycle.
    ShuffleBoosted,
    /// This (colluding) node sent an unsolicited high-priority `NEIGHBOR`
    /// request at `victim`.
    NeighborFlood {
        /// The targeted node.
        victim: I,
    },
    /// This (colluding) node churned: it re-`JOIN`ed through `contact` to
    /// re-roll earlier rejections.
    AttackerRejoin {
        /// The join contact.
        contact: I,
    },
    /// This (colluding) node rewrote an outgoing shuffle payload to
    /// advertise only colluders.
    ShuffleBiased,
}
