//! The peer-sampling abstraction shared by every membership protocol.
//!
//! The paper evaluates four membership services (HyParView, Cyclon, Scamp,
//! CyclonAcked) under one gossip broadcast protocol. [`Membership`] is the
//! seam that makes that comparison possible: the simulator and the broadcast
//! layer are generic over it and never know which protocol is running.

use hyparview_core::Identity;
// The seam's two data types live in `hyparview-core`, where HyParView fills
// them directly; they stay nameable from here.
pub use hyparview_core::{MembershipEvent, Outbox};
use std::fmt;

/// A membership protocol (peer sampling service) as used by the paper's
/// gossip broadcast protocol.
///
/// Implementations: `HyParViewMembership` (this crate),
/// `Cyclon`, `Scamp` and `CyclonAcked` (crate `hyparview-baselines`).
pub trait Membership<I: Identity> {
    /// The protocol's wire message type.
    type Message: Clone + fmt::Debug;

    /// This node's identifier.
    fn me(&self) -> I;

    /// Human-readable protocol name (used in experiment output).
    fn protocol_name(&self) -> &'static str;

    /// Joins the overlay through `contact`.
    fn join(&mut self, contact: I, out: &mut Outbox<I, Self::Message>);

    /// Handles a membership message received from `from`.
    fn handle_message(
        &mut self,
        from: I,
        message: Self::Message,
        out: &mut Outbox<I, Self::Message>,
    );

    /// Executes one cycle of the protocol's periodic behaviour (shuffle for
    /// HyParView/Cyclon, lease/heartbeat bookkeeping for Scamp).
    fn on_cycle(&mut self, out: &mut Outbox<I, Self::Message>);

    /// Whether this protocol learns about failed peers when a send to them
    /// fails (TCP as failure detector / explicit acknowledgements).
    ///
    /// `false` for plain Cyclon and Scamp: their sends to dead peers vanish
    /// silently, exactly like UDP datagrams.
    fn detects_send_failures(&self) -> bool {
        false
    }

    /// Notification that the transport could not deliver to `peer`.
    ///
    /// Only invoked when [`Membership::detects_send_failures`] is `true`.
    fn on_send_failed(&mut self, _peer: I, _out: &mut Outbox<I, Self::Message>) {}

    /// Gossip targets for disseminating one message.
    ///
    /// Probabilistic protocols sample `fanout` peers at random from their
    /// partial view, excluding `exclude` (the peer the message came from).
    /// HyParView ignores `fanout` and returns its whole active view minus
    /// `exclude` — broadcast is a deterministic flood (§4.1.ii).
    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<I>) -> Vec<I>;

    /// Peers this node keeps an *open connection* to (HyParView's active
    /// view). When such a peer crashes the transport notices the broken
    /// connection without waiting for a send — the runtime then calls
    /// [`Membership::on_send_failed`]. Connectionless protocols (Cyclon,
    /// Scamp) return an empty list: they only learn about dead peers when a
    /// transmission to them fails.
    fn connected_peers(&self) -> Vec<I> {
        Vec::new()
    }

    /// A replacement gossip target after a failed send, for protocols that
    /// acknowledge gossip and re-select. Used only when the runtime enables
    /// retry (an ablation — the paper's CyclonAcked cleans its view but does
    /// not retransmit).
    fn retry_target(&mut self, _exclude: &[I]) -> Option<I> {
        None
    }

    /// The node's current out-neighbors, used for overlay graph snapshots.
    /// For HyParView this is the active view (the paper's Table 1 footnote:
    /// "results for HyParView concern its active view").
    fn out_view(&self) -> Vec<I>;

    /// The node's passive/backup view if the protocol keeps one (metrics
    /// and debugging only).
    fn backup_view(&self) -> Vec<I> {
        Vec::new()
    }

    /// Drains membership events (defense decisions, attacker actions)
    /// buffered since the last call. Metrics/tracing only — consuming or
    /// ignoring them never changes protocol behaviour. Default: none.
    fn take_events(&mut self) -> Vec<MembershipEvent<I>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_preserves_order() {
        let mut out: Outbox<u32, &'static str> = Outbox::new();
        out.send(1, "a");
        out.send(2, "b");
        assert_eq!(out.len(), 2);
        assert!(!out.is_empty());
        let drained: Vec<_> = out.drain().collect();
        assert_eq!(drained, vec![(1, "a"), (2, "b")]);
        assert!(out.is_empty());
    }

    #[test]
    fn outbox_as_slice_reflects_queue() {
        let mut out: Outbox<u32, u8> = Outbox::default();
        out.send(9, 255);
        assert_eq!(out.as_slice(), &[(9, 255)]);
    }
}
