//! CyclonAcked: Cyclon plus dissemination-time failure detection (§5).
//!
//! The paper introduces this benchmark to separate the two ingredients of
//! HyParView's resilience: "CyclonAcked is able to detect a failed node when
//! it attempts to gossip to it and, therefore, is able to remove failed
//! members from partial views". It shows that fast failure detection alone
//! recovers much of the reliability (up to ~70% failures) but not all of it
//! — the symmetric active view is needed beyond that.

use crate::config::CyclonConfig;
use crate::cyclon::{Cyclon, CyclonMessage};
use hyparview_core::Identity;
use hyparview_gossip::{Membership, Outbox};

/// Cyclon with acknowledged gossip: a failed send evicts the dead peer from
/// the view. The transmission is not retried, as in the paper.
///
/// # Examples
///
/// ```
/// use hyparview_baselines::{CyclonAcked, CyclonConfig};
/// use hyparview_gossip::Membership;
///
/// let node = CyclonAcked::new(1u32, CyclonConfig::default(), 7);
/// assert!(node.detects_send_failures());
/// ```
#[derive(Debug, Clone)]
pub struct CyclonAcked<I> {
    inner: Cyclon<I>,
}

impl<I: Identity> CyclonAcked<I> {
    /// Creates a CyclonAcked instance for node `me`.
    pub fn new(me: I, config: CyclonConfig, seed: u64) -> Self {
        CyclonAcked { inner: Cyclon::new(me, config, seed) }
    }

    /// Access to the wrapped Cyclon instance.
    pub fn inner(&self) -> &Cyclon<I> {
        &self.inner
    }
}

impl<I: Identity> Membership<I> for CyclonAcked<I> {
    type Message = CyclonMessage<I>;

    fn join(&mut self, contact: I, out: &mut Outbox<I, Self::Message>) {
        self.inner.join(contact, out);
    }

    fn handle_message(
        &mut self,
        from: I,
        message: Self::Message,
        out: &mut Outbox<I, Self::Message>,
    ) {
        self.inner.handle_message(from, message, out);
    }

    fn on_cycle(&mut self, out: &mut Outbox<I, Self::Message>) {
        self.inner.on_cycle(out);
    }

    fn detects_send_failures(&self) -> bool {
        true
    }

    /// The acknowledgement timed out: the peer is dead, expunge it. Unlike
    /// HyParView there is no passive view to promote a replacement from —
    /// the view only refills at the next shuffle.
    fn on_send_failed(&mut self, peer: I, _out: &mut Outbox<I, Self::Message>) {
        self.inner.remove_peer(peer);
    }

    fn broadcast_targets(&mut self, fanout: usize, exclude: Option<I>) -> Vec<I> {
        self.inner.broadcast_targets(fanout, exclude)
    }

    fn out_view(&self) -> Vec<I> {
        self.inner.out_view()
    }

    fn check_invariants(&self) {
        self.inner.check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclon::Entry;

    fn populated(id: u32) -> CyclonAcked<u32> {
        let mut n = CyclonAcked::new(id, CyclonConfig::default(), u64::from(id) + 1);
        let mut out = Outbox::new();
        for peer in 10..20 {
            n.handle_message(2, CyclonMessage::JoinReply { entry: Entry::fresh(peer) }, &mut out);
        }
        n
    }

    #[test]
    fn send_failure_evicts_peer() {
        let mut n = populated(5);
        let mut out = Outbox::new();
        assert!(n.out_view().contains(&12));
        n.on_send_failed(12, &mut out);
        assert!(!n.out_view().contains(&12));
        assert!(out.is_empty(), "no repair messages — Cyclon has no passive view");
    }

    #[test]
    fn delegation_preserves_cyclon_behaviour() {
        let mut n = CyclonAcked::new(1u32, CyclonConfig::default(), 7);
        let mut out = Outbox::new();
        n.join(0, &mut out);
        assert!(n.out_view().contains(&0));
        assert!(!out.is_empty());
    }

    #[test]
    fn cycle_delegates_to_cyclon_shuffle() {
        let mut n = populated(5);
        let mut out = Outbox::new();
        n.on_cycle(&mut out);
        assert!(out
            .as_slice()
            .iter()
            .any(|(_, m)| matches!(m, CyclonMessage::ShuffleRequest { .. })));
    }
}
