//! Property-based tests for the baseline protocols: view invariants under
//! arbitrary message sequences.

use hyparview_baselines::{
    Cyclon, CyclonAcked, CyclonConfig, CyclonMessage, Entry, Scamp, ScampConfig, ScampMessage,
};
use hyparview_gossip::{Membership, Outbox};
use proptest::prelude::*;

const ME: u32 = 0;

fn peer_id() -> impl Strategy<Value = u32> {
    0u32..48
}

fn arb_entry() -> impl Strategy<Value = Entry<u32>> {
    (peer_id(), 0u32..20).prop_map(|(id, age)| Entry { id, age })
}

fn arb_cyclon_message() -> impl Strategy<Value = CyclonMessage<u32>> {
    prop_oneof![
        proptest::collection::vec(arb_entry(), 0..15)
            .prop_map(|entries| CyclonMessage::ShuffleRequest { entries }),
        proptest::collection::vec(arb_entry(), 0..15)
            .prop_map(|entries| CyclonMessage::ShuffleReply { entries }),
        (peer_id(), 0u8..8).prop_map(|(joiner, ttl)| CyclonMessage::JoinWalk { joiner, ttl }),
        arb_entry().prop_map(|entry| CyclonMessage::JoinReply { entry }),
    ]
}

fn arb_scamp_message() -> impl Strategy<Value = ScampMessage<u32>> {
    prop_oneof![
        Just(ScampMessage::Subscribe),
        (peer_id(), 0u32..70)
            .prop_map(|(joiner, hops)| ScampMessage::ForwardedSubscription { joiner, hops }),
        Just(ScampMessage::AddedYou),
        Just(ScampMessage::Heartbeat),
        proptest::option::of(peer_id())
            .prop_map(|replacement| ScampMessage::Unsubscribe { replacement }),
    ]
}

/// The protocol's own invariants (`Membership::check_invariants`), plus
/// the one they leave out because it is quadratic in the view: no entry
/// repeats an id.
fn check_cyclon(node: &Cyclon<u32>) {
    node.check_invariants();
    let ids = node.view_ids();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), ids.len(), "duplicate entries in view");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn cyclon_view_invariants_hold(
        msgs in proptest::collection::vec((peer_id(), arb_cyclon_message()), 0..80),
        cycles in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut node = Cyclon::new(ME, CyclonConfig::default().with_view_capacity(12), seed);
        let mut out = Outbox::new();
        node.join(1, &mut out);
        for (from, msg) in msgs {
            node.handle_message(from, msg, &mut out);
            check_cyclon(&node);
            out.drain().count();
        }
        for _ in 0..cycles {
            node.on_cycle(&mut out);
            check_cyclon(&node);
            out.drain().count();
        }
    }

    #[test]
    fn cyclon_acked_removal_never_panics(
        msgs in proptest::collection::vec((peer_id(), arb_cyclon_message()), 0..40),
        failures in proptest::collection::vec(peer_id(), 0..20),
        seed in any::<u64>(),
    ) {
        let mut node = CyclonAcked::new(ME, CyclonConfig::default().with_view_capacity(12), seed);
        let mut out = Outbox::new();
        for (from, msg) in msgs {
            node.handle_message(from, msg, &mut out);
            check_cyclon(node.inner());
        }
        for peer in failures {
            node.on_send_failed(peer, &mut out);
            node.check_invariants();
            prop_assert!(!node.out_view().contains(&peer), "failed peer must leave the view");
        }
    }

    #[test]
    fn scamp_views_never_contain_self_or_duplicates(
        msgs in proptest::collection::vec((peer_id(), arb_scamp_message()), 0..80),
        cycles in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut node = Scamp::new(ME, ScampConfig::default(), seed);
        let mut out = Outbox::new();
        node.join(1, &mut out);
        for (from, msg) in msgs {
            node.handle_message(from, msg, &mut out);
            node.check_invariants();
            let pv = node.partial_view().to_vec();
            let mut dedup = pv.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), pv.len(), "duplicates in PartialView");
            out.drain().count();
        }
        for _ in 0..cycles {
            node.on_cycle(&mut out);
            node.check_invariants();
            out.drain().count();
        }
    }

    #[test]
    fn scamp_forwarded_subscriptions_terminate(
        hops in 0u32..100,
        joiner in 1u32..48,
        seed in any::<u64>(),
    ) {
        // A forwarded subscription must either be kept or forwarded with
        // hops + 1 — never amplified into multiple copies.
        let mut node = Scamp::new(ME, ScampConfig::default(), seed);
        let mut out = Outbox::new();
        node.handle_message(1, ScampMessage::AddedYou, &mut out);
        node.handle_message(1, ScampMessage::ForwardedSubscription { joiner: 40, hops: 64 }, &mut out);
        out.drain().count();
        node.handle_message(1, ScampMessage::ForwardedSubscription { joiner, hops }, &mut out);
        let sent: Vec<_> = out.drain().collect();
        prop_assert!(sent.len() <= 1, "amplification: {sent:?}");
        if let Some((_, ScampMessage::ForwardedSubscription { hops: h, .. })) = sent.first() {
            prop_assert_eq!(*h, hops + 1);
        }
    }

    #[test]
    fn cyclon_broadcast_targets_are_distinct_view_members(
        entries in proptest::collection::vec(arb_entry(), 0..30),
        fanout in 0usize..10,
        seed in any::<u64>(),
    ) {
        let mut node = Cyclon::new(ME, CyclonConfig::default(), seed);
        let mut out = Outbox::new();
        for e in entries {
            node.handle_message(9, CyclonMessage::JoinReply { entry: e }, &mut out);
        }
        let view = node.view_ids();
        let targets = node.broadcast_targets(fanout, Some(5));
        prop_assert!(targets.len() <= fanout);
        prop_assert!(!targets.contains(&5));
        let mut dedup = targets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), targets.len());
        for t in targets {
            prop_assert!(view.contains(&t));
        }
    }
}
