//! Property-based tests for the HyParView state machine invariants.
//!
//! These drive a single protocol instance with arbitrary message sequences
//! and check the structural invariants that Algorithm 1 must preserve no
//! matter what the network throws at the node.

use hyparview_core::{Actions, Config, HyParView, MembershipEvent, Message, Priority};
use proptest::prelude::*;

type Node = HyParView<u32>;

const ME: u32 = 0;

/// Arbitrary peer ids, excluding our own id now and then deliberately NOT
/// excluded — the protocol must tolerate self-referential garbage.
fn peer_id() -> impl Strategy<Value = u32> {
    0u32..32
}

fn arb_message() -> impl Strategy<Value = Message<u32>> {
    prop_oneof![
        Just(Message::Join),
        (peer_id(), 0u8..8).prop_map(|(new_node, ttl)| Message::ForwardJoin { new_node, ttl }),
        Just(Message::ForwardJoinReply),
        prop_oneof![Just(Priority::High), Just(Priority::Low)]
            .prop_map(|priority| Message::Neighbor { priority }),
        any::<bool>().prop_map(|accepted| Message::NeighborReply { accepted }),
        Just(Message::Disconnect),
        (peer_id(), 0u8..8, proptest::collection::vec(peer_id(), 0..8))
            .prop_map(|(origin, ttl, nodes)| Message::Shuffle { origin, ttl, nodes }),
        proptest::collection::vec(peer_id(), 0..8)
            .prop_map(|nodes| Message::ShuffleReply { nodes }),
    ]
}

#[derive(Debug, Clone)]
enum Input {
    Msg { from: u32, message: Message<u32> },
    Tick,
    PeerFailed(u32),
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        6 => (peer_id(), arb_message())
            .prop_map(|(from, message)| Input::Msg { from, message }),
        1 => Just(Input::Tick),
        2 => peer_id().prop_map(Input::PeerFailed),
    ]
}

fn check_invariants(node: &Node) {
    let active = node.active_view().to_vec();
    let passive = node.passive_view().to_vec();

    // Bounded views.
    assert!(active.len() <= node.config().active_capacity, "active view over capacity");
    assert!(passive.len() <= node.config().passive_capacity, "passive view over capacity");

    // No self references.
    assert!(!active.contains(&ME), "own id in active view");
    assert!(!passive.contains(&ME), "own id in passive view");

    // No duplicates inside a view.
    let mut a = active.clone();
    a.sort_unstable();
    a.dedup();
    assert_eq!(a.len(), active.len(), "duplicate in active view");
    let mut p = passive.clone();
    p.sort_unstable();
    p.dedup();
    assert_eq!(p.len(), passive.len(), "duplicate in passive view");

    // The views are disjoint.
    for id in &active {
        assert!(!passive.contains(id), "{id} present in both views");
    }
}

/// The paper's configuration, or the same with every overlay defense on.
fn config(hardened: bool) -> Config {
    if hardened {
        Config::hardened()
    } else {
        Config::default()
    }
}

/// No defense decision drained from `node` names the node itself.
fn check_events(node: &mut Node) {
    for event in node.take_events() {
        if let MembershipEvent::JoinDamped { peer }
        | MembershipEvent::NeighborDamped { peer }
        | MembershipEvent::TenureSwapped { peer } = event
        {
            assert_ne!(peer, ME, "defense decision about the node itself: {event:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The view invariants hold after any sequence of inputs.
    #[test]
    fn views_stay_well_formed(
        inputs in proptest::collection::vec(arb_input(), 0..120),
        seed in any::<u64>(),
        hardened in any::<bool>(),
    ) {
        let mut node = Node::new(ME, config(hardened), seed).unwrap();
        let mut actions = Actions::new();
        for input in inputs {
            match input {
                Input::Msg { from, message } => node.handle_message(from, message, &mut actions),
                Input::Tick => node.shuffle_tick(&mut actions),
                Input::PeerFailed(p) => node.on_peer_failed(p, &mut actions),
            }
            check_invariants(&node);
            check_events(&mut node);
            actions.drain().count();
        }
    }

    /// The protocol never emits a message addressed to the node itself.
    #[test]
    fn never_sends_to_self(
        inputs in proptest::collection::vec(arb_input(), 0..120),
        seed in any::<u64>(),
        hardened in any::<bool>(),
    ) {
        let mut node = Node::new(ME, config(hardened), seed).unwrap();
        let mut actions = Actions::new();
        for input in inputs {
            match input {
                Input::Msg { from, message } => node.handle_message(from, message, &mut actions),
                Input::Tick => node.shuffle_tick(&mut actions),
                Input::PeerFailed(p) => node.on_peer_failed(p, &mut actions),
            }
            check_events(&mut node);
            for (to, _) in actions.drain() {
                prop_assert_ne!(to, ME, "protocol sent a message to itself");
            }
        }
    }

    /// Identical seeds and inputs produce identical action traces.
    #[test]
    fn deterministic_under_seed(inputs in proptest::collection::vec(arb_input(), 0..60), seed in any::<u64>()) {
        let run = |seed: u64, inputs: &[Input]| -> Vec<String> {
            let mut node = Node::new(ME, Config::default(), seed).unwrap();
            let mut actions = Actions::new();
            let mut trace = Vec::new();
            for input in inputs {
                match input.clone() {
                    Input::Msg { from, message } => node.handle_message(from, message, &mut actions),
                    Input::Tick => node.shuffle_tick(&mut actions),
                    Input::PeerFailed(p) => node.on_peer_failed(p, &mut actions),
                }
                for a in actions.drain() {
                    trace.push(format!("{a:?}"));
                }
            }
            trace
        };
        prop_assert_eq!(run(seed, &inputs), run(seed, &inputs));
    }

    /// A burst of joins never overflows the active view and each join
    /// either lands in the active view or triggers forward walks.
    #[test]
    fn joins_bounded(joiners in proptest::collection::vec(1u32..64, 1..40), seed in any::<u64>()) {
        let mut node = Node::new(ME, Config::default(), seed).unwrap();
        let mut actions = Actions::new();
        for j in &joiners {
            node.handle_message(*j, Message::Join, &mut actions);
            prop_assert!(node.active_view().len() <= node.config().active_capacity);
            prop_assert!(node.active_view().contains(j), "fresh joiner always admitted");
            actions.drain().count();
        }
    }

    /// Shuffle replies never grow the passive view beyond capacity and the
    /// reply sent on shuffle acceptance is bounded by request size + 1.
    #[test]
    fn shuffle_reply_bounded(
        nodes in proptest::collection::vec(1u32..200, 0..16),
        seed in any::<u64>(),
    ) {
        let mut node = Node::new(ME, Config::default(), seed).unwrap();
        let mut actions = Actions::new();
        node.handle_message(1, Message::Join, &mut actions);
        node.handle_message(2, Message::Join, &mut actions);
        // Preload passive view.
        node.handle_message(1, Message::ShuffleReply { nodes: (100..140).collect() }, &mut actions);
        actions.drain().count();
        let request_len = nodes.len();
        node.handle_message(2, Message::Shuffle { origin: 99, ttl: 1, nodes }, &mut actions);
        for (to, message) in actions.drain() {
            if let Message::ShuffleReply { nodes } = message {
                prop_assert_eq!(to, 99);
                prop_assert!(nodes.len() <= request_len + 1);
            }
        }
        prop_assert!(node.passive_view().len() <= node.config().passive_capacity);
    }
}
