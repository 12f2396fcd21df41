//! A flood whose duplicate-suppression window is overrun, on the loopback
//! interface. A test binary of its own: the storm it provokes at first
//! keeps a reactor thread busy for seconds, which must not slow the
//! convergence tests of `cluster.rs`.

use hyparview_core::Config;
use hyparview_graph::{connectivity, one_sided_links, Overlay};
use hyparview_net::{Cluster, NetConfig, Node, MAX_FLOOD_HOPS};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Whether every link is symmetric and the union graph connected: only
/// then is a flood guaranteed to reach everyone.
fn overlay_ready(nodes: &[Node]) -> bool {
    let addrs: Vec<_> = nodes.iter().map(|n| n.addr()).collect();
    let mut views = Vec::with_capacity(nodes.len());
    for node in nodes {
        let view = node.active_view().into_iter().map(|peer| addrs.iter().position(|a| *a == peer));
        let Some(view) = view.collect() else { return false };
        views.push(Some(view));
    }
    let overlay = Overlay::new(views);
    one_sided_links(&overlay).is_empty() && connectivity(&overlay).is_connected()
}

/// An id that has left a node's duplicate-suppression window is delivered
/// and flooded again when a late copy of it arrives. With more ids in
/// flight than the window holds, those second floods once made late copies
/// of their own without end, and the hop counts grew without end with
/// them. A copy now travels at most `MAX_FLOOD_HOPS` hops, so every chain
/// ends and the cluster falls quiet, however small the window. The
/// delivery channels are drained throughout, as an application would.
#[test]
fn flood_copies_past_the_dedup_window_die_out() {
    const N: usize = 60;
    const BROADCASTS: usize = 16;
    let cluster = Cluster::new().unwrap();
    let mut nodes: Vec<Node> = Vec::with_capacity(N);
    for i in 0..N {
        let cfg = NetConfig {
            protocol: Config::default().with_active_capacity(4).with_passive_capacity(16),
            shuffle_interval: Duration::from_secs(1),
            seed: Some(900 + i as u64),
            dedup_capacity: 4,
            ..NetConfig::default()
        };
        let node = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), cfg).expect("spawn node");
        if i > 0 {
            node.join(nodes[i / 2].addr());
        }
        nodes.push(node);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while !overlay_ready(&nodes) {
        assert!(Instant::now() < deadline, "the overlay did not converge");
        std::thread::sleep(Duration::from_millis(25));
    }
    let ids: Vec<u128> =
        nodes.iter().take(BROADCASTS).map(|node| node.broadcast(vec![7; 64])).collect();
    let mut reached = HashSet::new();
    let (mut delivered, mut last, start) = (0, Instant::now(), Instant::now());
    while last.elapsed() < Duration::from_millis(500) {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "{delivered} deliveries of {BROADCASTS} broadcasts to {N} nodes and still going"
        );
        std::thread::sleep(Duration::from_millis(25));
        for (node, delivery) in nodes
            .iter()
            .enumerate()
            .flat_map(|(i, node)| node.deliveries().try_iter().map(move |d| (i, d)))
        {
            assert!(delivery.hops <= MAX_FLOOD_HOPS, "a copy delivered at hop {}", delivery.hops);
            reached.insert((node, delivery.id));
            delivered += 1;
            last = Instant::now();
        }
    }
    assert_eq!(reached.len(), BROADCASTS * N, "every node delivered every id");
    assert!(reached.iter().all(|(_, id)| ids.contains(id)));
}
