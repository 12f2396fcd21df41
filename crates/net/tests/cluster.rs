//! End-to-end tests of the TCP runtime on the loopback interface: the
//! reproduction's stand-in for the paper's planned PlanetLab deployment.

use hyparview_graph::{connectivity, one_sided_links, Overlay};
use hyparview_net::{BroadcastMode, Cluster, NetConfig, Node, PayloadTooLarge, MAX_PAYLOAD_LEN};
use std::time::{Duration, Instant};

fn config() -> NetConfig {
    NetConfig {
        shuffle_interval: Duration::from_millis(100),
        seed: Some(7),
        ..NetConfig::default()
    }
}

fn spawn_cluster_with<F: Fn() -> NetConfig>(n: usize, make: F) -> Vec<Node> {
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mut cfg = make();
        cfg.seed = Some(100 + i as u64);
        let node = Node::spawn("127.0.0.1:0".parse().unwrap(), cfg).expect("spawn node");
        if let Some(contact) = nodes.first() {
            let contact: &Node = contact;
            node.join(contact.addr());
        }
        nodes.push(node);
    }
    nodes
}

fn spawn_cluster(n: usize) -> Vec<Node> {
    spawn_cluster_with(n, config)
}

fn wait_until<F: FnMut() -> bool>(timeout: Duration, mut cond: F) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

/// The overlay is ready when every link is symmetric and the union graph is
/// connected — only then is a flood guaranteed to reach everyone. A link
/// to an address outside the cluster is not ready either.
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

fn wait_for_overlay(nodes: &[Node]) {
    assert!(
        wait_until(Duration::from_secs(10), || overlay_ready(nodes)),
        "overlay did not converge: {:?}",
        nodes.iter().map(|n| (n.addr(), n.active_view())).collect::<Vec<_>>()
    );
}

#[test]
fn two_nodes_become_neighbors() {
    let nodes = spawn_cluster(2);
    assert!(
        wait_until(Duration::from_secs(5), || {
            nodes[0].active_view().contains(&nodes[1].addr())
                && nodes[1].active_view().contains(&nodes[0].addr())
        }),
        "join did not produce a symmetric link: {:?} / {:?}",
        nodes[0].active_view(),
        nodes[1].active_view()
    );
}

#[test]
fn broadcast_reaches_every_node() {
    let n = 8;
    let nodes = spawn_cluster(n);
    wait_for_overlay(&nodes);

    let id = nodes[0].broadcast(b"flood me".to_vec());
    for (i, node) in nodes.iter().enumerate() {
        let delivery = node
            .deliveries()
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("node {i} missed the broadcast"));
        assert_eq!(delivery.id, id);
        assert_eq!(delivery.payload.as_ref(), b"flood me");
    }
}

/// A payload no frame can carry is refused at the origin. Sent anyway, every
/// neighbour's reader would answer the oversized frame by dropping the
/// connection and evicting the origin from its active view.
#[test]
fn oversized_broadcast_is_refused_at_the_origin() {
    let nodes = spawn_cluster(3);
    wait_for_overlay(&nodes);
    let full_views = |nodes: &[Node]| nodes.iter().all(|n| n.active_view().len() == 2);
    assert!(wait_until(Duration::from_secs(5), || full_views(&nodes)));

    let len = MAX_PAYLOAD_LEN + 1;
    assert_eq!(nodes[0].try_broadcast(vec![0; len]), Err(PayloadTooLarge { len }));
    // Several shuffle intervals: time for an eviction to show, had the
    // frame gone out.
    std::thread::sleep(Duration::from_millis(500));
    assert!(full_views(&nodes), "every active view is intact");
    assert_eq!(nodes[0].delivery_count(), 0, "nothing was delivered locally");

    let id = nodes[0].broadcast(vec![0x5A; MAX_PAYLOAD_LEN]);
    for (i, node) in nodes.iter().enumerate() {
        let delivery = node
            .deliveries()
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("node {i} missed the largest broadcast"));
        assert_eq!(delivery.id, id);
        assert_eq!(delivery.payload.len(), MAX_PAYLOAD_LEN);
    }
    assert!(full_views(&nodes));
}

#[test]
fn multiple_broadcasts_are_deduplicated() {
    let nodes = spawn_cluster(5);
    wait_for_overlay(&nodes);

    let mut ids = Vec::new();
    for i in 0..10 {
        ids.push(nodes[i % nodes.len()].broadcast(format!("msg-{i}").into_bytes()));
    }
    for (i, node) in nodes.iter().enumerate() {
        let mut got = Vec::new();
        while got.len() < ids.len() {
            match node.deliveries().recv_timeout(Duration::from_secs(5)) {
                Ok(d) => got.push(d.id),
                Err(_) => panic!("node {i} only saw {}/{} messages", got.len(), ids.len()),
            }
        }
        got.sort_unstable();
        let mut expected = ids.clone();
        expected.sort_unstable();
        assert_eq!(got, expected, "node {i} delivered a wrong/duplicated set");
    }
}

#[test]
fn crash_is_detected_and_view_repairs() {
    let nodes = spawn_cluster(6);
    wait_for_overlay(&nodes);

    // Run a few shuffles so passive views fill.
    std::thread::sleep(Duration::from_millis(600));

    let victim_addr = nodes[1].addr();
    let victim = nodes.into_iter().nth(1).unwrap();
    // Crash the victim and watch a dedicated survivor notice and repair.
    let watcher = Node::spawn("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    watcher.join(victim_addr);
    assert!(wait_until(Duration::from_secs(5), || watcher.active_view().contains(&victim_addr)));

    victim.shutdown(); // closes all its connections

    assert!(
        wait_until(Duration::from_secs(10), || !watcher.active_view().contains(&victim_addr)),
        "watcher never evicted the crashed peer: {:?}",
        watcher.active_view()
    );
}

#[test]
fn graceful_leave_then_shutdown_clears_views() {
    let mut nodes = spawn_cluster(3);
    wait_for_overlay(&nodes);
    let leaver = nodes.pop().unwrap();
    let leaver_addr = leaver.addr();
    // A graceful departure is leave (DISCONNECT to all active peers)
    // followed by shutdown. Note that leave alone is *not* enough for the
    // overlay to forget a node: survivors move it to their passive views
    // and may immediately promote it back — by design (§4.5).
    leaver.leave();
    std::thread::sleep(Duration::from_millis(200));
    leaver.shutdown();
    assert!(
        wait_until(Duration::from_secs(10), || {
            nodes.iter().all(|n| !n.active_view().contains(&leaver_addr))
        }),
        "leaver still present in active views"
    );
}

#[test]
fn plumtree_broadcast_reaches_every_node() {
    let nodes = spawn_cluster_with(8, || config().with_broadcast_mode(BroadcastMode::Plumtree));
    wait_for_overlay(&nodes);

    // Several rounds: the first broadcasts prune the overlay into a tree,
    // later ones must still reach everyone (over fewer payload links).
    for round in 0..5 {
        let payload = format!("tree-{round}").into_bytes();
        let id = nodes[round % nodes.len()].broadcast(payload.clone());
        for (i, node) in nodes.iter().enumerate() {
            let delivery = node
                .deliveries()
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("node {i} missed plumtree broadcast {round}"));
            assert_eq!(delivery.id, id);
            assert_eq!(delivery.payload.as_ref(), payload.as_slice());
        }
    }
}

#[test]
fn plumtree_eager_links_stay_within_active_view() {
    let nodes = spawn_cluster_with(6, || config().with_broadcast_mode(BroadcastMode::Plumtree));
    wait_for_overlay(&nodes);
    for (i, node) in nodes.iter().take(3).enumerate() {
        node.broadcast(format!("warm-{i}").into_bytes());
    }
    // Drain all deliveries so the traffic quiesces.
    for node in &nodes {
        for _ in 0..3 {
            let _ = node.deliveries().recv_timeout(Duration::from_secs(5));
        }
    }
    // A node's eager set may legitimately be *empty* at quiescence (its
    // last payload exchanges all ended in Prunes; only the next broadcast
    // re-promotes its parent), so each polling round sends a fresh probe
    // broadcast before evaluating. The per-node snapshot is taken under a
    // single lock — separate accessor calls can mix event-loop iterations.
    let consistent = |attempt: usize| {
        let _ = nodes[0].broadcast(format!("probe-{attempt}").into_bytes());
        std::thread::sleep(Duration::from_millis(150));
        for node in &nodes {
            while node.deliveries().try_recv().is_ok() {}
        }
        nodes.iter().all(|n| {
            let (active, eager, lazy) = n.broadcast_links();
            !eager.is_empty()
                && eager.iter().all(|p| active.contains(p) && !lazy.contains(p))
                && lazy.iter().all(|p| active.contains(p))
        })
    };
    assert!(
        (0..40).any(consistent),
        "eager/lazy sets inconsistent with active views: {:?}",
        nodes
            .iter()
            .map(|n| (n.addr(), n.active_view(), n.eager_peers(), n.lazy_peers()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn default_netconfig_enables_adaptive_plumtree() {
    // The runtime's defaults carry the §3.8 adaptive behavior (tree
    // optimization + lazy batching); the simulator's PlumtreeConfig stays
    // static for paper fidelity.
    let defaults = NetConfig::default();
    assert_eq!(
        defaults.plumtree.optimization_threshold,
        Some(hyparview_net::DEFAULT_OPTIMIZATION_THRESHOLD),
        "tree optimization must be on by default in the TCP runtime"
    );
    assert_eq!(
        defaults.plumtree.lazy_flush_interval,
        hyparview_net::DEFAULT_LAZY_FLUSH_INTERVAL,
        "lazy batching must be on by default in the TCP runtime"
    );
    assert_eq!(
        hyparview_net::PlumtreeConfig::default().optimization_threshold,
        None,
        "the restore-paper-fidelity escape hatch must stay static"
    );
}

#[test]
fn adaptive_default_plumtree_broadcast_reaches_every_node() {
    // The stock NetConfig now ships tree optimization + lazy batching on:
    // every broadcast must still deliver everywhere, and once one broadcast
    // has carved the tree, a burst from the same origin must reach the lazy
    // links as IHaveBatch frames. Twelve nodes with active views of 5 keep
    // the overlay from being a complete graph, where every node hears each
    // payload from the origin first and has nothing to announce.
    let nodes = spawn_cluster_with(12, || config().with_broadcast_mode(BroadcastMode::Plumtree));
    wait_for_overlay(&nodes);
    for (round, burst) in [1, 8].into_iter().enumerate() {
        let mut sent: Vec<(u128, Vec<u8>)> = (0..burst)
            .map(|m| format!("adaptive-{round}-{m}").into_bytes())
            .map(|payload| (nodes[0].broadcast(payload.clone()), payload))
            .collect();
        sent.sort_unstable();
        for (i, node) in nodes.iter().enumerate() {
            let mut got: Vec<(u128, Vec<u8>)> = (0..burst)
                .map(|_| {
                    let delivery = node
                        .deliveries()
                        .recv_timeout(Duration::from_secs(5))
                        .unwrap_or_else(|_| panic!("node {i} missed adaptive round {round}"));
                    (delivery.id, delivery.payload.to_vec())
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, sent, "node {i}, round {round}");
        }
    }
    let batches = || nodes.iter().map(|n| n.stats().ihave_batch_frames_sent).sum::<u64>();
    assert!(
        wait_until(Duration::from_secs(5), || batches() > 0),
        "a burst of broadcasts over a carved tree sent no IHaveBatch frame"
    );
}

#[test]
fn static_plumtree_config_restores_paper_fidelity() {
    // Opting back out of the adaptive defaults (the paper's static trees)
    // must keep working: `.with_plumtree(PlumtreeConfig::default())`.
    let nodes = spawn_cluster_with(5, || {
        config()
            .with_broadcast_mode(BroadcastMode::Plumtree)
            .with_plumtree(hyparview_net::PlumtreeConfig::default())
    });
    wait_for_overlay(&nodes);
    for round in 0..3 {
        let payload = format!("static-{round}").into_bytes();
        let id = nodes[round % nodes.len()].broadcast(payload.clone());
        for (i, node) in nodes.iter().enumerate() {
            let delivery = node
                .deliveries()
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("node {i} missed static broadcast {round}"));
            assert_eq!(delivery.id, id);
            assert_eq!(delivery.payload.as_ref(), payload.as_slice());
        }
    }
}

#[test]
fn deliveries_report_hop_counts() {
    let nodes = spawn_cluster(4);
    wait_for_overlay(&nodes);
    nodes[0].broadcast(b"hops".to_vec());
    let own = nodes[0].deliveries().recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(own.hops, 0, "origin delivers at hop 0");
    let remote = nodes[1].deliveries().recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(remote.hops >= 1);
}

/// `spawn_node` returns without waiting for the reactor, so 200 nodes
/// spawned and joined back to back (each through a seeded random earlier
/// node, no wait between them) are queued to a reactor still busy with
/// the first joins, and the overlay still converges.
#[test]
fn back_to_back_spawns_on_one_cluster_converge() {
    let cluster = Cluster::new().unwrap();
    let mut nodes: Vec<Node> = Vec::with_capacity(200);
    let mut draw = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..200 {
        let cfg = NetConfig { seed: Some(500 + i as u64), ..NetConfig::default() };
        let node = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), cfg).expect("spawn node");
        if i > 0 {
            draw = draw
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            node.join(nodes[(draw >> 33) as usize % i].addr());
        }
        nodes.push(node);
    }
    assert!(
        wait_until(Duration::from_secs(30), || overlay_ready(&nodes)),
        "200 back-to-back spawns did not converge within 30 s"
    );
}

/// A bind error is returned synchronously and leaves the cluster usable:
/// the next node it spawns still joins (its index was not skipped).
#[test]
fn failed_bind_leaves_the_cluster_usable() {
    let cluster = Cluster::new().unwrap();
    let first = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    let err = cluster.spawn_node(first.addr(), config()).expect_err("the address is in use");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    let second = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    second.join(first.addr());
    let nodes = [first, second];
    wait_for_overlay(&nodes);
}
