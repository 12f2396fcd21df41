//! Transport-level tests of the epoll reactor: partial-frame resumption
//! and protocol violations on raw connections, exact delivery sets on a
//! small overlay, and many nodes sharing one reactor thread.

use bytes::Bytes;
use hyparview_core::Message;
use hyparview_net::wire::{decode, encode, Frame};
use hyparview_net::{Cluster, NetConfig, Node};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn config() -> NetConfig {
    NetConfig {
        shuffle_interval: Duration::from_millis(100),
        seed: Some(7),
        ..NetConfig::default()
    }
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

fn spawn_cluster(n: usize) -> Vec<Node> {
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let mut cfg = config();
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

fn all_connected(nodes: &[Node]) -> bool {
    nodes.iter().all(|n| !n.active_view().is_empty())
}

/// Waits until every node holds a non-empty active view, re-issuing joins
/// through the first node for any that are stranded. A join storm through
/// one contact can displace a node faster than shuffles repair it, and
/// HyParView cannot self-repair an *empty* active view (shuffles need a
/// live neighbor), so a plain wait is flaky under CPU contention.
fn connect_overlay(nodes: &[Node], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if all_connected(nodes) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        for node in nodes {
            if node.active_view().is_empty() {
                node.join(nodes[0].addr());
            }
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// Feeds `bytes` into a raw connection one byte at a time with a flush
/// after each, maximizing the chance every read on the receiving side sees
/// a partial frame.
fn dribble(stream: &mut TcpStream, bytes: &[u8]) {
    for byte in bytes {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// End-to-end partial-frame resumption: a `Hello` + `Join` dribbled
/// byte-by-byte into a live node's listener (every header and payload
/// boundary split) must have exactly the effect of a whole-frame write —
/// the joiner enters the active view.
#[test]
fn dribbled_join_is_decoded_on_reactor() {
    let node = Node::spawn("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    // The claimed identity must accept the node's answering connection, or
    // the failure detector would evict it again; a bound listener whose
    // backlog absorbs the connect is enough.
    let fake_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake: SocketAddr = fake_listener.local_addr().unwrap();

    let mut stream = TcpStream::connect(node.addr()).unwrap();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&encode(&Frame::Hello { sender: fake }));
    bytes.extend_from_slice(&encode(&Frame::Membership(Message::Join)));
    dribble(&mut stream, &bytes);

    assert!(
        wait_until(Duration::from_secs(5), || node.active_view().contains(&fake)),
        "dribbled Join never joined: {:?}",
        node.active_view()
    );
}

/// Garbage before the `Hello` must not crash or wedge the node; a valid
/// join afterwards still works.
#[test]
fn pre_hello_garbage_is_dropped_on_reactor() {
    let node = Node::spawn("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    {
        let mut garbage = TcpStream::connect(node.addr()).unwrap();
        // A plausible length prefix followed by junk (tag 0xFF).
        garbage.write_all(&[0, 0, 0, 4, 0xFF, 1, 2, 3]).unwrap();
        garbage.flush().unwrap();
    }
    let peer = Node::spawn("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    peer.join(node.addr());
    assert!(
        wait_until(Duration::from_secs(5), || node.active_view().contains(&peer.addr())),
        "node wedged by garbage connection"
    );
}

/// Reads one length-prefixed frame off a blocking raw connection; `None`
/// at EOF.
fn read_frame(stream: &mut TcpStream) -> Option<Frame> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).ok()?;
    let mut body = vec![0u8; u32::from_be_bytes(prefix) as usize];
    stream.read_exact(&mut body).ok()?;
    Some(decode(Bytes::from(body)).expect("the node sends well-formed frames"))
}

/// Accepts one connection within `timeout`.
fn accept_within(listener: &TcpListener, timeout: Duration) -> Option<TcpStream> {
    listener.set_nonblocking(true).unwrap();
    let mut accepted = None;
    wait_until(timeout, || {
        accepted = listener.accept().ok().map(|(stream, _)| stream);
        accepted.is_some()
    });
    let stream = accepted?;
    stream.set_nonblocking(false).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    Some(stream)
}

/// A `Hello` on a connection whose peer is known is a protocol violation.
/// Answering a node's outbound connection with `Hello { other }` used to
/// rename that connection, so closing it missed its outbound-index entry
/// and later sends to the real peer went to whatever reused the slot.
/// Now the node drops the connection, and its next frame to the peer comes
/// on a fresh one that opens with the node's own `Hello`.
#[test]
fn hello_on_an_outbound_connection_gets_a_fresh_connection() {
    let node = Node::spawn("127.0.0.1:0".parse().unwrap(), config()).unwrap();
    let fake_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let fake: SocketAddr = fake_listener.local_addr().unwrap();
    let other: SocketAddr = "127.0.0.1:9".parse().unwrap();

    // `fake` joins; kept open, this connection keeps it in the view, and
    // the node's shuffles then go to it on a connection of the node's own.
    let mut join = TcpStream::connect(node.addr()).unwrap();
    join.write_all(&encode(&Frame::Hello { sender: fake })).unwrap();
    join.write_all(&encode(&Frame::Membership(Message::Join))).unwrap();

    let mut first = accept_within(&fake_listener, Duration::from_secs(5)).expect("no connection");
    assert_eq!(read_frame(&mut first), Some(Frame::Hello { sender: node.addr() }));
    first.write_all(&encode(&Frame::Hello { sender: other })).unwrap();
    // The node closes the connection (after what it had already queued).
    let deadline = Instant::now() + Duration::from_secs(5);
    while read_frame(&mut first).is_some() {
        assert!(Instant::now() < deadline, "the renamed connection is still in use");
    }

    let mut second =
        accept_within(&fake_listener, Duration::from_secs(5)).expect("no fresh connection");
    assert_eq!(read_frame(&mut second), Some(Frame::Hello { sender: node.addr() }));
    assert!(read_frame(&mut second).is_some(), "the next frame to the peer comes here");
    assert!(node.active_view().contains(&fake), "a silent close keeps the peer");
    drop(join);
}

/// The smoke scenario (5 nodes, 10 round-robin broadcasts) is 100%
/// reliable: every node's sorted delivered payloads are exactly `m-0..m-9`,
/// no message lost, duplicated or altered.
#[test]
fn every_node_delivers_exactly_the_broadcast_set() {
    let nodes = spawn_cluster(5);
    assert!(connect_overlay(&nodes, Duration::from_secs(10)), "overlay never connected");
    let count = 10;
    for i in 0..count {
        nodes[i % nodes.len()].broadcast(format!("m-{i}").into_bytes());
        // Pace the broadcasts so each flood completes against a settled
        // overlay.
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut expected: Vec<Vec<u8>> = (0..count).map(|i| format!("m-{i}").into_bytes()).collect();
    expected.sort();
    for (i, node) in nodes.iter().enumerate() {
        let mut got = Vec::new();
        while got.len() < count {
            match node.deliveries().recv_timeout(Duration::from_secs(5)) {
                Ok(d) => got.push(d.payload.to_vec()),
                Err(_) => panic!("node {i} saw {}/{count} messages", got.len()),
            }
        }
        got.sort();
        assert_eq!(got, expected, "node {i} delivered a different set");
    }
}

/// Many nodes on ONE shared reactor (the `Cluster` runtime proper, not the
/// one-node special case): the overlay converges and a flood reaches every
/// node, all on a single epoll thread.
#[test]
fn shared_cluster_floods_all_nodes() {
    let cluster = Cluster::new().unwrap();
    let n = 20;
    let mut nodes: Vec<Node> = Vec::with_capacity(n);
    for i in 0..n {
        let mut cfg = config();
        cfg.seed = Some(900 + i as u64);
        let node = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
        if let Some(contact) = nodes.first() {
            let contact: &Node = contact;
            node.join(contact.addr());
        }
        nodes.push(node);
    }
    assert!(
        connect_overlay(&nodes, Duration::from_secs(10)),
        "shared-reactor overlay never connected: {:?}",
        nodes.iter().map(|n| (n.addr(), n.active_view())).collect::<Vec<_>>()
    );
    let id = nodes[0].broadcast(b"one thread, many nodes".to_vec());
    for (i, node) in nodes.iter().enumerate() {
        let delivery = node
            .deliveries()
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("node {i} missed the broadcast"));
        assert_eq!(delivery.id, id);
    }
}

/// Removing one node from a shared reactor must not disturb its siblings:
/// the survivors detect the crash, repair, and keep flooding.
#[test]
fn shared_cluster_survives_node_removal() {
    let cluster = Cluster::new().unwrap();
    let mut nodes: Vec<Node> = Vec::new();
    for i in 0..5 {
        let mut cfg = config();
        cfg.seed = Some(300 + i as u64);
        let node = cluster.spawn_node("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
        if let Some(contact) = nodes.first() {
            let contact: &Node = contact;
            node.join(contact.addr());
        }
        nodes.push(node);
    }
    assert!(connect_overlay(&nodes, Duration::from_secs(10)));

    let victim = nodes.pop().unwrap();
    let victim_addr = victim.addr();
    victim.shutdown();

    assert!(
        wait_until(Duration::from_secs(10), || {
            nodes.iter().all(|n| !n.active_view().contains(&victim_addr))
        }),
        "survivors never evicted the removed node"
    );
    let id = nodes[0].broadcast(b"still alive".to_vec());
    for (i, node) in nodes.iter().enumerate() {
        let delivery = node
            .deliveries()
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("survivor {i} missed the post-removal broadcast"));
        assert_eq!(delivery.id, id);
    }
}
