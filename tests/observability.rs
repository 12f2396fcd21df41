//! Differential observability test: the simulator and the TCP runtime
//! must speak the same metric vocabulary. Every name in
//! [`names::SHARED_TRANSPORT_NAMES`] — the `frames.*` / `broadcast.*`
//! transport counters — has to exist in a `Sim` metrics snapshot AND in a
//! live reactor `Node`'s registry, so sim-vs-reactor comparisons line up
//! by metric name with no translation table. The decision traces line up
//! the same way: a first delivery is the same `TraceKind` in both rings.

use hyparview_suite::core::Config;
use hyparview_suite::net::{Cluster, NetConfig};
use hyparview_suite::obsv::{names, TraceKind};
use hyparview_suite::sim::{protocols, Scenario};
use std::time::{Duration, Instant};

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

#[test]
fn sim_and_reactor_share_the_transport_metric_vocabulary() {
    // Simulator side: a small overlay, one broadcast, snapshot.
    let scenario = Scenario::new(16, 7);
    let mut sim = protocols::build_hyparview(&scenario, Config::default());
    sim.run_cycles(3);
    sim.enable_tracing(4096);
    let report = sim.broadcast_random();
    let sim_snapshot = sim.metrics_snapshot();
    let sim_delivered = TraceKind::Delivered { msg: report.id, hops: 1 };
    let ring = sim.trace().expect("tracing enabled");
    assert!(ring.events().any(|e| e.kind == sim_delivered), "sim traced no one-hop delivery");

    // Reactor side: three live TCP nodes on one epoll thread, one
    // broadcast, wait for the publish cycle to mirror the registry and the
    // trace ring into the handle. `a` and `b` trace; `c` does not.
    let cluster = Cluster::new().expect("reactor thread");
    let config = |seed: u64| NetConfig {
        shuffle_interval: Duration::from_millis(100),
        seed: Some(seed),
        ..NetConfig::default()
    };
    let addr = "127.0.0.1:0".parse().unwrap();
    let a = cluster.spawn_node(addr, config(1).with_trace_capacity(256)).expect("spawn a");
    let b = cluster.spawn_node(addr, config(2).with_trace_capacity(256)).expect("spawn b");
    let c = cluster.spawn_node(addr, config(3)).expect("spawn c");
    b.join(a.addr());
    c.join(a.addr());
    assert!(
        wait_until(Duration::from_secs(10), || {
            b.active_view().contains(&a.addr()) && !c.active_view().is_empty()
        }),
        "join never completed"
    );
    let id = a.broadcast(b"hello".to_vec());
    assert!(
        wait_until(Duration::from_secs(10), || {
            b.stats().deliveries > 0 && c.stats().deliveries > 0
        }),
        "broadcast never delivered"
    );
    let node_metrics = a.metrics();

    // `b` is `a`'s neighbour, so its first copy came straight from `a`.
    let delivered = TraceKind::Delivered { msg: id as u64, hops: 1 };
    let mut b_trace = Vec::new();
    assert!(
        wait_until(Duration::from_secs(10), || {
            b_trace.extend(b.trace_events());
            b_trace.iter().any(|e| e.kind == delivered)
        }),
        "b traced no {delivered:?}: {b_trace:?}"
    );
    assert!(c.trace_events().is_empty(), "a node without tracing traces nothing");

    for name in names::SHARED_TRANSPORT_NAMES {
        assert!(
            sim_snapshot.value_by_name(name).is_some(),
            "sim snapshot is missing shared metric {name}"
        );
        assert!(
            node_metrics.value_by_name(name).is_some(),
            "reactor node registry is missing shared metric {name}"
        );
    }

    // The broadcast actually moved through both transports under the
    // shared names, so the values are live, not just registered.
    assert!(sim_snapshot.value_by_name("broadcast.delivered").unwrap() > 0);
    assert!(node_metrics.value_by_name("frames.sent").unwrap() > 0);
}
