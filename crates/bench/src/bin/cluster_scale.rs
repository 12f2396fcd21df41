//! Cluster-scale harness: thousands of *live* HyParView nodes — real
//! listeners, real TCP connections, real frames — in one process, driven
//! by the `hyparview-net` epoll reactor.
//!
//! ```text
//! # headline run: 2,000 live nodes on one epoll thread
//! cargo run --release -p hyparview-bench --bin cluster_scale
//! # CI smoke
//! cargo run --release -p hyparview-bench --bin cluster_scale -- --smoke --assert
//! ```
//!
//! The measurement phase fires broadcast *bursts* (several messages
//! back-to-back from one origin) so the Plumtree lazy links actually
//! exercise `IHaveBatch` aggregation over sockets; the per-kind frame
//! counters every node keeps (`NodeStats`) are aggregated into the results
//! artifact, and wall-clock frame throughput goes into the usual
//! `*.perf.json` sidecar.
//!
//! Unlike the simulator bins, the numbers here come from a real kernel:
//! reliability and connectivity are exact (counted from delivery
//! counters), but frame counts vary run to run with socket timing.

use hyparview_bench::backoff::Backoff;
use hyparview_bench::json::JsonObject;
use hyparview_bench::measure::{
    metrics_path, perf_artifact_with_reactor, perf_path, timed, Throughput,
};
use hyparview_bench::obsv_json::registry_json;
use hyparview_bench::table::{num, pct, render};
use hyparview_net::{BroadcastMode, Cluster, NetConfig, Node, NodeStats};
use hyparview_obsv::log::Level;
use hyparview_obsv::{obsv_info, Registry};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Log target for this binary's progress lines.
const LOG: &str = "cluster_scale";

struct Args {
    nodes: usize,
    messages: usize,
    burst: usize,
    active: usize,
    passive: usize,
    shuffle_ms: Option<u64>,
    mode: BroadcastMode,
    seed: u64,
    json: Option<String>,
    assert_mode: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            // 2,000 nodes × (1 listener + ~2×4 connection fds) fits the
            // container's 20k fd budget with room to spare; the reduced
            // active-view capacity is the same knob the paper's larger
            // configurations scale with (§4.3: log n + c).
            nodes: 2_000,
            messages: 24,
            burst: 8,
            active: 4,
            passive: 16,
            shuffle_ms: None,
            mode: BroadcastMode::Plumtree,
            seed: 0x11FE_C10D,
            json: None,
            assert_mode: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} expects a value"));
        match flag.as_str() {
            "--nodes" => args.nodes = value("--nodes").parse().expect("--nodes: integer"),
            "--messages" => {
                args.messages = value("--messages").parse().expect("--messages: integer")
            }
            "--burst" => args.burst = value("--burst").parse::<usize>().unwrap().max(1),
            "--active" => args.active = value("--active").parse().expect("--active: integer"),
            "--passive" => args.passive = value("--passive").parse().expect("--passive: integer"),
            "--shuffle-ms" => {
                args.shuffle_ms =
                    Some(value("--shuffle-ms").parse().expect("--shuffle-ms: integer"))
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed: integer"),
            "--mode" => {
                args.mode = match value("--mode").as_str() {
                    "flood" => BroadcastMode::Flood,
                    "plumtree" => BroadcastMode::Plumtree,
                    other => panic!("--mode: expected flood|plumtree, got {other}"),
                }
            }
            "--smoke" => {
                args.nodes = 300;
                args.messages = 16;
            }
            "--json" => args.json = Some(value("--json")),
            "--assert" => args.assert_mode = true,
            "--help" | "-h" => {
                println!(
                    "usage: cluster_scale [--nodes N] [--messages N] [--burst N] \
                     [--active N] [--passive N] [--shuffle-ms N] [--seed N] \
                     [--mode flood|plumtree] \
                     [--smoke] [--json PATH] [--assert]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn wait_until<F: FnMut() -> bool>(timeout: Duration, mut cond: F) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Nodes NOT reachable from node 0 over the union of active views.
fn unreachable(nodes: &[Node]) -> Vec<usize> {
    let index: HashMap<SocketAddr, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.addr(), i)).collect();
    let views: Vec<Vec<SocketAddr>> = nodes.iter().map(|n| n.active_view()).collect();
    let mut seen = vec![false; nodes.len()];
    let mut queue = vec![0usize];
    seen[0] = true;
    while let Some(v) = queue.pop() {
        for peer in &views[v] {
            if let Some(&j) = index.get(peer) {
                if !seen[j] {
                    seen[j] = true;
                    queue.push(j);
                }
            }
        }
    }
    (0..nodes.len()).filter(|&i| !seen[i]).collect()
}

/// Fraction of nodes reachable from node 0 over the union of active views.
fn connectivity(nodes: &[Node]) -> f64 {
    1.0 - unreachable(nodes).len() as f64 / nodes.len() as f64
}

fn aggregate(nodes: &[Node]) -> NodeStats {
    let mut total = NodeStats::default();
    for node in nodes {
        let s = node.stats();
        total.broadcasts_sent += s.broadcasts_sent;
        total.deliveries += s.deliveries;
        total.duplicates += s.duplicates;
        total.mode_mismatched += s.mode_mismatched;
        total.frames_sent += s.frames_sent;
        total.payload_frames_sent += s.payload_frames_sent;
        total.ihave_frames_sent += s.ihave_frames_sent;
        total.ihave_batch_frames_sent += s.ihave_batch_frames_sent;
        total.ihave_batch_anns_sent += s.ihave_batch_anns_sent;
    }
    total
}

fn main() {
    // Progress goes through the leveled logger (stderr, `HPV_LOG`
    // overridable); stdout stays reserved for the results table and
    // artifact notices.
    hyparview_obsv::log::init_from_env(Level::Info);
    let args = parse_args();
    let fd_limit = hyparview_net::reactor::raise_nofile_limit().unwrap_or(0);

    // Shuffle period scales with cluster size by default: at a fixed 500 ms
    // the *background* gossip of 2,000 nodes alone saturates one CPU
    // (each shuffle is a multi-hop walk of frames) and starves broadcast
    // propagation. One shuffle per node per `nodes` ms keeps the aggregate
    // shuffle rate roughly constant across scales.
    let shuffle_ms = args.shuffle_ms.unwrap_or_else(|| (args.nodes as u64).max(500));

    println!("# Cluster scale — live TCP nodes in one process");
    println!(
        "# nodes = {}, mode = {}, messages = {} (bursts of {}), \
         views = {}/{}, shuffle = {shuffle_ms} ms, seed = {:#x}, fd limit = {fd_limit}",
        args.nodes, args.mode, args.messages, args.burst, args.active, args.passive, args.seed
    );

    let make_config = |i: usize| NetConfig {
        protocol: hyparview_core::Config::default()
            .with_active_capacity(args.active)
            .with_passive_capacity(args.passive),
        shuffle_interval: Duration::from_millis(shuffle_ms),
        seed: Some(args.seed.wrapping_add(i as u64)),
        broadcast_mode: args.mode,
        ..NetConfig::default()
    };

    // Spawn — all nodes share ONE epoll thread.
    let cluster = Cluster::new().expect("reactor thread");
    let spawn_wall = timed(|| {
        let mut nodes: Vec<Node> = Vec::with_capacity(args.nodes);
        let mut rng = args.seed | 1;
        for i in 0..args.nodes {
            let cfg = make_config(i);
            let addr = "127.0.0.1:0".parse().unwrap();
            let node =
                cluster.spawn_node(addr, cfg).unwrap_or_else(|e| panic!("spawn node {i}: {e}"));
            if i > 0 {
                // Join through a random earlier node (xorshift), spreading
                // the join load instead of hammering the bootstrap node.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let contact = &nodes[(rng as usize) % i];
                node.join(contact.addr());
            }
            nodes.push(node);
            if i % 100 == 99 {
                // Brief pause so join storms drain before the next wave.
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        nodes
    });
    let nodes = spawn_wall.value;
    obsv_info!(LOG, "spawned {} nodes in {:.0} ms", nodes.len(), spawn_wall.wall_ms);

    // Converge: the overlay must become ONE component. A node whose join
    // raced churn can end with an empty active view, and HyParView cannot
    // self-repair from there (shuffles need a live neighbor) — such nodes
    // retry the join through the bootstrap node, the same recovery any
    // real deployment runs.
    let converge_deadline = Instant::now() + Duration::from_secs(30 + args.nodes as u64 / 25);
    let mut converged = false;
    let mut rejoins = 0usize;
    let mut stable = 0usize;
    // Rejoin waves back off exponentially (bounded, seed-jittered): a
    // fixed cadence re-issues joins that are still in flight, and the
    // displacement churn of each synchronized wave strands a fresh set of
    // nodes for the next probe to find.
    let mut backoff = Backoff::new(1_000, 8_000, args.seed ^ 0xB0FF);
    loop {
        let stranded = unreachable(&nodes);
        if stranded.is_empty() {
            // A rejoin can displace somebody else out of a full active
            // view, so one clean probe is not enough: demand two in a
            // row before declaring the overlay settled.
            stable += 1;
            if stable >= 2 {
                converged = true;
                break;
            }
            backoff.reset();
            std::thread::sleep(Duration::from_millis(500));
            continue;
        }
        stable = 0;
        if Instant::now() >= converge_deadline {
            break;
        }
        for &i in &stranded {
            nodes[i].join(nodes[0].addr());
            rejoins += 1;
        }
        // Give the join wave time to fully complete before re-probing —
        // waiting longer after each failed wave instead of hammering a
        // fixed 1.5 s rhythm.
        std::thread::sleep(backoff.next_delay());
    }
    let connected = connectivity(&nodes);
    obsv_info!(
        LOG,
        "convergence: single component = {converged}, connectivity = {}, rejoins = {rejoins}",
        pct(connected)
    );

    // Let a couple of shuffle rounds settle the views before measuring —
    // broadcasts fired mid-churn can race tree repair at small scales.
    std::thread::sleep(Duration::from_millis(1_000));

    // Measurement: bursts of broadcasts from rotating origins. Bursts are
    // what make the lazy links batch announcements into IHaveBatch frames.
    let baseline = aggregate(&nodes);
    let expected = (args.messages * nodes.len()) as u64;
    let bench = timed(|| {
        let mut sent = 0usize;
        let mut origin = 0usize;
        while sent < args.messages {
            let burst = args.burst.min(args.messages - sent);
            for b in 0..burst {
                nodes[origin % nodes.len()].broadcast(format!("m-{}", sent + b).into_bytes());
            }
            sent += burst;
            origin += 1;
            std::thread::sleep(Duration::from_millis(50));
        }
        // Deliveries are counted by the nodes themselves; wait until the
        // floods/trees quiesce or the timeout expires.
        wait_until(Duration::from_secs(60), || {
            aggregate(&nodes).deliveries - baseline.deliveries >= expected
        });
    });
    let totals = aggregate(&nodes);
    let delivered = totals.deliveries - baseline.deliveries;
    let reliability = delivered as f64 / expected as f64;
    let frames = totals.frames_sent - baseline.frames_sent;
    let throughput = Throughput::new(bench.wall_ms, frames);

    let batch_win = if totals.ihave_batch_frames_sent > 0 {
        totals.ihave_batch_anns_sent as f64 / totals.ihave_batch_frames_sent as f64
    } else {
        0.0
    };
    let headers = vec!["metric", "value"];
    let rows = vec![
        vec!["nodes".into(), nodes.len().to_string()],
        vec!["reliability".into(), pct(reliability)],
        vec!["connectivity".into(), pct(connected)],
        vec!["frames (measured phase)".into(), frames.to_string()],
        vec!["payload frames (total)".into(), totals.payload_frames_sent.to_string()],
        vec!["ihave frames (total)".into(), totals.ihave_frames_sent.to_string()],
        vec!["ihave-batch frames (total)".into(), totals.ihave_batch_frames_sent.to_string()],
        vec!["anns per batch".into(), num(batch_win, 2)],
        vec!["duplicates (total)".into(), totals.duplicates.to_string()],
    ];
    println!("{}", render(&headers, &rows));
    println!("throughput: {} (frames over sockets)", throughput.describe());

    // Capture the observability snapshots while the handles are still
    // alive: every node's registry merged into one cluster view (counters
    // add, histograms merge bucket-wise), plus the reactor's own loop
    // gauges.
    let mut node_metrics = Registry::new();
    for node in &nodes {
        node_metrics.merge(&node.metrics());
    }
    let reactor_metrics = cluster.reactor_metrics();

    // Tear the cluster down before touching the filesystem — with
    // thousands of live sockets the fd table is near its limit and even
    // opening the results file can fail with EMFILE.
    let node_count = nodes.len();
    drop(nodes);
    drop(cluster);

    if let Some(path) = &args.json {
        let json = JsonObject::new()
            .str("experiment", "cluster_scale")
            .str("mode", &args.mode.to_string())
            .int("nodes", node_count as u64)
            .int("messages", args.messages as u64)
            .int("burst", args.burst as u64)
            .num("reliability", reliability)
            .num("connectivity", connected)
            .int("rejoins", rejoins as u64)
            .int("frames_sent", totals.frames_sent)
            .int("payload_frames_sent", totals.payload_frames_sent)
            .int("ihave_frames_sent", totals.ihave_frames_sent)
            .int("ihave_batch_frames_sent", totals.ihave_batch_frames_sent)
            .int("ihave_batch_anns_sent", totals.ihave_batch_anns_sent)
            .int("duplicates", totals.duplicates)
            .build();
        std::fs::write(path, json).expect("write JSON results");
        let sidecar = perf_path(path);
        let perf = perf_artifact_with_reactor("cluster_scale", 1, &throughput, &reactor_metrics);
        std::fs::write(&sidecar, perf).expect("write perf sidecar");
        let snapshot = JsonObject::new()
            .str("experiment", "cluster_scale")
            .raw("nodes", registry_json(&node_metrics))
            .raw("reactor", registry_json(&reactor_metrics))
            .build();
        let metrics_file = metrics_path(path);
        std::fs::write(&metrics_file, snapshot).expect("write metrics snapshot");
        println!(
            "(JSON results written to {path}, perf sidecar to {sidecar}, \
             metrics snapshot to {metrics_file})"
        );
    }

    if args.assert_mode {
        assert!(converged, "some nodes never formed a live link");
        assert!(
            (connected - 1.0).abs() < f64::EPSILON,
            "overlay not fully connected: {}",
            pct(connected)
        );
        assert!(
            (reliability - 1.0).abs() < f64::EPSILON,
            "reliability below 100%: {delivered}/{expected}"
        );
        assert_eq!(totals.mode_mismatched, 0, "mode-mismatched frames seen");
        if matches!(args.mode, BroadcastMode::Plumtree) && args.burst > 1 {
            assert!(
                totals.ihave_batch_frames_sent > 0,
                "bursts should have produced IHaveBatch frames"
            );
        }
        println!("assertions passed");
    }
}
