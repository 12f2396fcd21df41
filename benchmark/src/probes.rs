//! Probes: fixed-count seeded loops over one public function of one layer.
//!
//! They replace the criterion shim's unrecorded numbers with named ones, and
//! price the operations the budget tables count. Each probe reports the
//! median of several timed batches, in nanoseconds per call. They run in
//! traced runs only, after the workload.

use crate::alloc;
use crate::catalogue::Metrics;
use crate::span::Recorder;
use crate::Rng;
use bytes::{Buf, Bytes};
use hyparview_baselines::{
    Cyclon, CyclonConfig, CyclonMessage, Entry, Scamp, ScampConfig, ScampMessage,
};
use hyparview_core::SimId;
use hyparview_core::{Actions, Config, HyParView, Message, Priority};
use hyparview_gossip::{GossipState, Membership, Outbox};
use hyparview_net::wire::{decode, encode, Frame, FrameReader};
use hyparview_obsv::{
    Histogram, HopRecord, PathTracer, Registry, TraceEvent, TraceKind, TraceRing, TraceSink,
};
use hyparview_plumtree::{
    Announcement, PlumtreeConfig, PlumtreeMessage, PlumtreeOut, PlumtreeState, PlumtreeTimer,
};
use hyparview_sim::{EventQueue, LatencyModel};
use polling::{Events, Poller};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 9;

/// Median over [`BATCHES`] batches of the time `run` takes per call: `prepare`
/// builds a batch's state untimed, then `run` is called `calls` times on it.
fn probe<S>(calls: u32, mut prepare: impl FnMut() -> S, mut run: impl FnMut(&mut S, u32)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = prepare();
            let started = Instant::now();
            for i in 0..calls {
                run(&mut state, i);
            }
            started.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    crate::stats::median(&per_call)
}

pub fn run_all(seed: u64, rec: &mut Recorder, m: &mut Metrics) {
    rec.within("probes.core", |_| core(m));
    rec.within("probes.gossip", |_| gossip(m));
    rec.within("probes.plumtree", |_| plumtree(m));
    rec.within("probes.baselines", |_| baselines(m));
    rec.within("probes.sim", |_| queue(seed, m));
    rec.within("probes.net.wire", |_| wire(seed, m));
    rec.within("probes.obsv", |_| obsv(m));
    rec.within("probes.polling", |_| polling(m));
}

// ---------------------------------------------------------------------------
// core
// ---------------------------------------------------------------------------

/// A node with a full active view (5) and a full passive view (30).
fn populated_hyparview() -> HyParView<u32> {
    let mut node = HyParView::new(0u32, Config::default(), 7).expect("paper configuration");
    let mut actions = Actions::new();
    for peer in 1..=5 {
        node.handle_message(peer, Message::Join, &mut actions);
    }
    node.handle_message(1, Message::ShuffleReply { nodes: (100..130).collect() }, &mut actions);
    node
}

fn core(m: &mut Metrics) {
    let drain = |actions: &mut Actions<u32>| {
        black_box(actions.drain().count());
    };
    let fresh = || (populated_hyparview(), Actions::new());
    m.set(
        "core.handle_join_ns",
        probe(2_000, fresh, |(node, actions), i| {
            node.handle_message(1_000 + i, Message::Join, actions);
            drain(actions);
        }),
    );
    m.set(
        "core.handle_forward_join_ns",
        probe(2_000, fresh, |(node, actions), i| {
            node.handle_message(1, Message::ForwardJoin { new_node: 1_000 + i, ttl: 3 }, actions);
            drain(actions);
        }),
    );
    m.set(
        "core.handle_shuffle_ns",
        probe(2_000, fresh, |(node, actions), _| {
            let walk = Message::Shuffle { origin: 99, ttl: 4, nodes: vec![200, 201, 202, 203] };
            node.handle_message(1, walk, actions);
            drain(actions);
        }),
    );
    m.set(
        "core.shuffle_tick_ns",
        probe(2_000, fresh, |(node, actions), _| {
            node.shuffle_tick(actions);
            drain(actions);
        }),
    );
    m.set(
        "core.handle_neighbor_ns",
        probe(2_000, fresh, |(node, actions), i| {
            node.handle_message(2_000 + i, Message::Neighbor { priority: Priority::High }, actions);
            drain(actions);
        }),
    );
    m.set(
        "core.on_peer_failed_ns",
        probe(
            256,
            || ((0..256).map(|_| populated_hyparview()).collect::<Vec<_>>(), Actions::new()),
            |(nodes, actions), i| {
                nodes[i as usize].on_peer_failed(1, actions);
                drain(actions);
            },
        ),
    );
    m.set(
        "core.broadcast_targets_ns",
        probe(5_000, populated_hyparview, |node, _| {
            black_box(node.broadcast_targets(Some(1)));
        }),
    );
}

// ---------------------------------------------------------------------------
// gossip
// ---------------------------------------------------------------------------

fn gossip(m: &mut Metrics) {
    m.set(
        "gossip.deliver_first_ns",
        probe(20_000, GossipState::new, |state, i| {
            black_box(state.deliver(u64::from(i), 3));
        }),
    );
    m.set(
        "gossip.deliver_dup_ns",
        probe(
            20_000,
            || {
                let mut state = GossipState::new();
                (0..1_024).for_each(|id| {
                    state.deliver(id, 3);
                });
                state
            },
            |state, i| {
                black_box(state.deliver(u64::from(i % 1_024), 4));
            },
        ),
    );
}

// ---------------------------------------------------------------------------
// plumtree
// ---------------------------------------------------------------------------

type Tree = PlumtreeState<u32, ()>;

/// Four eager peers (1..=4), one lazy (5), adaptive configuration.
fn tree() -> (Tree, PlumtreeOut<u32, ()>) {
    let config =
        PlumtreeConfig::default().with_optimization_threshold(Some(2)).with_lazy_flush_interval(2);
    let mut state = PlumtreeState::new(0u32, config);
    (1..=5).for_each(|peer| state.on_neighbor_up(peer));
    let mut out = PlumtreeOut::new();
    state.handle_message(5, PlumtreeMessage::Prune, &mut out);
    (state, PlumtreeOut::new())
}

fn settle(out: &mut PlumtreeOut<u32, ()>) {
    black_box(out.outbox.drain().count());
    out.deliveries.clear();
    out.timers.clear();
}

/// A tree that has delivered (and caches) ids `0..1024`.
fn tree_with_history() -> (Tree, PlumtreeOut<u32, ()>) {
    let (mut state, mut out) = tree();
    for id in 0..1_024u128 {
        state.handle_message(1, PlumtreeMessage::Gossip { id, round: 2, payload: () }, &mut out);
        settle(&mut out);
    }
    (state, out)
}

fn plumtree(m: &mut Metrics) {
    m.set(
        "plumtree.broadcast_ns",
        probe(5_000, tree, |(state, out), i| {
            state.broadcast(u128::from(i), (), out);
            settle(out);
        }),
    );
    m.set(
        "plumtree.gossip_first_ns",
        probe(5_000, tree, |(state, out), i| {
            let push = PlumtreeMessage::Gossip { id: u128::from(i), round: 2, payload: () };
            state.handle_message(1, push, out);
            settle(out);
        }),
    );
    m.set(
        "plumtree.gossip_dup_ns",
        probe(5_000, tree_with_history, |(state, out), i| {
            let push = PlumtreeMessage::Gossip { id: u128::from(i % 1_024), round: 3, payload: () };
            state.handle_message(2, push, out);
            settle(out);
        }),
    );
    m.set(
        "plumtree.ihave_ns",
        probe(5_000, tree_with_history, |(state, out), i| {
            let ihave = PlumtreeMessage::IHave { id: u128::from(i % 1_024), round: 3 };
            state.handle_message(5, ihave, out);
            settle(out);
        }),
    );
    let batch_ns = probe(1_000, tree_with_history, |(state, out), i| {
        let first = u128::from(i % 1_000);
        let anns = (first..first + 16).map(|id| Announcement { id, round: 3 }).collect();
        state.handle_message(5, PlumtreeMessage::IHaveBatch { anns }, out);
        settle(out);
    });
    m.set("plumtree.ihave_batch_ns_per_ann", batch_ns / 16.0);
    m.set(
        "plumtree.graft_ns",
        probe(5_000, tree_with_history, |(state, out), i| {
            let graft = PlumtreeMessage::Graft { id: Some(u128::from(i % 1_024)), round: 3 };
            state.handle_message(5, graft, out);
            settle(out);
        }),
    );
    m.set(
        "plumtree.on_timer_ns",
        probe(
            1_000,
            || {
                // 1,000 ids announced by the lazy peer and never received.
                let (mut state, mut out) = tree();
                for id in 0..1_000u128 {
                    state.handle_message(5, PlumtreeMessage::IHave { id, round: 3 }, &mut out);
                    settle(&mut out);
                }
                (state, out)
            },
            |(state, out), i| {
                state.on_timer(PlumtreeTimer::Missing(u128::from(i)), out);
                settle(out);
            },
        ),
    );
}

// ---------------------------------------------------------------------------
// baselines
// ---------------------------------------------------------------------------

fn baselines(m: &mut Metrics) {
    let join_reply = |peer| CyclonMessage::JoinReply { entry: Entry::fresh(peer) };
    m.set(
        "baselines.cyclon_cycle_ns",
        probe(
            2_000,
            || {
                let mut node = Cyclon::new(0u32, CyclonConfig::default(), 7);
                let mut out = Outbox::new();
                (1..=35).for_each(|peer| node.handle_message(99, join_reply(peer), &mut out));
                (node, out)
            },
            |(node, out), _| {
                node.on_cycle(out);
                // Put an entry back so the view never drains.
                node.handle_message(99, join_reply(1), out);
                black_box(out.drain().count());
            },
        ),
    );
    m.set(
        "baselines.scamp_forward_ns",
        probe(
            2_000,
            || {
                let mut node = Scamp::new(0u32, ScampConfig::default(), 7);
                let mut out = Outbox::new();
                for peer in 1..=30 {
                    node.handle_message(peer, ScampMessage::AddedYou, &mut out);
                    let seeded =
                        ScampMessage::ForwardedSubscription { joiner: peer + 1_000, hops: 64 };
                    node.handle_message(peer, seeded, &mut out);
                }
                (node, out)
            },
            |(node, out), i| {
                let forwarded = ScampMessage::ForwardedSubscription { joiner: 5_000 + i, hops: 0 };
                node.handle_message(1, forwarded, out);
                black_box(out.drain().count());
            },
        ),
    );
}

// ---------------------------------------------------------------------------
// sim: the event queue in its two regimes
// ---------------------------------------------------------------------------

const WAVE: u32 = 4_096;

fn queue(seed: u64, m: &mut Metrics) {
    let (a, b) = (SimId::new(0), SimId::new(1));
    // Unit latency: a wave of events all due one tick ahead, drained, and the
    // next wave pushed from there; the calendar queue's O(1) buckets.
    let unit_ns = probe(
        16,
        || (EventQueue::<u32>::new(), 0u64),
        |(queue, time), _| {
            for i in 0..WAVE {
                queue.push(*time + 1, a, b, i);
            }
            while let Some(event) = queue.pop() {
                *time = event.time;
                black_box(event.payload);
            }
        },
    );
    m.set("sim.queue_unit_ns_per_event", unit_ns / f64::from(WAVE));

    // Heavy tail: 4,096 events pending, each pop schedules a successor a
    // log-normal(2, 600) delay ahead, so part of the load lives in the
    // overflow heap beyond the bucket ring.
    let model = LatencyModel::LogNormal { median: 2, sigma_milli: 600, cap: 64 };
    let mut rng = StdRng::seed_from_u64(seed);
    let delays: Vec<u64> = (0..1 << 16).map(|_| model.sample(&mut rng)).collect();
    let tail_ns = probe(
        200_000,
        || {
            let mut queue = EventQueue::<u32>::new();
            for i in 0..WAVE {
                queue.push(delays[i as usize], a, b, i);
            }
            queue
        },
        |queue, i| {
            let event = queue.pop().expect("the queue never drains");
            queue.push(event.time + delays[i as usize % delays.len()], a, b, event.payload);
        },
    );
    m.set("sim.queue_tail_ns_per_event", tail_ns);
}

// ---------------------------------------------------------------------------
// net.wire
// ---------------------------------------------------------------------------

fn body(len: usize, rng: &mut Rng) -> Bytes {
    Bytes::from((0..len).map(|_| rng.next() as u8).collect::<Vec<u8>>())
}

/// Decoding consumes its input, and a `Bytes` clone is a reference-count
/// bump, so the clone is part of what a reader pays per frame.
fn decode_ns(frame: &Frame) -> f64 {
    let encoded = encode(frame);
    probe(
        5_000,
        || (),
        |(), _| {
            // Skip the four-byte length prefix, as `FrameReader` does.
            let mut framed = encoded.clone();
            framed.advance(4);
            black_box(decode(framed).expect("own encoding decodes"));
        },
    )
}

fn wire(seed: u64, m: &mut Metrics) {
    let mut rng = Rng::new(seed);
    let addr =
        |i: u64| -> SocketAddr { format!("127.0.0.1:{}", 9_000 + i).parse().expect("address") };
    let small = Frame::Gossip { id: 0xA11CE, hops: 3, payload: body(64, &mut rng) };
    let large = Frame::PlumtreeGossip { id: 0xB0B, round: 3, payload: body(8 * 1024, &mut rng) };
    let shuffle = Frame::Membership(Message::Shuffle {
        origin: addr(0),
        ttl: 6,
        nodes: (1..=8).map(addr).collect(),
    });
    let batch =
        Frame::PlumtreeIHaveBatch { anns: (0..16).map(|i| (u128::from(i as u32), 3)).collect() };

    let encode_ns = |frame: &Frame| probe(5_000, || (), |(), _| drop(black_box(encode(frame))));
    m.set("net.wire.encode_gossip_64b_ns", encode_ns(&small));
    m.set("net.wire.decode_gossip_64b_ns", decode_ns(&small));
    m.set("net.wire.encode_shuffle_ns", encode_ns(&shuffle));
    m.set("net.wire.decode_shuffle_ns", decode_ns(&shuffle));
    m.set("net.wire.encode_ihave_batch16_ns", encode_ns(&batch));
    m.set("net.wire.encode_gossip_8k_ns", encode_ns(&large));
    m.set("net.wire.decode_gossip_8k_ns", decode_ns(&large));

    let before = alloc::driver();
    alloc::set_enabled(true);
    let encoded = encode(&small);
    alloc::set_enabled(false);
    m.set("net.wire.encode_allocs", alloc::driver().since(before).allocs as f64);
    drop(encoded);

    // 64 frames of 8 KiB fed in 16 KiB slices, the reactor's read size, so
    // most frames straddle two reads.
    let stream: Vec<u8> = (0..64).flat_map(|_| encode(&large).to_vec()).collect();
    let ns_per_pass = probe(8, FrameReader::new, |reader, _| {
        let mut frames = 0;
        for slice in stream.chunks(16 * 1024) {
            reader.extend(slice);
            while let Some(frame) = reader.next_frame().expect("own encoding decodes") {
                black_box(frame);
                frames += 1;
            }
        }
        assert_eq!(frames, 64, "every frame must come out of the reader");
    });
    m.set("net.wire.reader_mb_per_s", stream.len() as f64 / 1e6 / (ns_per_pass / 1e9));
}

// ---------------------------------------------------------------------------
// obsv
// ---------------------------------------------------------------------------

/// A registry the size of a Plumtree node's: about 30 counters.
fn node_registry(offset: u64) -> Registry {
    let mut registry = Registry::new();
    for i in 0..30u64 {
        let id = registry.counter(&format!("probe.counter_{i}"));
        registry.add(id, offset + i);
    }
    registry
}

fn obsv(m: &mut Metrics) {
    m.set(
        "obsv.counter_inc_ns",
        probe(
            100_000,
            || {
                let mut registry = node_registry(0);
                let id = registry.counter("probe.counter_7");
                (registry, id)
            },
            |(registry, id), _| black_box(&mut *registry).inc(*id),
        ),
    );
    m.set(
        "obsv.hist_record_ns",
        probe(100_000, Histogram::new, |hist, i| hist.record(black_box(u64::from(i) * 37))),
    );
    m.set(
        "obsv.trace_record_ns",
        probe(
            100_000,
            || {
                // Full from the start, so every record also evicts.
                let mut ring = TraceRing::new(4_096);
                (0..4_096).for_each(|t| {
                    ring.record(TraceEvent {
                        time: t,
                        node: 0,
                        kind: TraceKind::PruneSent { peer: 1 },
                    })
                });
                ring
            },
            |ring, i| {
                let kind = TraceKind::Delivered { msg: u64::from(i), hops: 3 };
                ring.record(TraceEvent { time: u64::from(i), node: 1, kind });
            },
        ),
    );
    let merge_ns = probe(
        2_000,
        || (node_registry(0), node_registry(1_000)),
        |(total, node), _| total.merge(black_box(node)),
    );
    m.set("obsv.registry_merge_us", merge_ns / 1e3);
    // One broadcast's provenance over 2,000 nodes, fanout 4.
    let tree_ns = probe(
        20,
        || {
            let mut tracer = PathTracer::new();
            for node in 0..2_000u64 {
                let parent = (node > 0).then(|| (node - 1) / 4);
                let depth = (node as f64 * 3.0 + 1.0).log(4.0) as u32;
                tracer.record(HopRecord { msg: 1, node, parent, depth, time: u64::from(depth) });
            }
            tracer
        },
        |tracer, _| {
            black_box(tracer.tree(1).expect("recorded above").max_depth());
        },
    );
    m.set("obsv.path_tree_ms", tree_ns / 1e6);
}

// ---------------------------------------------------------------------------
// polling
// ---------------------------------------------------------------------------

/// `Poller::notify` on this thread until `wait` returns on another: the
/// first step of every `Node::broadcast`.
fn polling(m: &mut Metrics) {
    const WAKES: usize = 200;
    let poller = Arc::new(Poller::new().expect("epoll instance"));
    let (woke_tx, woke_rx) = std::sync::mpsc::channel::<Instant>();
    let waiter = {
        let poller = Arc::clone(&poller);
        std::thread::Builder::new()
            .name("hpv-probe-wait".into())
            .spawn(move || {
                let mut events = Events::with_capacity(8);
                for _ in 0..WAKES {
                    if poller.wait(&mut events, None).is_err() {
                        return;
                    }
                    if woke_tx.send(Instant::now()).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn waiter thread")
    };
    let mut wake_ns = Vec::with_capacity(WAKES);
    for _ in 0..WAKES {
        // Long enough for the waiter to be back inside `wait`, so this is a
        // real wake-up and not a flag found set.
        std::thread::sleep(Duration::from_micros(200));
        let notified = Instant::now();
        if poller.notify().is_err() {
            break;
        }
        match woke_rx.recv_timeout(Duration::from_secs(1)) {
            Ok(woke) => wake_ns.push(woke.saturating_duration_since(notified).as_nanos() as f64),
            Err(_) => break,
        }
    }
    drop(woke_rx);
    // Unblock a waiter that is still waiting, then collect it.
    let _ = poller.notify();
    waiter.join().expect("waiter thread panicked");
    m.set("polling.notify_wake_us", crate::stats::median(&wake_ns) / 1e3);
}
