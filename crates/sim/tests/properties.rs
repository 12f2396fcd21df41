//! Property-based tests of the simulator: determinism, conservation laws
//! and overlay health under random scenarios.

use hyparview_core::Config;
use hyparview_gossip::HyParViewMembership;
use hyparview_sim::protocols::{build_hyparview, ProtocolKind};
use hyparview_sim::{AnySim, Latency, LatencyModel, ProtocolConfigs, Scenario, Sim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every latency shape the simulator supports, spanning both assignments.
fn all_latencies(a: u64, b: u64, sigma_milli: u32) -> [Latency; 6] {
    [
        Latency::fixed(a.max(1)),
        Latency::uniform(a, b),
        Latency::uniform(a, b).per_link(),
        Latency::log_normal(a.max(1), sigma_milli),
        Latency::log_normal(a.max(1), sigma_milli).per_link(),
        // Degenerate, deliberately backwards bounds: must never panic.
        Latency::uniform(b.max(a), a.min(b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ byte-identical experiment outcomes, for every protocol.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>(), n in 20usize..80, failure in 0.0f64..0.8) {
        for kind in [ProtocolKind::HyParView, ProtocolKind::Cyclon] {
            let run = || {
                let scenario = Scenario::new(n, seed);
                let mut sim = AnySim::build(kind, &scenario, &ProtocolConfigs::paper());
                sim.run_cycles(3);
                sim.fail_fraction(failure);
                let r1 = sim.broadcast_random();
                let r2 = sim.broadcast_random();
                (r1.delivered, r1.sent, r2.delivered, r2.sent)
            };
            prop_assert_eq!(run(), run());
        }
    }

    /// Deliveries + redundant + to_dead exactly account for transmissions
    /// minus the ones never delivered... more precisely: every transmission
    /// lands in exactly one bucket.
    #[test]
    fn broadcast_accounting_balances(seed in any::<u64>(), n in 20usize..100, failure in 0.0f64..0.9) {
        let scenario = Scenario::new(n, seed);
        let mut sim = build_hyparview(&scenario, Config::default());
        sim.run_cycles(2);
        sim.fail_fraction(failure);
        if sim.alive_count() == 0 {
            return Ok(());
        }
        let report = sim.broadcast_random();
        // Each sent transmission is delivered-first, redundant, or to a
        // dead node. delivered excludes the origin's local delivery.
        prop_assert_eq!(
            report.sent,
            (report.delivered - 1) + report.redundant + report.to_dead,
            "unbalanced accounting: {:?}", report
        );
        prop_assert!(report.delivered <= report.alive);
        prop_assert!(report.reliability() <= 1.0);
    }

    /// Join sequences always produce a connected HyParView overlay.
    #[test]
    fn joins_always_connect(seed in any::<u64>(), n in 2usize..120) {
        let scenario = Scenario::new(n, seed);
        let sim = build_hyparview(&scenario, Config::default());
        let views: Vec<Option<Vec<usize>>> = sim
            .out_views()
            .into_iter()
            .map(|v| v.map(|ids| ids.into_iter().map(|id| id.index()).collect()))
            .collect();
        let overlay = hyparview_graph::Overlay::new(views);
        let conn = hyparview_graph::connectivity(&overlay);
        prop_assert!(conn.is_connected(), "{} components at n={n}", conn.components);
    }

    /// Active views never exceed capacity and never contain dead peers
    /// after a full healing run.
    #[test]
    fn healed_views_are_accurate(seed in any::<u64>(), failure in 0.1f64..0.7) {
        let scenario = Scenario::new(60, seed);
        let mut sim = build_hyparview(&scenario, Config::default());
        sim.run_cycles(3);
        sim.fail_fraction(failure);
        // Broadcasts trigger detection; cycles finish the healing.
        for _ in 0..5 {
            if sim.alive_count() > 0 {
                sim.broadcast_random();
            }
        }
        sim.run_cycles(3);
        for id in sim.alive_ids() {
            let view = sim.node(id).protocol().active_view().to_vec();
            prop_assert!(view.len() <= 5);
            for peer in view {
                prop_assert!(sim.is_alive(peer), "{id:?} still lists dead peer {peer:?}");
            }
        }
    }

    /// The latency model never reorders causally-chained protocol steps in
    /// a way that breaks the overlay: uniform random latencies still yield
    /// a connected overlay.
    #[test]
    fn random_latencies_still_connect(seed in any::<u64>()) {
        let scenario =
            Scenario::new(50, seed).with_latency(hyparview_sim::Latency::uniform(1, 20));
        let sim: Sim<HyParViewMembership<hyparview_core::SimId>> =
            scenario.build_with(|id, seed| {
                HyParViewMembership::new(id, Config::default(), seed).unwrap()
            });
        let views: Vec<Option<Vec<usize>>> = sim
            .out_views()
            .into_iter()
            .map(|v| v.map(|ids| ids.into_iter().map(|id| id.index()).collect()))
            .collect();
        let overlay = hyparview_graph::Overlay::new(views);
        prop_assert!(hyparview_graph::connectivity(&overlay).is_connected());
    }

    /// Any latency model is a pure function of the scenario seed: same
    /// seed ⇒ the identical `BroadcastReport`, field for field.
    #[test]
    fn every_latency_model_is_deterministic_per_seed(
        seed in any::<u64>(),
        a in 1u64..6,
        b in 1u64..30,
        sigma_milli in 100u32..1200,
    ) {
        for latency in all_latencies(a, b, sigma_milli) {
            let run = || {
                let scenario = Scenario::new(40, seed).with_latency(latency);
                let mut sim = build_hyparview(&scenario, Config::default());
                sim.run_cycles(2);
                sim.broadcast_from(hyparview_core::SimId::new(0))
            };
            prop_assert_eq!(run(), run(), "{:?} diverged at seed {}", latency, seed);
        }
    }

    /// Draws of every model respect the model's declared bounds — including
    /// models built from degenerate (reversed) parameters.
    #[test]
    fn latency_samples_respect_declared_bounds(
        seed in any::<u64>(),
        a in 0u64..50,
        b in 0u64..50,
        sigma_milli in 0u32..2000,
    ) {
        let models = [
            LatencyModel::Fixed(a),
            LatencyModel::Uniform { min: a, max: b },
            LatencyModel::Uniform { min: b, max: a },
            LatencyModel::LogNormal { median: a.max(1), sigma_milli, cap: b.max(1) },
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        for model in models {
            let (lo, hi) = model.bounds();
            prop_assert!(lo >= 1, "{:?}: a zero-latency draw breaks causality", model);
            prop_assert!(lo <= hi);
            for _ in 0..64 {
                let draw = model.sample(&mut rng);
                prop_assert!((lo..=hi).contains(&draw), "{:?} drew {}", model, draw);
            }
        }
    }

    /// The bucket calendar queue pops the exact `(time, seq)` total order
    /// of a `BinaryHeap` reference model under random interleaved workloads: bursts of
    /// pushes at randomly spread times (near-future, tied, far beyond the
    /// bucket ring's window, already past) alternating with partial
    /// drains, full drains followed by far-only pushes (the empty-ring
    /// cursor jump) and `clear()`. Every one of those paths moves bucket
    /// buffers through the ring's free list, so a recycled buffer that kept
    /// an event, or lost one, shows as a diverging pop.
    #[test]
    fn bucket_queue_pops_identically_to_heap(
        seed in any::<u64>(),
        rounds in 1usize..24,
    ) {
        use hyparview_core::SimId;
        use hyparview_sim::EventQueue;
        use rand::Rng;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// The reference model: a min-heap over `(time, seq, payload)`.
        type Model = BinaryHeap<Reverse<(u64, u64, u64)>>;

        /// Pops the queue and the model and returns the agreed event time.
        fn pop_both(
            queue: &mut EventQueue<u64>,
            model: &mut Model,
        ) -> Result<Option<u64>, TestCaseError> {
            match (queue.pop(), model.pop()) {
                (Some(e), Some(Reverse(expected))) => {
                    prop_assert_eq!((e.time, e.seq, e.payload), expected);
                    Ok(Some(e.time))
                }
                (None, None) => Ok(None),
                _ => Err(TestCaseError::fail("queue and model disagree on length")),
            }
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = Model::new();
        let mut now = 0u64;
        // The queue numbers its pushes from 0 and `clear()` does not reset
        // the count, so the payload doubles as the expected `seq`.
        let mut payload = 0u64;
        for _ in 0..rounds {
            let round = rng.gen_range(0u32..10);
            match round {
                // An empty ring: the far-only pushes below make the next
                // pop jump the cursor instead of sweeping.
                7 => {
                    while let Some(time) = pop_both(&mut queue, &mut model)? {
                        now = time;
                    }
                }
                8 => {
                    queue.clear();
                    model.clear();
                }
                _ => {}
            }
            for _ in 0..rng.gen_range(0..80) {
                let time = match (round, rng.gen_range(0u32..10)) {
                    (7, _) => now + rng.gen_range(256u64..5_000),
                    // Already past: behind the last pop, so behind the cursor.
                    (9, _) => now.saturating_sub(rng.gen_range(0u64..40)),
                    // Mix unit-latency, jitter, ties, and far-tail times.
                    (_, 0..=5) => now + 1,
                    (_, 6..=7) => now + rng.gen_range(1u64..32),
                    (_, 8) => now + rng.gen_range(1u64..300),
                    _ => now + rng.gen_range(1u64..5_000),
                };
                queue.push(time, SimId::new(0), SimId::new(1), payload);
                model.push(Reverse((time, payload, payload)));
                payload += 1;
            }
            prop_assert_eq!(queue.len(), model.len());
            for _ in 0..rng.gen_range(0..120) {
                match pop_both(&mut queue, &mut model)? {
                    Some(time) => now = time,
                    None => break,
                }
            }
        }
        // Full drain: the remaining orders must agree event for event.
        while pop_both(&mut queue, &mut model)?.is_some() {}
        prop_assert!(queue.is_empty() && model.is_empty());
    }

    /// Fault injection is a pure function of the scenario seed: the same
    /// loss/duplication plan at the same seed reproduces the identical
    /// `BroadcastReport`, field for field, drops included.
    #[test]
    fn fault_injection_is_deterministic_per_seed(
        seed in any::<u64>(),
        n in 20usize..70,
        loss in 0.0f64..0.4,
        duplicate in 0.0f64..0.2,
    ) {
        use hyparview_sim::FaultPlan;
        let run = || {
            let plan = FaultPlan::default().with_loss(loss).with_duplication(duplicate);
            let scenario = Scenario::new(n, seed).with_faults(plan);
            let mut sim = build_hyparview(&scenario, Config::default());
            sim.run_cycles(2);
            let report = sim.broadcast_random();
            (report, sim.stats())
        };
        prop_assert_eq!(run(), run());
    }

    /// A plan with zero loss and zero duplication reproduces the
    /// fault-free run exactly — existing figures are unchanged by the
    /// fault seam's mere existence.
    #[test]
    fn zero_rate_fault_plan_is_invisible(seed in any::<u64>(), n in 20usize..70) {
        use hyparview_sim::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let mut scenario = Scenario::new(n, seed);
            if let Some(plan) = plan {
                scenario = scenario.with_faults(plan);
            }
            let mut sim = build_hyparview(&scenario, Config::default());
            sim.run_cycles(2);
            let report = sim.broadcast_random();
            (report, sim.stats(), sim.time())
        };
        let zeroed = FaultPlan::default().with_loss(0.0).with_duplication(0.0);
        prop_assert_eq!(run(None), run(Some(zeroed)));
    }

    /// Lossy accounting still balances — dropped frames land in exactly
    /// one bucket — and drops never strand the event queue.
    #[test]
    fn lossy_accounting_balances_and_stays_quiescent(
        seed in any::<u64>(),
        n in 20usize..80,
        loss in 0.0f64..0.5,
    ) {
        use hyparview_sim::FaultPlan;
        let scenario =
            Scenario::new(n, seed).with_faults(FaultPlan::default().with_loss(loss));
        let mut sim = build_hyparview(&scenario, Config::default());
        sim.run_cycles(2);
        let report = sim.broadcast_random();
        prop_assert_eq!(
            report.sent,
            (report.delivered - 1) + report.redundant + report.to_dead + report.dropped,
            "unbalanced lossy accounting: {:?}", report
        );
        prop_assert!(sim.is_quiescent(), "drops stranded {} events", sim.pending_events());
    }

    /// `heal_partitions` restores single-component convergence: after the
    /// heal, a broadcast from any alive node is atomic again.
    #[test]
    fn heal_restores_single_component_convergence(seed in any::<u64>(), n in 20usize..70) {
        let scenario = Scenario::new(n, seed);
        let mut sim = build_hyparview(&scenario, Config::default());
        sim.run_cycles(2);
        let alive = sim.alive_ids();
        let (left, right) = alive.split_at(alive.len() / 2);
        sim.partition_network(&[left.to_vec(), right.to_vec()]);
        let cut = sim.broadcast_from(alive[0]);
        prop_assert!(!cut.is_atomic(), "a halved network cannot converge: {:?}", cut);
        sim.heal_partitions();
        let healed = sim.broadcast_from(alive[0]);
        prop_assert!(healed.is_atomic(), "heal must restore convergence: {:?}", healed);
        prop_assert_eq!(healed.dropped, 0);
    }
}

// ---------------------------------------------------------------------------
// Composition drift
// ---------------------------------------------------------------------------

/// Checks what one fixed run left behind against recorded values: the
/// event-loop counters, the whole metric snapshot, and an FNV-1a hash (the
/// std hasher makes no promise across toolchains) of the overlay: every
/// out-view, then every eager and lazy set in Plumtree mode.
fn assert_drift_free<M: hyparview_gossip::Membership<hyparview_core::SimId>>(
    sim: &Sim<M>,
    stats: hyparview_sim::SimStats,
    counters: &[(&str, u64)],
    overlay_hash: u64,
) {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let plumtree = sim.plumtree_stats_total().is_some();
    for (index, view) in sim.out_views().into_iter().enumerate() {
        let Some(view) = view else {
            mix(u64::MAX);
            continue;
        };
        let mut sets = vec![view];
        if plumtree {
            let node = sim.plumtree_node(hyparview_core::SimId::new(index));
            sets.push(node.eager_peers());
            sets.push(node.lazy_peers());
        }
        for set in sets {
            mix(set.len() as u64);
            set.iter().for_each(|peer| mix(peer.index() as u64));
        }
    }
    assert_eq!(sim.stats(), stats, "SimStats moved");
    let snapshot = sim.metrics_snapshot();
    assert_eq!(snapshot.counters().collect::<Vec<_>>(), counters, "metric snapshot moved");
    assert_eq!(hash, overlay_hash, "overlay (views, eager/lazy sets) moved: {hash}");
}

/// The scenario both drift tests run: stabilise, broadcast, crash 30%,
/// broadcast through the repair in bursts, heal, broadcast again (20 in
/// all).
fn drift_run<M: hyparview_gossip::Membership<hyparview_core::SimId>>(sim: &mut Sim<M>) {
    sim.run_cycles(10);
    for _ in 0..5 {
        sim.broadcast_random();
    }
    sim.fail_fraction(0.3);
    for _ in 0..5 {
        // Bursts of two, so lazy-link batching has something to fold.
        let origin = sim.random_alive();
        sim.broadcast_burst_from(origin, 2);
    }
    sim.run_cycles(3);
    for _ in 0..5 {
        sim.broadcast_random();
    }
}

/// 300 nodes of adaptive Plumtree over heavy-tailed per-link latency with
/// timeouts to match, 5% loss and 2% duplication: `sim_plumtree_wan_churn`
/// in small.
fn wan_plumtree_scenario(seed: u64) -> Scenario {
    use hyparview_sim::{BroadcastMode, FaultPlan, PlumtreeConfig};
    let latency = Latency::log_normal(2, 600).per_link();
    let plumtree = PlumtreeConfig::default()
        .with_optimization_threshold(Some(2))
        .with_lazy_flush_interval(2)
        .with_timeouts_for_max_latency(latency.max_hop());
    Scenario::new(300, seed)
        .with_broadcast_mode(BroadcastMode::Plumtree)
        .with_plumtree(plumtree)
        .with_latency(latency)
        .with_faults(FaultPlan::default().with_loss(0.05).with_duplication(0.02))
}

/// The node composition must not drift: these constants pin RNG draws,
/// fault nonces and queue order end to end. Recorded at PR 24, the commit
/// on top of `be299b3` at which Plumtree stopped announcing an id to a peer
/// known to hold it (and stopped pruning a parent over a repeated frame):
/// `frames.ihave_sent` 8,359 -> 5,979, `plumtree.prunes_sent` 4,036 ->
/// 3,533, `plumtree.grafts_sent` 945 -> 848. They had stood unchanged since
/// the commit before the simulator and the live stack began sharing one
/// `NodeCore`.
#[test]
fn adaptive_plumtree_over_hyparview_has_not_drifted() {
    let mut sim = build_hyparview(&wan_plumtree_scenario(0xD21F7), Config::default());
    drift_run(&mut sim);
    // Nothing the change left unsent was needed: 5 x 300 + 15 x 210, every
    // live node and every broadcast (4,649 at the parent, one node missed).
    assert_eq!(sim.metrics().value_by_name("broadcast.delivered"), Some(4_650));
    let stats = hyparview_sim::SimStats {
        membership_delivered: 62_823,
        membership_to_dead: 275,
        gossip_delivered: 7_163,
        gossip_to_dead: 2,
        failure_notifications: 591,
        broadcasts: 20,
        events_processed: 76_686,
    };
    let counters = [
        ("sim.membership_delivered", 62_823),
        ("sim.membership_to_dead", 275),
        ("sim.gossip_delivered", 7_163),
        ("sim.gossip_to_dead", 2),
        ("sim.failure_notifications", 591),
        ("broadcast.sent", 20),
        ("sim.events_processed", 76_686),
        ("frames.sent", 71_252),
        ("frames.payload_sent", 7_546),
        ("frames.ihave_sent", 5_979),
        ("frames.ihave_batch_sent", 1_126),
        ("frames.ihave_batch_anns_sent", 2_252),
        ("broadcast.delivered", 4_650),
        ("broadcast.duplicates", 2_533),
        ("faults.dropped", 989),
        ("faults.partition_dropped", 0),
        ("faults.duplicated", 369),
        ("attack.joins_damped", 0),
        ("attack.neighbors_damped", 0),
        ("attack.tenure_swaps", 0),
        ("attack.shuffle_boosts", 0),
        ("attack.neighbor_floods", 0),
        ("attack.rejoins", 0),
        ("attack.shuffles_biased", 0),
        ("plumtree.gossip_sent", 7_401),
        ("plumtree.ihave_sent", 8_085),
        ("plumtree.ihave_suppressed", 3_832),
        ("plumtree.ihave_batches_sent", 1_101),
        ("plumtree.grafts_sent", 848),
        ("plumtree.prunes_sent", 3_533),
        ("plumtree.optimizations", 1_089),
        ("plumtree.late_optimizations", 230),
        ("plumtree.graft_dead_letters", 0),
        ("plumtree.delivered", 4_650),
        ("plumtree.redundant", 2_533),
    ];
    assert_drift_free(&sim, stats, &counters, 16_708_003_444_784_576_617);
}

/// Sixteen ids in flight at once, three times, through a crash: a message
/// store that forgot an id while a neighbour could still announce, push or
/// graft it would re-deliver or leave a graft unanswered, and move these
/// counts (the snapshot's `plumtree.*` rows are `plumtree_stats_total()`).
/// Recorded at PR 24, the commit on top of `be299b3` (see the test above):
/// `frames.ihave_sent` 2,411 -> 1,814 with `frames.ihave_batch_anns_sent`
/// 20,040 -> 14,194, `plumtree.prunes_sent` 19,350 -> 19,004,
/// `plumtree.grafts_sent` 4,384 -> 3,690; before that they had stood since
/// the commit before the store began to age out by the clock.
#[test]
fn plumtree_bursts_in_flight_have_not_drifted() {
    let mut sim = build_hyparview(&wan_plumtree_scenario(0xB0257), Config::default());
    sim.run_cycles(10);
    for burst in 0..3 {
        if burst == 1 {
            sim.fail_fraction(0.2);
        }
        let origin = sim.random_alive();
        sim.broadcast_burst_from(origin, 16);
    }
    // 16 x 300 + 32 x 240, as at the parent: every live node, every id.
    assert_eq!(sim.metrics().value_by_name("broadcast.delivered"), Some(12_480));
    let stats = hyparview_sim::SimStats {
        membership_delivered: 72_069,
        membership_to_dead: 165,
        gossip_delivered: 30_890,
        gossip_to_dead: 0,
        failure_notifications: 397,
        broadcasts: 48,
        events_processed: 114_042,
    };
    let counters = [
        ("sim.membership_delivered", 72_069),
        ("sim.membership_to_dead", 165),
        ("sim.gossip_delivered", 30_890),
        ("sim.gossip_to_dead", 0),
        ("sim.failure_notifications", 397),
        ("broadcast.sent", 48),
        ("sim.events_processed", 114_042),
        ("frames.sent", 106_071),
        ("frames.payload_sent", 32_456),
        ("frames.ihave_sent", 1_814),
        ("frames.ihave_batch_sent", 1_959),
        ("frames.ihave_batch_anns_sent", 14_194),
        ("broadcast.delivered", 12_480),
        ("broadcast.duplicates", 18_458),
        ("faults.dropped", 2_947),
        ("faults.partition_dropped", 0),
        ("faults.duplicated", 1_129),
        ("attack.joins_damped", 0),
        ("attack.neighbors_damped", 0),
        ("attack.tenure_swaps", 0),
        ("attack.shuffle_boosts", 0),
        ("attack.neighbor_floods", 0),
        ("attack.rejoins", 0),
        ("attack.shuffles_biased", 0),
        ("plumtree.gossip_sent", 31_826),
        ("plumtree.ihave_sent", 15_704),
        ("plumtree.ihave_suppressed", 5_720),
        ("plumtree.ihave_batches_sent", 1_920),
        ("plumtree.grafts_sent", 3_690),
        ("plumtree.prunes_sent", 19_004),
        ("plumtree.optimizations", 838),
        ("plumtree.late_optimizations", 110),
        ("plumtree.graft_dead_letters", 0),
        ("plumtree.delivered", 12_480),
        ("plumtree.redundant", 18_458),
    ];
    assert_drift_free(&sim, stats, &counters, 3_234_883_730_706_206_347);
}

/// The same pin for the thin `Membership` path: flood over Cyclon.
#[test]
fn flood_over_cyclon_has_not_drifted() {
    use hyparview_baselines::CyclonConfig;
    use hyparview_sim::protocols::build_cyclon;
    let scenario = Scenario::new(300, 0xD21F7).with_fanout(4);
    let mut sim = build_cyclon(&scenario, CyclonConfig::paper());
    drift_run(&mut sim);
    let stats = hyparview_sim::SimStats {
        membership_delivered: 78_016,
        membership_to_dead: 168,
        gossip_delivered: 13_996,
        gossip_to_dead: 3_564,
        failure_notifications: 0,
        broadcasts: 20,
        events_processed: 95_744,
    };
    let counters = [
        ("sim.membership_delivered", 78_016),
        ("sim.membership_to_dead", 168),
        ("sim.gossip_delivered", 13_996),
        ("sim.gossip_to_dead", 3_564),
        ("sim.failure_notifications", 0),
        ("broadcast.sent", 20),
        ("sim.events_processed", 95_744),
        ("frames.sent", 95_744),
        ("frames.payload_sent", 17_560),
        ("frames.ihave_sent", 0),
        ("frames.ihave_batch_sent", 0),
        ("frames.ihave_batch_anns_sent", 0),
        ("broadcast.delivered", 4_390),
        ("broadcast.duplicates", 9_626),
        ("faults.dropped", 0),
        ("faults.partition_dropped", 0),
        ("faults.duplicated", 0),
        ("attack.joins_damped", 0),
        ("attack.neighbors_damped", 0),
        ("attack.tenure_swaps", 0),
        ("attack.shuffle_boosts", 0),
        ("attack.neighbor_floods", 0),
        ("attack.rejoins", 0),
        ("attack.shuffles_biased", 0),
    ];
    assert_drift_free(&sim, stats, &counters, 16_735_690_967_291_719_681);
}
