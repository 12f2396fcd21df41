//! The names this benchmark defines: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit, its direction, where the number
//! comes from and which end-to-end metric it should move on which workload.
//!
//! `BENCHMARK.json` repeats names, units and directions (a unit test keeps
//! the two in step); `README.md` repeats the rest for people.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim_flood_failures",
        why: "Fig. 2 cell (10k nodes, flood, unit latency, 50% crash): the simulator's fast path, O(1) queue buckets, flood dedup and repair; Plumtree, timers, faults and the overflow heap stay idle",
    },
    Workload {
        name: "sim_plumtree_wan_churn",
        why: "same sim layer used differently: heavy-tail per-link latency through the overflow heap, Plumtree timers and grafts, a fault draw per frame, joins and crashes inside the window",
    },
    Workload {
        name: "live_flood_small",
        why: "2,000 live TCP nodes over loopback, 64-byte flood: ~3N small frames per broadcast make syscalls, epoll batches, per-frame allocation and fd count the whole cost; copying is negligible",
    },
    Workload {
        name: "live_plumtree_large",
        why: "500 live nodes, Plumtree, 8 KiB payloads: per-peer encode and its double copy, frame reassembly across reads, partial writes, timers and IHave batching dominate; connection count does not",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Where the number comes from: a span, a probe, a public counter.
    pub source: &'static str,
    /// The prediction: which end-to-end metric it should move, on which
    /// workload. On workloads not listed the prediction is no change.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, source, moves }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub metric: Metric,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        metric: m(
            "setup_s",
            "s",
            Lower,
            "start of run to measurement window ready; sim: build + stabilise + overlay check; live: Cluster::new + spawn + join + converge + warm-up",
            "-",
        ),
        // The one bound above 10%: set-up is timed once a run and its
        // run-to-run spread on the defining box is 20 to 30%.
        bound: 0.25,
    },
    EndToEnd {
        metric: m(
            "delivered_share",
            "fraction",
            Higher,
            "delivered / expected over all measured broadcasts (1 - missed_share); live: a delivery not seen within 2 s of due is missed; sim: exact per seed",
            "-",
        ),
        // Values sit at 1, so this share of the median is the absolute
        // bound of 0.001 on missed_share.
        bound: 0.001,
    },
    EndToEnd {
        metric: m(
            "frames_per_delivery",
            "count",
            Lower,
            "frames sent / node deliveries; sim: whole window, exact per seed; live: NodeStats deltas over the saturate phase",
            "-",
        ),
        bound: 0.10,
    },
    EndToEnd {
        metric: m("peak_rss_mb", "MB", Lower, "VmHWM of the process at the end of the run", "-"),
        bound: 0.10,
    },
];

pub const PER_LAYER: &[Metric] = &[
    // ---- core ------------------------------------------------------------
    m("core.handle_join_ns", "ns", Lower, "probe: Join on a populated HyParView<u32>", "setup_s @ both sim"),
    m("core.handle_forward_join_ns", "ns", Lower, "probe: ForwardJoin with a live ttl", "setup_s @ both sim"),
    m("core.handle_shuffle_ns", "ns", Lower, "probe: Shuffle walk step", "setup_s @ sim_flood_failures; deliveries_per_s @ sim_plumtree_wan_churn"),
    m("core.shuffle_tick_ns", "ns", Lower, "probe: shuffle_tick", "setup_s @ sim_flood_failures; deliveries_per_s @ sim_plumtree_wan_churn"),
    m("core.handle_neighbor_ns", "ns", Lower, "probe: high-priority Neighbor request", "setup_s @ sim_flood_failures; deliveries_per_s @ sim_plumtree_wan_churn"),
    m("core.on_peer_failed_ns", "ns", Lower, "probe: on_peer_failed and the repair it starts", "deliveries_per_s @ sim_flood_failures (post_crash)"),
    m("core.broadcast_targets_ns", "ns", Lower, "probe: broadcast_targets(Some(sender))", "deliveries_per_s @ sim_flood_failures, live_flood_small"),
    m("core.msgs_per_bcast", "count", Lower, "exact: sim.membership_delivered delta / broadcasts in the window", "explains sim.events_per_bcast"),
    // ---- gossip ----------------------------------------------------------
    m("gossip.deliver_first_ns", "ns", Lower, "probe: GossipState::deliver, new id", "deliveries_per_s @ sim_flood_failures"),
    m("gossip.deliver_dup_ns", "ns", Lower, "probe: GossipState::deliver, seen id", "deliveries_per_s @ sim_flood_failures"),
    m("gossip.redundant_per_delivery", "count", Lower, "exact: BroadcastReport sums, redundant / delivered", "sim.events_per_bcast"),
    // ---- plumtree --------------------------------------------------------
    m("plumtree.broadcast_ns", "ns", Lower, "probe: PlumtreeState::broadcast, 4 eager + 1 lazy peer", "deliveries_per_s @ sim_plumtree_wan_churn, live_plumtree_large"),
    m("plumtree.gossip_first_ns", "ns", Lower, "probe: Gossip, new id", "deliveries_per_s @ sim_plumtree_wan_churn, live_plumtree_large"),
    m("plumtree.gossip_dup_ns", "ns", Lower, "probe: Gossip, seen id (answers Prune)", "deliveries_per_s @ sim_plumtree_wan_churn"),
    m("plumtree.ihave_ns", "ns", Lower, "probe: IHave for a delivered id", "deliveries_per_s @ sim_plumtree_wan_churn; bcast_latency_p99_ms @ live_plumtree_large"),
    m("plumtree.ihave_batch_ns_per_ann", "ns", Lower, "probe: IHaveBatch of 16 delivered ids, per announcement", "deliveries_per_s @ live_plumtree_large"),
    m("plumtree.graft_ns", "ns", Lower, "probe: Graft pulling a cached payload", "deliveries_per_s @ sim_plumtree_wan_churn"),
    m("plumtree.on_timer_ns", "ns", Lower, "probe: Missing timer firing for an announced id", "deliveries_per_s @ sim_plumtree_wan_churn; bcast_latency_p99_ms @ live_plumtree_large"),
    m("plumtree.control_per_bcast", "count", Lower, "sim: exact BroadcastReport control sum; live: non-payload broadcast frames", "frames_per_delivery; delivered_share"),
    m("plumtree.grafts_per_bcast", "count", Lower, "plumtree.grafts_sent delta / broadcasts (exact in sim)", "delivered_share; bcast_latency_p99_ms @ live_plumtree_large"),
    m("plumtree.dead_letters", "count", Lower, "plumtree.graft_dead_letters delta (exact in sim)", "delivered_share"),
    // ---- baselines -------------------------------------------------------
    m("baselines.cyclon_cycle_ns", "ns", Lower, "probe: Cyclon::on_cycle on a full view", "none of the four workloads; shows a slowdown of shared code in the paper's comparison protocols"),
    m("baselines.scamp_forward_ns", "ns", Lower, "probe: Scamp forwarded subscription", "none of the four workloads; as above"),
    // ---- sim -------------------------------------------------------------
    m("sim.bcasts_per_s", "1/s", Higher, "measured broadcasts / window wall time; cycles, crashes and churn inside the window included", "deliveries_per_s @ both sim"),
    m("sim.events_per_s", "1/s", Higher, "SimStats::events_processed delta / window wall time", "deliveries_per_s = events_per_s / events_per_bcast * deliveries per bcast"),
    m("sim.events_per_bcast", "count", Lower, "exact: events_processed delta / broadcasts, whole window", "deliveries_per_s @ both sim"),
    m("sim.build_s", "s", Lower, "span: Scenario build (sequential joins)", "setup_s @ both sim"),
    m("sim.stabilise_s_per_cycle", "s", Lower, "span: run_cycles / cycles in set-up", "setup_s @ both sim"),
    m("sim.bcast_us_stable", "us", Lower, "span mean, phase stable", "deliveries_per_s @ sim_flood_failures"),
    m("sim.bcast_us_post_crash", "us", Lower, "span mean, phase post_crash", "deliveries_per_s @ sim_flood_failures"),
    m("sim.bcast_us_healed", "us", Lower, "span mean, phase healed", "deliveries_per_s @ sim_flood_failures"),
    m("sim.fail_fraction_ms", "ms", Lower, "span: fail_fraction(0.5)", "deliveries_per_s @ sim_flood_failures"),
    m("sim.bcast_us", "us", Lower, "span mean, all broadcasts", "deliveries_per_s @ sim_plumtree_wan_churn"),
    m("sim.churn_epoch_ms", "ms", Lower, "span mean: run_churn of one epoch", "deliveries_per_s @ sim_plumtree_wan_churn"),
    m("sim.queue_unit_ns_per_event", "ns", Lower, "probe: EventQueue push+pop, 4,096-event unit-latency waves", "deliveries_per_s @ sim_flood_failures"),
    m("sim.queue_tail_ns_per_event", "ns", Lower, "probe: EventQueue push+pop, log-normal(2, 600) delays", "deliveries_per_s @ sim_plumtree_wan_churn"),
    m("sim.allocs_per_event", "count", Lower, "exact: counting allocator on the driver thread over the window / events, traced run", "deliveries_per_s, peak_rss_mb @ both sim"),
    m("sim.alloc_bytes_per_event", "B", Lower, "exact: as above, bytes requested", "deliveries_per_s, peak_rss_mb @ both sim"),
    m("sim.faults_dropped", "count", Lower, "exact: faults.dropped delta over the window", "delivered_share @ sim_plumtree_wan_churn"),
    m("sim.faults_duplicated", "count", Lower, "exact: faults.duplicated delta over the window", "delivered_share @ sim_plumtree_wan_churn"),
    m("sim.trace_on_overhead_share", "fraction", Lower, "60 broadcasts after the window with enable_tracing + enable_path_tracing off, then 60 with both on", "ROADMAP aim 4(e); no end-to-end metric (tracing is off in every measured window)"),
    // ---- graph -----------------------------------------------------------
    m("graph.overlay_new_ms", "ms", Lower, "span: Overlay::new on the stabilised overlay", "setup_s @ both sim"),
    m("graph.connectivity_ms", "ms", Lower, "span: connectivity", "setup_s @ both sim"),
    m("graph.in_degrees_ms", "ms", Lower, "span: in_degrees", "setup_s @ both sim"),
    // ---- net.wire --------------------------------------------------------
    m("net.wire.encode_gossip_64b_ns", "ns", Lower, "probe: encode, Gossip with 64 B", "deliveries_per_s @ live_flood_small"),
    m("net.wire.decode_gossip_64b_ns", "ns", Lower, "probe: decode of the same", "deliveries_per_s @ live_flood_small"),
    m("net.wire.encode_shuffle_ns", "ns", Lower, "probe: encode, Shuffle with 8 addresses", "setup_s @ both live"),
    m("net.wire.decode_shuffle_ns", "ns", Lower, "probe: decode of the same", "setup_s @ both live"),
    m("net.wire.encode_ihave_batch16_ns", "ns", Lower, "probe: encode, IHaveBatch of 16", "deliveries_per_s @ live_plumtree_large"),
    m("net.wire.encode_allocs", "count", Lower, "exact: allocations of one 64 B Gossip encode", "deliveries_per_s @ live_flood_small"),
    m("net.wire.encode_gossip_8k_ns", "ns", Lower, "probe: encode, PlumtreeGossip with 8 KiB", "deliveries_per_s @ live_plumtree_large"),
    m("net.wire.decode_gossip_8k_ns", "ns", Lower, "probe: decode of the same", "deliveries_per_s @ live_plumtree_large"),
    m("net.wire.reader_mb_per_s", "MB/s", Higher, "probe: FrameReader fed 8 KiB frames in 16 KiB slices, so frames straddle reads", "deliveries_per_s @ live_plumtree_large"),
    // ---- net.reactor -----------------------------------------------------
    m("net.reactor.frames_per_s", "1/s", Higher, "NodeStats::frames_sent delta / saturate wall time", "deliveries_per_s = frames_per_s / frames_per_delivery"),
    m("net.reactor.cpu_user_us_per_kframe", "us", Lower, "thread hpv-reactor in /proc/self/task, saturate", "deliveries_per_s @ both live"),
    m("net.reactor.cpu_sys_us_per_kframe", "us", Lower, "as above, system time (syscall coalescing should move it)", "deliveries_per_s @ both live"),
    m("net.reactor.busy_share_paced", "fraction", Lower, "1 - reactor.epoll_wait_us delta / wall, paced", "bcast_latency_p99_ms rises with it"),
    m("net.reactor.busy_share_saturate", "fraction", Higher, "as above, saturate: states that the reactor was fully busy, so throughput reads as cost", "-"),
    m("net.reactor.epoll_waits_per_kframe", "count", Lower, "reactor.epoll_waits delta per 1,000 frames, saturate", "bcast_latency_p99_ms @ both live"),
    m("net.reactor.batch_max", "count", Lower, "reactor.batch_max at the end of the run", "bcast_latency_p99_ms @ both live"),
    m("net.reactor.outq_high_water", "count", Lower, "reactor.outq_high_water at the end of the run", "bcast_latency_p99_ms @ live_plumtree_large"),
    m("net.reactor.timer_lag_us_max", "us", Lower, "reactor.timer_lag_us_max at the end of the run", "bcast_latency_p99_ms @ live_plumtree_large"),
    m("net.reactor.timers_fired_per_bcast", "count", Lower, "reactor.timers_fired delta / broadcasts, saturate", "deliveries_per_s @ live_plumtree_large only"),
    m("net.reactor.ctx_switches_per_kframe", "count", Lower, "context switches of hpv-reactor per 1,000 frames, saturate", "bcast_latency_p99_ms @ both live"),
    m("net.reactor.allocs_per_frame", "count", Lower, "counting allocator, threads other than the driver, over the saturate phase of a traced run", "deliveries_per_s @ both live"),
    m("net.reactor.alloc_bytes_per_frame", "B", Lower, "as above, bytes requested", "deliveries_per_s @ live_plumtree_large mostly"),
    m("net.reactor.fds_per_node", "count", Lower, "entries in /proc/self/fd after convergence / N", "setup_s, peak_rss_mb @ live_flood_small"),
    m("net.reactor.run_delay_share", "fraction", Lower, "schedstat of hpv-reactor: runnable without a CPU, share of paced + saturate", "none: how disturbed the run was"),
    // ---- net -------------------------------------------------------------
    m("net.cluster_new_us", "us", Lower, "span: Cluster::new", "setup_s @ both live"),
    m("net.spawn_node_us", "us", Lower, "span mean: Cluster::spawn_node", "setup_s @ both live"),
    m("net.join_call_us", "us", Lower, "span mean: Node::join", "setup_s @ both live"),
    m("net.converge_s", "s", Lower, "span: last spawn wave done to two clean one-component probes", "setup_s @ both live"),
    m("net.rejoins", "count", Lower, "stranded nodes re-joined by the harness (0 once self-recovery lives in hyparview-net)", "setup_s @ both live"),
    m("net.shutdown_s", "s", Lower, "span: dropping every Node and the Cluster", "-"),
    m("net.broadcast_call_us_p50", "us", Lower, "span: Node::broadcast, median", "bcast_latency_p50_ms @ both live"),
    m("net.broadcast_call_us_p99", "us", Lower, "as above, 99th percentile", "bcast_latency_p50_ms @ both live"),
    m("net.stats_snapshot_us", "us", Lower, "span mean: Node::stats", "-"),
    m("net.bcast_first_hop_ms", "ms", Lower, "paced: due to first delivery with hops >= 1 observed, median", "bcast_latency_p50_ms: wake-up + first write"),
    m("net.bcast_complete_p50_ms", "ms", Lower, "paced: due to last of N deliveries observed, median", "bcast_latency_p99_ms tracks it"),
    m("net.bcast_reach_half_q1_ms", "ms", Lower, "paced: per broadcast, due to half the nodes having delivered; lower quartile over the broadcasts, which leaves disturbed broadcasts out and slow ones with them", "read beside bcast_latency_p50_ms, never instead"),
    m("net.bcast_reach_most_q1_ms", "ms", Lower, "as above, to nine tenths of the nodes", "read beside bcast_latency_p99_ms, never instead"),
    m("net.bcast_hops_p50", "count", Lower, "Delivery::hops over paced deliveries, median", "bcast_latency_p50_ms = hops x per-hop service"),
    m("net.bcast_hops_max", "count", Lower, "as above, maximum", "bcast_latency_p99_ms"),
    m("net.frames.payload_per_delivery", "count", Lower, "payload_frames_sent delta / deliveries delta, saturate", "frames_per_delivery"),
    m("net.frames.ihave_per_bcast", "count", Lower, "ihave_frames_sent delta / broadcasts, saturate", "frames_per_delivery @ live_plumtree_large"),
    m("net.frames.ihave_batch_per_bcast", "count", Lower, "ihave_batch_frames_sent delta / broadcasts, saturate", "frames_per_delivery @ live_plumtree_large"),
    m("net.frames.anns_per_batch", "count", Higher, "ihave_batch_anns_sent / ihave_batch_frames_sent, saturate", "frames_per_delivery @ live_plumtree_large"),
    m("net.duplicates_per_delivery", "count", Lower, "duplicates delta / deliveries delta, saturate", "frames_per_delivery"),
    m("net.delivery_channel_drops", "count", Lower, "deliveries the nodes counted - deliveries received on Node::deliveries", "delivered_share"),
    // ---- obsv ------------------------------------------------------------
    m("obsv.counter_inc_ns", "ns", Lower, "probe: Registry::inc", "every frame path of every workload"),
    m("obsv.hist_record_ns", "ns", Lower, "probe: Histogram::record", "sim.trace_on_overhead_share only"),
    m("obsv.trace_record_ns", "ns", Lower, "probe: TraceRing::record into a full ring", "sim.trace_on_overhead_share only"),
    m("obsv.registry_merge_us", "us", Lower, "probe: Registry::merge of two node registries", "sim.trace_on_overhead_share only"),
    m("obsv.node_metrics_us", "us", Lower, "span mean: Node::metrics (live), Sim::metrics_snapshot (sim)", "-"),
    m("obsv.path_tree_ms", "ms", Lower, "probe: PathTracer::tree over one recorded 2,000-node broadcast", "sim.trace_on_overhead_share only"),
    // ---- polling ---------------------------------------------------------
    m("polling.notify_wake_us", "us", Lower, "probe: Poller::notify on one thread until wait returns on another", "bcast_latency_p50_ms @ both live (first step of every Node::broadcast)"),
    // ---- whole run: what a user sees, timed -------------------------------
    // Without a bound: on the defining box two sets of runs of the same code
    // differ by more than 10% on each of these.
    m("deliveries_per_s", "1/s", Higher, "node deliveries / wall time; sim: the whole window, cycles, crash and churn included; live: the whole saturate phase. Work completed, not events; payload MB/s is this times the payload size", "the throughput every prediction above names"),
    m("bcast_latency_p50_ms", "ms", Lower, "live: paced phase, every (broadcast, node) pair, due time to the delivery being taken off Node::deliveries(), median; sim: wall time of one broadcast_random call, issue to quiescence, median over the window", "polling.notify_wake_us + hops x per-hop service"),
    m("bcast_latency_p99_ms", "ms", Lower, "same samples, 99th percentile", "tracks net.bcast_complete_p50_ms and tree depth, not the mean hop"),
    m("missed_share", "fraction", Lower, "1 - delivered_share", "the failed count of the result line"),
    m("sim.post_crash_reliability", "fraction", Higher, "exact: delivered / expected, phase post_crash", "the paper's Figure 2 value for this cell"),
    m("net.paced_rate_hz", "1/s", Higher, "the fixed open-loop broadcast rate, as configured", "states the offered load next to the latency"),
    // ---- harness ---------------------------------------------------------
    m("harness.generator_lag_us_p99", "us", Lower, "open loop: issue instant - due instant", "how late the open loop ran"),
    m("harness.sweep_period_us_p99", "us", Lower, "time between two visits of one node's delivery channel", "resolution of delivery stamps"),
    m("harness.driver_run_delay_share", "fraction", Lower, "schedstat of the driver thread over the measured window", "scheduler interference"),
    m("harness.calibration_mops", "1/us", Higher, "a fixed integer loop timed at the start and the end of the run (the slower of the two)", "machine speed; drift over 10% flags the run as disturbed"),
    m("harness.disturbed", "count", Lower, "1 when calibration drifted over 10% or a run-delay share exceeded 5%, else 0", "reported, never dropped"),
];

/// Layer of a per-layer metric: everything before the last dot, or `run`
/// for the few whole-run figures without a prefix.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or("run", |(layer, _)| layer)
}

/// Values measured in one run, by catalogue name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|e| e.metric.name == name)
                || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        self.0.insert(name, value);
    }

    /// The measured value, or 0 for a metric this workload does not have.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `None` for a metric this run did not measure.
    pub fn measured(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every measured value, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&name, &value)| (name, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for workload in &WORKLOADS {
            assert!(name_ok(workload.name), "{}", workload.name);
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'), "{}", workload.name);
            assert!(seen.insert(workload.name));
        }
        let metrics = END_TO_END.iter().map(|e| &e.metric).chain(PER_LAYER.iter());
        for metric in metrics {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}: {}", metric.name, metric.unit);
            assert!(seen.insert(metric.name), "{} is defined twice", metric.name);
        }
        // Only set-up time, timed once a run, may take the contract's widest
        // bound; everything else holds 10% or moves to the per-layer list.
        assert!(END_TO_END.iter().all(|e| {
            e.bound > 0.0 && e.bound <= if e.metric.name == "setup_s" { 0.25 } else { 0.10 }
        }));
        assert!(PER_LAYER.len() <= 128);
        assert_eq!(layer_of("net.reactor.frames_per_s"), "net.reactor");
        assert_eq!(layer_of("missed_share"), "run");
    }

    /// `BENCHMARK.json` is what `catalogue --json` prints, has exactly the
    /// contract's keys, and stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, crate::report::benchmark_json(), "regenerate with `catalogue --json`");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let command = doc.get("command").unwrap().as_array();
        assert!(
            command.len() <= 32
                && command.iter().all(|s| s.as_str().is_some_and(|s| s.len() <= 200))
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::report::DEFAULT_SECONDS as f64)
        );
        assert!((1..=60).contains(&crate::report::DEFAULT_SECONDS));
        for (list, keys) in [
            ("workloads", &["name", "why"][..]),
            ("end_to_end", &["name", "unit", "better", "bound"]),
            ("per_layer", &["name", "unit", "better"]),
        ] {
            for entry in doc.get(list).unwrap().as_array() {
                let have: Vec<&str> = entry.fields().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(have, keys, "{list}");
            }
        }
        let setup = &doc.get("end_to_end").unwrap().as_array()[0];
        assert_eq!(setup.get("name").unwrap().as_str(), Some("setup_s"));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    }
}
