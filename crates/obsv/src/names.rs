//! The canonical metric vocabulary shared by every layer.
//!
//! The simulator and the TCP runtime must register the *same names* for
//! the same phenomena — that is what lets differential tests assert that
//! one snapshot's counters line up with the other's, and what keeps
//! `hpv-bench diff`'s path heuristics stable. Prefixes:
//!
//! | prefix       | producer                                   |
//! |--------------|--------------------------------------------|
//! | `frames.`    | wire frames shipped (sim events / TCP)     |
//! | `broadcast.` | gossip dissemination bookkeeping           |
//! | `sim.`       | simulator event loop                       |
//! | `net.`       | TCP runtime oddities                       |
//! | `hyparview.` | membership protocol counters               |
//! | `plumtree.`  | broadcast tree counters                    |
//! | `faults.`    | injected network faults (simulator only)   |
//! | `attack.`    | adversarial membership: defense decisions  |
//! |              | and attacker actions (simulator only)      |
//! | `reactor.`   | epoll loop introspection gauges            |
//! |              | (wall-clock: live nodes only)              |

/// Every frame handed to the transport (membership + broadcast).
pub const FRAMES_SENT: &str = "frames.sent";
/// Payload-carrying broadcast frames (`Gossip` / `PlumtreeGossip`).
pub const FRAMES_PAYLOAD_SENT: &str = "frames.payload_sent";
/// Single `IHave` announcement frames.
pub const FRAMES_IHAVE_SENT: &str = "frames.ihave_sent";
/// Batched `IHaveBatch` frames.
pub const FRAMES_IHAVE_BATCH_SENT: &str = "frames.ihave_batch_sent";
/// Announcements carried inside `IHaveBatch` frames.
pub const FRAMES_IHAVE_BATCH_ANNS_SENT: &str = "frames.ihave_batch_anns_sent";

/// Broadcasts originated.
pub const BROADCAST_SENT: &str = "broadcast.sent";
/// First-receipt payload deliveries.
pub const BROADCAST_DELIVERED: &str = "broadcast.delivered";
/// Redundant payload receipts suppressed by dedup.
pub const BROADCAST_DUPLICATES: &str = "broadcast.duplicates";

/// Events popped off the simulator queue.
pub const SIM_EVENTS_PROCESSED: &str = "sim.events_processed";
/// Membership messages delivered to alive nodes.
pub const SIM_MEMBERSHIP_DELIVERED: &str = "sim.membership_delivered";
/// Membership messages addressed to dead nodes.
pub const SIM_MEMBERSHIP_TO_DEAD: &str = "sim.membership_to_dead";
/// Gossip payloads delivered (first or redundant) to alive nodes.
pub const SIM_GOSSIP_DELIVERED: &str = "sim.gossip_delivered";
/// Gossip payloads addressed to dead nodes.
pub const SIM_GOSSIP_TO_DEAD: &str = "sim.gossip_to_dead";
/// TCP-style failure notifications synthesized by the simulator.
pub const SIM_FAILURE_NOTIFICATIONS: &str = "sim.failure_notifications";

/// Frames of the *other* broadcast mode dropped by a node.
pub const NET_MODE_MISMATCHED: &str = "net.mode_mismatched";

/// Frames dropped by injected per-link loss (simulator fault injection).
/// Sim-only by design — not part of [`SHARED_TRANSPORT_NAMES`]: the TCP
/// runtime runs on a real network and injects nothing.
pub const FAULTS_DROPPED: &str = "faults.dropped";
/// Frames dropped at an injected partition boundary.
pub const FAULTS_PARTITION_DROPPED: &str = "faults.partition_dropped";
/// Frames delivered twice by injected duplication.
pub const FAULTS_DUPLICATED: &str = "faults.duplicated";

/// Rapid re-`Join`s rejected by admission damping. Like the `faults.*`
/// family, the whole `attack.*` group is sim-only by design — not part of
/// [`SHARED_TRANSPORT_NAMES`]: adversaries and defenses are exercised in
/// simulation, the TCP runtime registers none of this.
pub const ATTACK_JOINS_DAMPED: &str = "attack.joins_damped";
/// High-priority `Neighbor` requests rejected by the admission cooldown or
/// the per-cycle eviction budget.
pub const ATTACK_NEIGHBORS_DAMPED: &str = "attack.neighbors_damped";
/// Active-view members rotated out by the bounded-tenure defense.
pub const ATTACK_TENURE_SWAPS: &str = "attack.tenure_swaps";
/// Extra shuffles sent by the churn-triggered shuffle-rate boost.
pub const ATTACK_SHUFFLE_BOOSTS: &str = "attack.shuffle_boosts";
/// Unsolicited high-priority `Neighbor` requests sent by eclipse attackers.
pub const ATTACK_NEIGHBOR_FLOODS: &str = "attack.neighbor_floods";
/// Attacker churn re-`Join`s (re-rolling earlier rejections).
pub const ATTACK_REJOINS: &str = "attack.rejoins";
/// Shuffle payloads rewritten by infiltration attackers to advertise only
/// colluders.
pub const ATTACK_SHUFFLES_BIASED: &str = "attack.shuffles_biased";

/// `poller.wait` calls made by the reactor loop.
pub const REACTOR_EPOLL_WAITS: &str = "reactor.epoll_waits";
/// Total microseconds spent blocked in `poller.wait`.
pub const REACTOR_EPOLL_WAIT_US: &str = "reactor.epoll_wait_us";
/// Largest readiness batch one wait returned.
pub const REACTOR_BATCH_MAX: &str = "reactor.batch_max";
/// High-water mark of any connection's outbound queue depth.
pub const REACTOR_OUTQ_HIGH_WATER: &str = "reactor.outq_high_water";
/// Worst observed lateness firing a due timer, microseconds.
pub const REACTOR_TIMER_LAG_US_MAX: &str = "reactor.timer_lag_us_max";
/// Timers fired by the reactor (shuffle + Plumtree).
pub const REACTOR_TIMERS_FIRED: &str = "reactor.timers_fired";

/// The names the simulator and the TCP runtime must *both* register —
/// the differential contract the observability tests assert on.
pub const SHARED_TRANSPORT_NAMES: [&str; 8] = [
    FRAMES_SENT,
    FRAMES_PAYLOAD_SENT,
    FRAMES_IHAVE_SENT,
    FRAMES_IHAVE_BATCH_SENT,
    FRAMES_IHAVE_BATCH_ANNS_SENT,
    BROADCAST_SENT,
    BROADCAST_DELIVERED,
    BROADCAST_DUPLICATES,
];

/// Every name above: what a registry stores as the static itself when a
/// producer registers it (see [`crate::metrics`]).
pub(crate) const CANONICAL: [&str; 31] = [
    FRAMES_SENT,
    FRAMES_PAYLOAD_SENT,
    FRAMES_IHAVE_SENT,
    FRAMES_IHAVE_BATCH_SENT,
    FRAMES_IHAVE_BATCH_ANNS_SENT,
    BROADCAST_SENT,
    BROADCAST_DELIVERED,
    BROADCAST_DUPLICATES,
    SIM_EVENTS_PROCESSED,
    SIM_MEMBERSHIP_DELIVERED,
    SIM_MEMBERSHIP_TO_DEAD,
    SIM_GOSSIP_DELIVERED,
    SIM_GOSSIP_TO_DEAD,
    SIM_FAILURE_NOTIFICATIONS,
    NET_MODE_MISMATCHED,
    FAULTS_DROPPED,
    FAULTS_PARTITION_DROPPED,
    FAULTS_DUPLICATED,
    ATTACK_JOINS_DAMPED,
    ATTACK_NEIGHBORS_DAMPED,
    ATTACK_TENURE_SWAPS,
    ATTACK_SHUFFLE_BOOSTS,
    ATTACK_NEIGHBOR_FLOODS,
    ATTACK_REJOINS,
    ATTACK_SHUFFLES_BIASED,
    REACTOR_EPOLL_WAITS,
    REACTOR_EPOLL_WAIT_US,
    REACTOR_BATCH_MAX,
    REACTOR_OUTQ_HIGH_WATER,
    REACTOR_TIMER_LAG_US_MAX,
    REACTOR_TIMERS_FIRED,
];
