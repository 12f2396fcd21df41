//! Protocol event counters.
//!
//! Cheap monotonically increasing counters useful for experiments (message
//! overhead accounting) and for debugging live deployments.
//!
//! [`Stats`] is the *snapshot view*; the canonical cross-layer form is a
//! [`hyparview_obsv::Registry`] holding the `hyparview.*` metric names
//! ([`METRIC_NAMES`], registered once with
//! [`Registry::register_counters`](hyparview_obsv::Registry::register_counters)
//! and refreshed from [`Stats::values`]), which is what the TCP runtime
//! exports and what cluster-level aggregation merges.

/// The `hyparview.*` registry names, field order of [`Stats`].
pub const METRIC_NAMES: [&str; 13] = [
    "hyparview.joins_handled",
    "hyparview.forward_joins_received",
    "hyparview.forward_joins_accepted",
    "hyparview.neighbor_requests_received",
    "hyparview.neighbor_requests_accepted",
    "hyparview.neighbor_requests_sent",
    "hyparview.shuffles_started",
    "hyparview.shuffles_accepted",
    "hyparview.shuffles_forwarded",
    "hyparview.disconnects_received",
    "hyparview.active_evictions",
    "hyparview.peer_failures",
    "hyparview.promotions",
];

/// Counters of protocol activity since the node started.
///
/// All counters are cumulative. They are updated by the
/// [`HyParView`](crate::HyParView) event handlers and never reset; an
/// interval is the difference of two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// `JOIN` requests handled as the contact node.
    pub joins_handled: u64,
    /// `FORWARDJOIN` walks received (whether accepted or forwarded).
    pub forward_joins_received: u64,
    /// `FORWARDJOIN` walks that terminated here (joiner added to active view).
    pub forward_joins_accepted: u64,
    /// `NEIGHBOR` requests received.
    pub neighbor_requests_received: u64,
    /// `NEIGHBOR` requests accepted.
    pub neighbor_requests_accepted: u64,
    /// `NEIGHBOR` requests this node sent while repairing its active view.
    pub neighbor_requests_sent: u64,
    /// Shuffle operations initiated by the periodic timer.
    pub shuffles_started: u64,
    /// Shuffle requests accepted (walk ended here and we replied).
    pub shuffles_accepted: u64,
    /// Shuffle requests forwarded along the random walk.
    pub shuffles_forwarded: u64,
    /// `DISCONNECT` notifications received.
    pub disconnects_received: u64,
    /// Peers dropped from the active view to make room (each sent a
    /// `DISCONNECT`).
    pub active_evictions: u64,
    /// Active-view peers removed because the transport reported them failed.
    pub peer_failures: u64,
    /// Peers promoted from the passive to the active view.
    pub promotions: u64,
}

impl Stats {
    /// The counters in [`METRIC_NAMES`] order: absolute values, so setting
    /// them into a registry again never double-counts.
    pub fn values(&self) -> [u64; 13] {
        [
            self.joins_handled,
            self.forward_joins_received,
            self.forward_joins_accepted,
            self.neighbor_requests_received,
            self.neighbor_requests_accepted,
            self.neighbor_requests_sent,
            self.shuffles_started,
            self.shuffles_accepted,
            self.shuffles_forwarded,
            self.disconnects_received,
            self.active_evictions,
            self.peer_failures,
            self.promotions,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyparview_obsv::Registry;

    #[test]
    fn registry_round_trip_preserves_every_counter() {
        let mut s =
            Stats { joins_handled: 3, shuffles_forwarded: 7, promotions: 1, ..Stats::default() };
        let mut registry = Registry::new();
        let ids = registry.register_counters(&METRIC_NAMES);
        registry.set_counters(&ids, s.values());
        assert_eq!(registry.value_by_name("hyparview.joins_handled"), Some(3));
        for (name, value) in METRIC_NAMES.iter().zip(s.values()) {
            assert_eq!(registry.value_by_name(name), Some(value), "{name}");
        }
        // Refreshing overwrites rather than double-counting.
        s.promotions = 9;
        registry.set_counters(&ids, s.values());
        assert_eq!(registry.value_by_name("hyparview.promotions"), Some(9));
    }
}
