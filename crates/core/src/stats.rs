//! Protocol event counters.
//!
//! Cheap monotonically increasing counters useful for experiments (message
//! overhead accounting) and for debugging live deployments.
//!
//! [`Stats`] is the *snapshot view*; the canonical cross-layer form is a
//! [`hyparview_obsv::Registry`] populated through [`Stats::fill_registry`]
//! under the `hyparview.*` metric names, which is what the simulator and
//! the TCP runtime export and what cluster-level aggregation merges.

use hyparview_obsv::Registry;

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
    /// The counters in [`METRIC_NAMES`] order.
    fn values(&self) -> [u64; 13] {
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

    /// Writes this snapshot into `registry` under the canonical
    /// `hyparview.*` names (absolute values — registering on first use,
    /// overwriting on refresh, so periodic republishing never
    /// double-counts).
    pub fn fill_registry(&self, registry: &mut Registry) {
        for (name, value) in METRIC_NAMES.iter().zip(self.values()) {
            let id = registry.counter(name);
            registry.set_counter(id, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trip_preserves_every_counter() {
        let mut s =
            Stats { joins_handled: 3, shuffles_forwarded: 7, promotions: 1, ..Stats::default() };
        let mut registry = Registry::new();
        s.fill_registry(&mut registry);
        assert_eq!(registry.value_by_name("hyparview.joins_handled"), Some(3));
        for (name, value) in METRIC_NAMES.iter().zip(s.values()) {
            assert_eq!(registry.value_by_name(name), Some(value), "{name}");
        }
        // Refreshing overwrites rather than double-counting.
        s.promotions = 9;
        s.fill_registry(&mut registry);
        assert_eq!(registry.value_by_name("hyparview.promotions"), Some(9));
    }
}
