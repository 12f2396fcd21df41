//! Plumtree configuration and the broadcast-mode switch shared by the
//! simulator and the TCP runtime.

/// How a runtime disseminates broadcast payloads over the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BroadcastMode {
    /// The paper's eager flood: every delivering node forwards the full
    /// payload to its whole active view (§4.1.ii). Maximally redundant,
    /// maximally robust.
    #[default]
    Flood,
    /// Plumtree: eager push along tree links, lazy `IHave` announcements on
    /// the remaining overlay links, `Graft`/`Prune` tree repair. Near-zero
    /// steady-state redundancy at flood-grade reliability.
    Plumtree,
}

impl std::fmt::Display for BroadcastMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BroadcastMode::Flood => "Flood",
            BroadcastMode::Plumtree => "Plumtree",
        })
    }
}

/// Tuning knobs of one Plumtree instance.
///
/// Timeouts are expressed in abstract *timer units*: the simulator treats
/// them as virtual-time delays (one unit ≈ one network latency under the
/// paper's unit-latency model), the TCP runtime multiplies them by its
/// configured unit duration. Under a *variable* latency model the defaults
/// are calibrated for a worst-case hop of ~2 units; when single hops can
/// take longer (heavy-tailed or wide uniform models), scale the timeouts
/// with [`PlumtreeConfig::with_timeouts_for_max_latency`] so a slow eager
/// payload is not mistaken for a missing one.
#[derive(Debug, Clone)]
pub struct PlumtreeConfig {
    /// Delay before the missing-message timer fires after the first `IHave`
    /// for an undelivered message. Must comfortably exceed the eager path's
    /// extra depth over the lazy shortcut that announced the id, or healthy
    /// trees trigger spurious `Graft`s.
    pub ihave_timeout: u64,
    /// Delay between successive `Graft` attempts while a message is still
    /// missing (the second, shorter timer of the Plumtree paper §3.8).
    pub graft_timeout: u64,
    /// Hard cap on the number of broadcast ids the message store remembers
    /// at once: the duplicate-detection window. A remembered id keeps its
    /// payload only while a peer it was announced to may graft it, so far
    /// fewer payloads are held (none at a node without lazy links). It is
    /// not the retention rule: a broadcast is dropped once it is
    /// [`PlumtreeConfig::retention`] old, and this cap evicts (oldest id
    /// first) only when more than `cache_capacity` broadcasts arrive within
    /// that window. An evicted message can no longer repair the tree.
    pub cache_capacity: usize,
    /// Tree optimization (Plumtree §3.8): when an `IHave` announces a round
    /// that beats the round the payload was delivered eagerly at by at
    /// least this threshold, the node swaps the shorter lazy path into the
    /// tree — it promotes the announcer (a payload-free `Graft`) and prunes
    /// its current eager parent. `None` disables optimization and trees
    /// only change shape through `Prune`/`Graft` repair.
    pub optimization_threshold: Option<u32>,
    /// Lazy-link batching: instead of sending one `IHave` frame per message
    /// per lazy peer, queue announcements per peer and drain the queues
    /// when a flush timer expires this many timer units after the first
    /// queued announcement. Queues of two or more announcements travel as a
    /// single `IHaveBatch` frame. `0` disables batching (announce
    /// immediately, the original per-message behavior).
    pub lazy_flush_interval: u64,
    /// Upper bound on `Graft` attempts per missing message. Once a message
    /// has been grafted this many times without arriving (a partitioned
    /// overlay, or every announcer dead), the missing-message entry is
    /// dropped and counted as a dead letter instead of re-arming forever.
    pub graft_retry_limit: u32,
}

impl Default for PlumtreeConfig {
    fn default() -> Self {
        PlumtreeConfig {
            ihave_timeout: 16,
            graft_timeout: 8,
            cache_capacity: 1 << 16,
            optimization_threshold: None,
            lazy_flush_interval: 0,
            graft_retry_limit: 8,
        }
    }
}

impl PlumtreeConfig {
    /// Sets the first missing-message timeout.
    pub fn with_ihave_timeout(mut self, units: u64) -> Self {
        self.ihave_timeout = units;
        self
    }

    /// Sets the follow-up graft timeout.
    pub fn with_graft_timeout(mut self, units: u64) -> Self {
        self.graft_timeout = units;
        self
    }

    /// Sets the message store capacity ([`PlumtreeConfig::cache_capacity`]).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the tree-optimization round threshold (`None` disables).
    pub fn with_optimization_threshold(mut self, threshold: Option<u32>) -> Self {
        self.optimization_threshold = threshold;
        self
    }

    /// Sets the lazy-announcement flush interval (`0` disables batching).
    pub fn with_lazy_flush_interval(mut self, units: u64) -> Self {
        self.lazy_flush_interval = units;
        self
    }

    /// Sets the per-message `Graft` retry cap.
    pub fn with_graft_retry_limit(mut self, limit: u32) -> Self {
        self.graft_retry_limit = limit;
        self
    }

    /// How long the message store remembers a broadcast, in timer units
    /// since its first receipt: `8 x (ihave_timeout + graft_retry_limit x
    /// graft_timeout)`.
    ///
    /// The bracket is the longest missing-message chain one announcement
    /// can start: the first timer, then every `Graft` retry. A neighbour
    /// that heard of the broadcast from this node asks it for the payload
    /// within one such chain (and a hop each way), so one chain is all a
    /// graft needs. What needs more is a copy still on its way *to* this
    /// node: a peer that got the payload late, through a repair of its own,
    /// pushes and announces it when it gets it, and every repair on the
    /// path to that peer can have taken a chain. A copy that arrives after
    /// its id was forgotten is delivered again and pushed on, so the store
    /// keeps eight chains: eight repairs in a row. The margin is cheap (on
    /// the benchmark's WAN churn workload two chains and eight differ by
    /// 6 MB over 5,000 nodes), and it is derived, not configured: the
    /// window follows from the two timers and the retry limit.
    pub fn retention(&self) -> u64 {
        let chain = self
            .ihave_timeout
            .saturating_add(self.graft_timeout.saturating_mul(u64::from(self.graft_retry_limit)));
        chain.saturating_mul(8)
    }

    /// Rescales both timeouts for a latency model whose slowest single hop
    /// takes `max_latency` timer units: the missing-message timer must
    /// outwait a worst-case eager path that is several hops deeper than
    /// the lazy shortcut that announced the id, or healthy-but-slow trees
    /// drown in spurious `Graft`s. Keeps the defaults (16/8) as the floor,
    /// so the unit-latency behavior is unchanged.
    pub fn with_timeouts_for_max_latency(mut self, max_latency: u64) -> Self {
        self.ihave_timeout = self.ihave_timeout.max(max_latency.saturating_mul(8));
        self.graft_timeout = self.graft_timeout.max(max_latency.saturating_mul(4));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PlumtreeConfig::default();
        assert!(c.ihave_timeout > c.graft_timeout);
        assert!(c.cache_capacity > 0);
        assert!(c.graft_retry_limit > 0);
        assert_eq!(c.optimization_threshold, None, "optimization is opt-in");
        assert_eq!(c.lazy_flush_interval, 0, "batching is opt-in");
    }

    #[test]
    fn builders_chain() {
        let c = PlumtreeConfig::default()
            .with_ihave_timeout(9)
            .with_graft_timeout(3)
            .with_cache_capacity(128)
            .with_optimization_threshold(Some(2))
            .with_lazy_flush_interval(5)
            .with_graft_retry_limit(4);
        assert_eq!((c.ihave_timeout, c.graft_timeout, c.cache_capacity), (9, 3, 128));
        assert_eq!(c.optimization_threshold, Some(2));
        assert_eq!(c.lazy_flush_interval, 5);
        assert_eq!(c.graft_retry_limit, 4);
    }

    #[test]
    fn timeout_rescaling_floors_at_the_defaults() {
        let unit = PlumtreeConfig::default().with_timeouts_for_max_latency(1);
        assert_eq!(unit.ihave_timeout, 16, "unit latency keeps the default");
        assert_eq!(unit.graft_timeout, 8);
        let wide = PlumtreeConfig::default().with_timeouts_for_max_latency(20);
        assert_eq!(wide.ihave_timeout, 160);
        assert_eq!(wide.graft_timeout, 80);
        assert!(wide.ihave_timeout > wide.graft_timeout);
    }

    #[test]
    fn retention_is_eight_missing_message_chains() {
        assert_eq!(PlumtreeConfig::default().retention(), 8 * (16 + 8 * 8));
        let wan = PlumtreeConfig::default().with_timeouts_for_max_latency(600);
        assert_eq!(wan.retention(), 192_000);
        let no_retries = PlumtreeConfig::default().with_graft_retry_limit(0);
        assert_eq!(no_retries.retention(), 8 * 16);
        let huge = PlumtreeConfig::default().with_ihave_timeout(u64::MAX);
        assert_eq!(huge.retention(), u64::MAX, "saturates instead of wrapping");
    }

    #[test]
    fn broadcast_mode_displays() {
        assert_eq!(BroadcastMode::Flood.to_string(), "Flood");
        assert_eq!(BroadcastMode::Plumtree.to_string(), "Plumtree");
        assert_eq!(BroadcastMode::default(), BroadcastMode::Flood);
    }
}
