//! Configuration of the baseline protocols, defaulting to the values of the
//! paper's experimental setting (§5.1).

/// Entries exchanged per Cyclon shuffle (paper: 14).
pub(crate) const CYCLON_SHUFFLE_LEN: usize = 14;

/// TTL of Cyclon's join random walks (paper: 5). The introducer starts one
/// walk per view slot, so a joiner can fill its view.
pub(crate) const CYCLON_JOIN_WALK_TTL: u8 = 5;

/// Scamp's fault-tolerance parameter `c`: extra subscription copies the
/// contact node forwards (paper: 4).
pub(crate) const SCAMP_C: usize = 4;

/// Hops a forwarded Scamp subscription travels before it is force-kept;
/// prevents endless forwarding in pathological topologies.
pub(crate) const SCAMP_MAX_FORWARD_HOPS: u32 = 64;

/// Cycles without any heartbeat before a Scamp node considers itself
/// isolated and re-subscribes.
pub(crate) const SCAMP_ISOLATION_THRESHOLD: u32 = 5;

/// Cyclon configuration.
///
/// Paper values: partial view of 35 entries (the sum of HyParView's active
/// and passive view sizes), shuffle length 14, join random-walk TTL 5,
/// one join walk per view slot. Only the view size is configurable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CyclonConfig {
    /// Fixed partial view size (paper: 35), and the number of join walks
    /// the introducer starts.
    pub view_capacity: usize,
}

impl Default for CyclonConfig {
    fn default() -> Self {
        CyclonConfig { view_capacity: 35 }
    }
}

impl CyclonConfig {
    /// Returns the paper's configuration (same as `default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sets the view capacity (and with it the number of join walks).
    pub fn with_view_capacity(mut self, capacity: usize) -> Self {
        self.view_capacity = capacity;
        self
    }
}

/// Scamp configuration.
///
/// Paper value: `c = 4` (a constant here), which at n = 10,000 produces
/// partial views distributed around 34 entries — "as near as we could be
/// from the value used in other protocols".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScampConfig {
    /// Number of cycles after which a node re-subscribes (the lease
    /// mechanism). `None` disables leases — the paper notes the lease time
    /// "is typically high to preserve stability", so experiments that only
    /// span a few cycles run without it.
    pub lease_cycles: Option<u32>,
    /// Whether heartbeats are sent each cycle (they are cheap but dominate
    /// message counts in large simulations; disable when not needed).
    pub heartbeats: bool,
}

impl Default for ScampConfig {
    fn default() -> Self {
        ScampConfig { lease_cycles: None, heartbeats: true }
    }
}

impl ScampConfig {
    /// Returns the paper's configuration (same as `default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Sets the lease length in cycles (`None` disables re-subscription).
    pub fn with_lease_cycles(mut self, cycles: Option<u32>) -> Self {
        self.lease_cycles = cycles;
        self
    }

    /// Enables or disables heartbeats.
    pub fn with_heartbeats(mut self, enabled: bool) -> Self {
        self.heartbeats = enabled;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cyclon::{Cyclon, CyclonMessage};
    use hyparview_gossip::{Membership, Outbox};

    /// Join walks one fresh Cyclon node starts through `contact` 0.
    fn join_walks(config: CyclonConfig) -> usize {
        let mut node = Cyclon::new(1u32, config, 7);
        let mut out = Outbox::new();
        node.join(0, &mut out);
        out.drain().filter(|(_, m)| matches!(m, CyclonMessage::JoinWalk { .. })).count()
    }

    #[test]
    fn cyclon_defaults_match_paper() {
        let c = CyclonConfig::default();
        assert_eq!(c.view_capacity, 35);
        assert_eq!(CYCLON_SHUFFLE_LEN, 14);
        assert_eq!(CYCLON_JOIN_WALK_TTL, 5);
        assert_eq!(join_walks(c), 35, "one join walk per view slot");
    }

    #[test]
    fn cyclon_with_view_capacity_syncs_walks() {
        let c = CyclonConfig::default().with_view_capacity(10);
        assert_eq!(c.view_capacity, 10);
        assert_eq!(join_walks(c), 10);
    }

    #[test]
    fn scamp_defaults_match_paper() {
        let s = ScampConfig::default();
        assert_eq!(SCAMP_C, 4);
        assert_eq!(s.lease_cycles, None);
        assert!(s.heartbeats);
    }

    #[test]
    fn scamp_builders_apply() {
        let s = ScampConfig::default().with_lease_cycles(Some(100)).with_heartbeats(false);
        assert_eq!(s.lease_cycles, Some(100));
        assert!(!s.heartbeats);
    }
}
