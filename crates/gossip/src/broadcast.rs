//! Gossip broadcast bookkeeping.
//!
//! The paper's broadcast protocol (§5): "a node forwards a message when it
//! receives it for the first time; there is no a priori bound on the number
//! of gossip rounds". The actual message shipping is performed by the
//! runtime (simulator or TCP runtime); this module provides the per-node
//! duplicate detection and the per-broadcast accounting that produce the
//! reliability numbers in Figures 1–4.

use hyparview_core::collections::RecentSet;

/// Identifier of one broadcast message.
pub type BroadcastId = u64;

/// Per-node gossip state: which broadcasts this node has already delivered.
///
/// Duplicate detection is backed by a FIFO-bounded [`RecentSet`]. The
/// default capacity is effectively unbounded (perfect duplicate
/// suppression, at a memory cost that grows with every broadcast);
/// long-running deployments pick a bound with
/// [`GossipState::with_capacity`]. The simulator does not hold one of
/// these per node: it keeps one delivery bitset per broadcast instead.
///
/// # Examples
///
/// ```
/// use hyparview_gossip::GossipState;
///
/// let mut state = GossipState::new();
/// assert!(state.deliver(7, 0), "first receipt delivers");
/// assert!(!state.deliver(7, 1), "second receipt is redundant");
/// assert_eq!(state.delivered_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GossipState {
    seen: RecentSet<BroadcastId>,
    delivered: usize,
}

impl Default for GossipState {
    fn default() -> Self {
        GossipState::new()
    }
}

impl GossipState {
    /// Creates a gossip state with an effectively unbounded seen-set: no
    /// id is ever forgotten, so no duplicate is ever re-delivered.
    pub fn new() -> Self {
        GossipState::with_capacity(RecentSet::<BroadcastId>::UNBOUNDED)
    }

    /// Creates a gossip state remembering at most `capacity` recent
    /// broadcast ids (the deployable configuration).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        GossipState { seen: RecentSet::new(capacity), delivered: 0 }
    }

    /// Records the receipt of broadcast `id` after `hops` forwarding steps
    /// (the hop count is not kept).
    ///
    /// Returns `true` exactly once per remembered id — the *delivery* — in
    /// which case the caller must forward the message to its gossip targets.
    /// (With a bounded capacity, a duplicate arriving after its id was
    /// evicted re-delivers; size the bound to cover several round-trips.)
    pub fn deliver(&mut self, id: BroadcastId, _hops: u32) -> bool {
        if self.seen.insert(id) {
            self.delivered += 1;
            true
        } else {
            false
        }
    }

    /// `true` if broadcast `id` is remembered as delivered here.
    pub fn has_delivered(&self, id: BroadcastId) -> bool {
        self.seen.contains(&id)
    }

    /// Number of deliveries performed (distinct ids, up to eviction).
    pub fn delivered_count(&self) -> usize {
        self.delivered
    }
}

/// Outcome of disseminating a single broadcast message.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastReport {
    /// Broadcast identifier.
    pub id: BroadcastId,
    /// Node that initiated the broadcast.
    pub origin: usize,
    /// Number of *alive* nodes when the broadcast started.
    pub alive: usize,
    /// Number of alive nodes that delivered the message (origin included).
    pub delivered: usize,
    /// Total point-to-point gossip transmissions attempted.
    pub sent: usize,
    /// Transmissions that arrived at a node which had already delivered.
    pub redundant: usize,
    /// Transmissions addressed to dead nodes.
    pub to_dead: usize,
    /// Transmissions dropped in flight by injected network failure (loss
    /// or partition). Always 0 on a fault-free network.
    pub dropped: usize,
    /// Control messages sent on behalf of this broadcast (`IHave`/`Graft`/
    /// `Prune` in Plumtree mode; always 0 for the eager flood).
    pub control: usize,
    /// Maximum number of hops over all first deliveries.
    pub max_hops: u32,
}

impl BroadcastReport {
    /// Gossip reliability (§2.5): the fraction of alive nodes that delivered.
    pub fn reliability(&self) -> f64 {
        if self.alive == 0 {
            0.0
        } else {
            self.delivered as f64 / self.alive as f64
        }
    }

    /// `true` when every alive node delivered (an "atomic broadcast").
    pub fn is_atomic(&self) -> bool {
        self.delivered == self.alive
    }

    /// Fraction of transmissions that were redundant.
    pub fn redundancy_ratio(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.redundant as f64 / self.sent as f64
        }
    }

    /// Relative Message Redundancy (Plumtree's cost metric): payload
    /// receipts at alive nodes per *required* link, minus one —
    /// `(m / (n − 1)) − 1` where `m` counts payload transmissions that
    /// reached an alive node and `n` the nodes that delivered. Dropped
    /// transmissions never reach anyone, so they are excluded alongside
    /// sends to dead nodes. 0 means a perfect spanning tree; an eager
    /// flood sits near `fanout − 1`. Undefined (reported as 0) when fewer
    /// than two nodes delivered.
    pub fn rmr(&self) -> f64 {
        if self.delivered <= 1 {
            return 0.0;
        }
        self.sent.saturating_sub(self.to_dead).saturating_sub(self.dropped) as f64
            / (self.delivered - 1) as f64
            - 1.0
    }
}

/// Aggregate over a sequence of broadcasts (e.g. the 1000 messages of Fig 2).
#[derive(Debug, Clone, Default)]
pub struct ReliabilitySummary {
    reliabilities: Vec<f64>,
    max_hops: Vec<u32>,
    rmrs: Vec<f64>,
    sent: u64,
    redundant: u64,
    control: u64,
}

impl ReliabilitySummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one broadcast report into the summary.
    pub fn add(&mut self, report: &BroadcastReport) {
        self.reliabilities.push(report.reliability());
        self.max_hops.push(report.max_hops);
        self.rmrs.push(report.rmr());
        self.sent += report.sent as u64;
        self.redundant += report.redundant as u64;
        self.control += report.control as u64;
    }

    /// Appends every broadcast of `other` to this summary, preserving
    /// `other`'s internal order. Folding per-run summaries into one in a
    /// fixed run order produces exactly the same aggregate as feeding all
    /// reports into a single summary sequentially — what lets a parallel
    /// seed sweep merge deterministically.
    pub fn merge(&mut self, other: ReliabilitySummary) {
        self.reliabilities.extend(other.reliabilities);
        self.max_hops.extend(other.max_hops);
        self.rmrs.extend(other.rmrs);
        self.sent += other.sent;
        self.redundant += other.redundant;
        self.control += other.control;
    }

    /// Number of broadcasts summarised.
    pub fn count(&self) -> usize {
        self.reliabilities.len()
    }

    /// Returns `true` when no broadcasts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.reliabilities.is_empty()
    }

    /// Mean reliability across all broadcasts.
    pub fn mean_reliability(&self) -> f64 {
        if self.reliabilities.is_empty() {
            return 0.0;
        }
        self.reliabilities.iter().sum::<f64>() / self.reliabilities.len() as f64
    }

    /// Minimum per-message reliability.
    pub fn min_reliability(&self) -> f64 {
        self.reliabilities.iter().copied().fold(f64::INFINITY, f64::min).min(1.0)
    }

    /// Fraction of broadcasts that reached every alive node.
    pub fn atomic_fraction(&self) -> f64 {
        if self.reliabilities.is_empty() {
            return 0.0;
        }
        let atomic = self.reliabilities.iter().filter(|r| **r >= 1.0).count();
        atomic as f64 / self.reliabilities.len() as f64
    }

    /// Mean of the per-broadcast maximum hop counts (Table 1's
    /// "maximum hops to delivery").
    pub fn mean_max_hops(&self) -> f64 {
        if self.max_hops.is_empty() {
            return 0.0;
        }
        self.max_hops.iter().map(|h| *h as f64).sum::<f64>() / self.max_hops.len() as f64
    }

    /// Mean Relative Message Redundancy across all broadcasts.
    pub fn mean_rmr(&self) -> f64 {
        if self.rmrs.is_empty() {
            return 0.0;
        }
        self.rmrs.iter().sum::<f64>() / self.rmrs.len() as f64
    }

    /// Total transmissions across all broadcasts.
    pub fn total_sent(&self) -> u64 {
        self.sent
    }

    /// Total redundant transmissions across all broadcasts.
    pub fn total_redundant(&self) -> u64 {
        self.redundant
    }

    /// Total control messages (Plumtree `IHave`/`Graft`/`Prune`) across all
    /// broadcasts.
    pub fn total_control(&self) -> u64 {
        self.control
    }

    /// Per-message reliability series (for the Figure 3 plots).
    pub fn series(&self) -> &[f64] {
        &self.reliabilities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(delivered: usize, alive: usize) -> BroadcastReport {
        BroadcastReport {
            id: 1,
            origin: 0,
            alive,
            delivered,
            sent: 10,
            redundant: 2,
            to_dead: 1,
            dropped: 0,
            control: 3,
            max_hops: 5,
        }
    }

    #[test]
    fn deliver_is_idempotent_per_id() {
        let mut s = GossipState::new();
        assert!(s.deliver(1, 0));
        assert!(!s.deliver(1, 3));
        assert!(s.deliver(2, 1));
        assert_eq!(s.delivered_count(), 2);
        assert!(s.has_delivered(1));
        assert!(!s.has_delivered(3));
    }

    #[test]
    fn reliability_computation() {
        assert!((report(100, 100).reliability() - 1.0).abs() < 1e-12);
        assert!((report(50, 100).reliability() - 0.5).abs() < 1e-12);
        assert!(report(100, 100).is_atomic());
        assert!(!report(99, 100).is_atomic());
        assert_eq!(report(0, 0).reliability(), 0.0);
    }

    #[test]
    fn redundancy_ratio() {
        let r = report(10, 10);
        assert!((r.redundancy_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bounded_state_forgets_old_ids() {
        let mut s = GossipState::with_capacity(2);
        assert!(s.deliver(1, 0));
        assert!(s.deliver(2, 0));
        assert!(s.deliver(3, 0), "capacity 2: id 1 evicted");
        assert!(s.deliver(1, 0), "evicted id delivers again");
        assert_eq!(s.delivered_count(), 4, "delivered_count counts deliveries");
        assert!(!s.has_delivered(2));
    }

    #[test]
    fn rmr_of_perfect_tree_is_zero() {
        // 10 nodes, 9 payload sends, everyone delivers: a spanning tree.
        let r = BroadcastReport {
            id: 1,
            origin: 0,
            alive: 10,
            delivered: 10,
            sent: 9,
            redundant: 0,
            to_dead: 0,
            dropped: 0,
            control: 12,
            max_hops: 4,
        };
        assert!(r.rmr().abs() < 1e-12);
        // The flood's cost: 4 payload receipts per node beyond the tree.
        let flood = BroadcastReport { sent: 36, redundant: 27, ..r };
        assert!((flood.rmr() - 3.0).abs() < 1e-12);
        // Degenerate single-delivery broadcast.
        let lone = BroadcastReport { delivered: 1, ..r };
        assert_eq!(lone.rmr(), 0.0);
        // Dropped frames reached nobody: they do not inflate redundancy.
        let lossy = BroadcastReport { sent: 12, dropped: 3, ..r };
        assert!(lossy.rmr().abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates() {
        let mut s = ReliabilitySummary::new();
        s.add(&report(100, 100));
        s.add(&report(50, 100));
        assert_eq!(s.count(), 2);
        assert!((s.mean_reliability() - 0.75).abs() < 1e-12);
        assert!((s.min_reliability() - 0.5).abs() < 1e-12);
        assert!((s.atomic_fraction() - 0.5).abs() < 1e-12);
        assert!((s.mean_max_hops() - 5.0).abs() < 1e-12);
        assert_eq!(s.total_sent(), 20);
        assert_eq!(s.total_redundant(), 4);
        assert_eq!(s.total_control(), 6);
        assert_eq!(s.series().len(), 2);
    }

    #[test]
    fn merged_summaries_equal_sequential_feeding() {
        let reports = [report(100, 100), report(50, 100), report(75, 100), report(100, 100)];
        let mut sequential = ReliabilitySummary::new();
        for r in &reports {
            sequential.add(r);
        }
        let mut merged = ReliabilitySummary::new();
        for chunk in reports.chunks(2) {
            let mut partial = ReliabilitySummary::new();
            for r in chunk {
                partial.add(r);
            }
            merged.merge(partial);
        }
        assert_eq!(merged.count(), sequential.count());
        assert_eq!(merged.series(), sequential.series());
        assert_eq!(merged.mean_reliability().to_bits(), sequential.mean_reliability().to_bits());
        assert_eq!(merged.total_sent(), sequential.total_sent());
        assert_eq!(merged.total_control(), sequential.total_control());
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = ReliabilitySummary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean_reliability(), 0.0);
        assert_eq!(s.atomic_fraction(), 0.0);
        assert_eq!(s.mean_max_hops(), 0.0);
    }
}
