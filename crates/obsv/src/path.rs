//! Causal broadcast-path tracing: reconstruct a finished broadcast as the
//! dissemination tree it actually traversed.
//!
//! Every *first* delivery of a broadcast is tagged with its hop
//! provenance — which node delivered, via which parent, at what depth and
//! time ([`HopRecord`]). A [`PathTracer`] accumulates the records; once a
//! broadcast is quiescent, [`PathTracer::tree`] rebuilds its
//! [`DisseminationTree`], which generalizes the paper's *last hop delay*
//! figure into full distributions: per-message depth, branching factor,
//! and hop-latency histograms.

use crate::hist::Histogram;
use std::collections::HashMap;

/// Provenance of one first delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// Broadcast id.
    pub msg: u64,
    /// The node that delivered.
    pub node: u64,
    /// The node it received the payload from (`None` at the origin).
    pub parent: Option<u64>,
    /// Hops from the origin (0 at the origin).
    pub depth: u32,
    /// Delivery timestamp (producer's clock domain).
    pub time: u64,
}

/// Accumulates [`HopRecord`]s in delivery order.
///
/// The tracer is deliberately dumb — a `Vec` in arrival order — because
/// arrival order is deterministic in the simulator, and determinism of
/// everything derived from the records is the whole point.
#[derive(Debug, Clone, Default)]
pub struct PathTracer {
    records: Vec<HopRecord>,
}

impl PathTracer {
    /// Creates an empty tracer.
    pub fn new() -> PathTracer {
        PathTracer::default()
    }

    /// Appends one first-delivery record.
    pub fn record(&mut self, record: HopRecord) {
        self.records.push(record);
    }

    /// All records, delivery order.
    pub fn records(&self) -> &[HopRecord] {
        &self.records
    }

    /// Number of accumulated records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drops all records (between bursts, to bound memory).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Broadcast ids seen, in first-delivery order, deduplicated.
    pub fn message_ids(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        for record in &self.records {
            if !ids.contains(&record.msg) {
                ids.push(record.msg);
            }
        }
        ids
    }

    /// Rebuilds the dissemination tree of broadcast `msg`, or `None` if no
    /// record of it exists.
    pub fn tree(&self, msg: u64) -> Option<DisseminationTree> {
        let records: Vec<HopRecord> =
            self.records.iter().filter(|r| r.msg == msg).copied().collect();
        if records.is_empty() {
            return None;
        }
        Some(DisseminationTree { msg, records })
    }
}

/// A finished broadcast reconstructed as its actual dissemination tree.
#[derive(Debug, Clone)]
pub struct DisseminationTree {
    msg: u64,
    records: Vec<HopRecord>,
}

impl DisseminationTree {
    /// The broadcast this tree disseminated.
    pub fn msg(&self) -> u64 {
        self.msg
    }

    /// The tree's nodes in delivery order (the edge list: each record
    /// names its parent).
    pub fn records(&self) -> &[HopRecord] {
        &self.records
    }

    /// Number of nodes that delivered.
    pub fn node_count(&self) -> usize {
        self.records.len()
    }

    /// Deepest delivery (the paper's *last hop* for this broadcast).
    pub fn max_depth(&self) -> u32 {
        self.records.iter().map(|r| r.depth).max().unwrap_or(0)
    }

    /// Histogram of delivery depths: how many nodes delivered at each hop
    /// distance from the origin.
    pub fn depth_histogram(&self) -> Histogram {
        let mut hist = Histogram::new();
        for record in &self.records {
            hist.record(u64::from(record.depth));
        }
        hist
    }

    /// Histogram of per-hop latencies: each delivery's time minus its
    /// parent's delivery time (origin excluded — it has no hop).
    pub fn hop_latency_histogram(&self) -> Histogram {
        let mut delivered_at = HashMap::with_capacity(self.records.len());
        for record in &self.records {
            delivered_at.entry(record.node).or_insert(record.time);
        }
        let mut hist = Histogram::new();
        for record in &self.records {
            let Some(parent) = record.parent else { continue };
            if let Some(parent_time) = delivered_at.get(&parent) {
                hist.record(record.time.saturating_sub(*parent_time));
            }
        }
        hist
    }

    /// Histogram of branching factors: how many children each *internal*
    /// node forwarded to (leaves excluded).
    pub fn branching_histogram(&self) -> Histogram {
        let mut children = HashMap::with_capacity(self.records.len());
        for parent in self.records.iter().filter_map(|r| r.parent) {
            *children.entry(parent).or_insert(0u64) += 1;
        }
        let mut hist = Histogram::new();
        for record in &self.records {
            if let Some(&count) = children.get(&record.node) {
                hist.record(count);
            }
        }
        hist
    }

    /// Renders the tree as indented text, one node per line, children
    /// under their parent in delivery order — the human-readable dump.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "msg {}: {} nodes, max depth {}",
            self.msg,
            self.node_count(),
            self.max_depth()
        );
        for root in self.records.iter().filter(|r| r.parent.is_none()) {
            self.render_from(root, 0, &mut out);
        }
        out
    }

    fn render_from(&self, record: &HopRecord, indent: usize, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "{}{} (depth {}, t={})",
            "  ".repeat(indent),
            record.node,
            record.depth,
            record.time
        );
        for child in self.records.iter().filter(|r| r.parent == Some(record.node)) {
            self.render_from(child, indent + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node tree: 0 → {1, 2}, 1 → {3}.
    fn sample() -> PathTracer {
        let mut tracer = PathTracer::new();
        tracer.record(HopRecord { msg: 9, node: 0, parent: None, depth: 0, time: 0 });
        tracer.record(HopRecord { msg: 9, node: 1, parent: Some(0), depth: 1, time: 3 });
        tracer.record(HopRecord { msg: 9, node: 2, parent: Some(0), depth: 1, time: 5 });
        tracer.record(HopRecord { msg: 9, node: 3, parent: Some(1), depth: 2, time: 7 });
        tracer
    }

    #[test]
    fn tree_reconstructs_depth_latency_and_branching() {
        let tracer = sample();
        assert_eq!(tracer.message_ids(), vec![9]);
        let tree = tracer.tree(9).expect("recorded");
        assert_eq!(tree.msg(), 9);
        assert_eq!(tree.node_count(), 4);
        assert_eq!(tree.max_depth(), 2);

        let depth = tree.depth_histogram();
        assert_eq!((depth.count(), depth.min(), depth.max()), (4, 0, 2));

        // Hop latencies: 3 (0→1), 5 (0→2), 4 (1→3).
        let hops = tree.hop_latency_histogram();
        assert_eq!((hops.count(), hops.min(), hops.max(), hops.sum()), (3, 3, 5, 12));

        // Branching: node 0 has 2 children, node 1 has 1; leaves excluded.
        let branching = tree.branching_histogram();
        assert_eq!((branching.count(), branching.max()), (2, 2));

        assert!(tracer.tree(8).is_none());
    }

    #[test]
    fn render_indents_children_under_parents() {
        let tree = sample().tree(9).expect("recorded");
        let text = tree.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "msg 9: 4 nodes, max depth 2");
        assert_eq!(lines[1], "0 (depth 0, t=0)");
        assert_eq!(lines[2], "  1 (depth 1, t=3)");
        assert_eq!(lines[3], "    3 (depth 2, t=7)");
        assert_eq!(lines[4], "  2 (depth 1, t=5)");
    }

    #[test]
    fn clear_bounds_memory_between_bursts() {
        let mut tracer = sample();
        assert_eq!(tracer.len(), 4);
        assert!(!tracer.is_empty());
        tracer.clear();
        assert!(tracer.is_empty());
        assert!(tracer.records().is_empty());
    }
}
