//! The overlay graph metrics of the paper's §2.3 and §5.4: degree
//! distributions, clustering coefficient, average shortest path and
//! connectivity, plus the symmetry of the links (§4.1).

use crate::overlay::Overlay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// In-degree of every node: how many alive nodes hold each node in their
/// partial view — the paper's "measure of the reachability of a node"
/// (Figure 5 plots its distribution).
pub fn in_degrees(overlay: &Overlay) -> Vec<usize> {
    let mut degrees = vec![0usize; overlay.len()];
    for v in overlay.alive_nodes() {
        for &t in overlay.out_neighbors(v) {
            if overlay.is_alive(t as usize) {
                degrees[t as usize] += 1;
            }
        }
    }
    degrees
}

/// Out-degree of every alive node.
pub fn out_degrees(overlay: &Overlay) -> Vec<usize> {
    overlay
        .alive_nodes()
        .into_iter()
        .map(|v| overlay.out_neighbors(v).iter().filter(|t| overlay.is_alive(**t as usize)).count())
        .collect()
}

/// Histogram of a degree sequence: `degree → node count` (Figure 5).
pub fn degree_histogram(degrees: &[usize], overlay: &Overlay) -> BTreeMap<usize, usize> {
    let mut hist = BTreeMap::new();
    for v in overlay.alive_nodes() {
        *hist.entry(degrees[v]).or_insert(0) += 1;
    }
    hist
}

/// Average clustering coefficient (§2.3): for each node, the number of
/// edges among its neighbors divided by the maximum possible, averaged over
/// all alive nodes. Neighbor relations use the undirected projection of the
/// overlay, matching the paper's treatment of partial views as neighbor
/// sets.
pub fn clustering_coefficient(overlay: &Overlay) -> f64 {
    let und = overlay.undirected_adjacency();
    let mut total = 0.0;
    let mut counted = 0usize;
    for v in overlay.alive_nodes() {
        let neighbors = &und[v];
        let k = neighbors.len();
        counted += 1;
        if k < 2 {
            continue; // coefficient 0 by convention
        }
        let mut links = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                let a = neighbors[i] as usize;
                let b = neighbors[j];
                if und[a].contains(&b) {
                    links += 1;
                }
            }
        }
        total += links as f64 / ((k * (k - 1)) as f64 / 2.0);
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Breadth-first distances from `source` over *directed* out-edges,
/// restricted to alive nodes. `u32::MAX` marks unreachable nodes.
pub fn bfs_distances(overlay: &Overlay, source: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; overlay.len()];
    if !overlay.is_alive(source) {
        return dist;
    }
    dist[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v];
        for &t in overlay.out_neighbors(v) {
            let t = t as usize;
            if overlay.is_alive(t) && dist[t] == u32::MAX {
                dist[t] = d + 1;
                queue.push_back(t);
            }
        }
    }
    dist
}

/// Result of the (sampled) shortest-path analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStats {
    /// Mean shortest-path length over reachable ordered pairs.
    pub average: f64,
    /// Longest shortest path observed (diameter estimate).
    pub max: u32,
    /// Fraction of sampled ordered pairs that were reachable.
    pub reachable_fraction: f64,
}

/// Average shortest path (§2.3) estimated by BFS from `samples` random
/// alive sources (exact when `samples >= alive nodes`).
pub fn shortest_path_stats(overlay: &Overlay, samples: usize, seed: u64) -> PathStats {
    let alive = overlay.alive_nodes();
    if alive.len() < 2 {
        return PathStats { average: 0.0, max: 0, reachable_fraction: 0.0 };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let sources: Vec<usize> = if samples >= alive.len() {
        alive.clone()
    } else {
        (0..samples).map(|_| alive[rng.gen_range(0..alive.len())]).collect()
    };
    let mut total = 0u64;
    let mut reachable = 0u64;
    let mut pairs = 0u64;
    let mut max = 0u32;
    for source in sources {
        let dist = bfs_distances(overlay, source);
        for &v in &alive {
            if v == source {
                continue;
            }
            pairs += 1;
            if dist[v] != u32::MAX {
                reachable += 1;
                total += u64::from(dist[v]);
                max = max.max(dist[v]);
            }
        }
    }
    PathStats {
        average: if reachable == 0 { 0.0 } else { total as f64 / reachable as f64 },
        max,
        reachable_fraction: if pairs == 0 { 0.0 } else { reachable as f64 / pairs as f64 },
    }
}

/// Connectivity report over the undirected projection (§2.3 "Connectivity").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectivityReport {
    /// Number of connected components among alive nodes.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
    /// Alive nodes with no overlay links at all.
    pub isolated: usize,
}

impl ConnectivityReport {
    /// `true` when all alive nodes are in one component.
    pub fn is_connected(&self) -> bool {
        self.components <= 1
    }
}

/// Computes connectivity of the undirected projection.
pub fn connectivity(overlay: &Overlay) -> ConnectivityReport {
    let und = overlay.undirected_adjacency();
    let mut component = vec![usize::MAX; overlay.len()];
    let mut components = 0usize;
    let mut largest = 0usize;
    let mut isolated = 0usize;
    for start in overlay.alive_nodes() {
        if component[start] != usize::MAX {
            continue;
        }
        let label = components;
        components += 1;
        let mut size = 0usize;
        let mut queue = VecDeque::from([start]);
        component[start] = label;
        while let Some(v) = queue.pop_front() {
            size += 1;
            for &t in &und[v] {
                let t = t as usize;
                if component[t] == usize::MAX {
                    component[t] = label;
                    queue.push_back(t);
                }
            }
        }
        largest = largest.max(size);
        if size == 1 && und[start].is_empty() {
            isolated += 1;
        }
    }
    ConnectivityReport { components, largest_component: largest, isolated }
}

/// The one-sided links among alive nodes, in node order: every `(u, v)`
/// with `u → v` but not `v → u`. HyParView's active views are symmetric
/// (§4.1), so its overlay at quiescence has none; links to dead nodes are
/// the failure detector's business and do not count.
pub fn one_sided_links(overlay: &Overlay) -> Vec<(usize, usize)> {
    let mut links = Vec::new();
    for u in overlay.alive_nodes() {
        for &v in overlay.out_neighbors(u) {
            let v = v as usize;
            if overlay.is_alive(v) && !overlay.out_neighbors(v).contains(&(u as u32)) {
                links.push((u, v));
            }
        }
    }
    links
}

/// Summary statistics of a degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSummary {
    /// Mean degree.
    pub mean: f64,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Standard deviation.
    pub stddev: f64,
}

/// Summarises a degree sequence (means/extremes/spread — §5.4 discussion).
pub fn degree_summary(degrees: &[usize]) -> DegreeSummary {
    if degrees.is_empty() {
        return DegreeSummary { mean: 0.0, min: 0, max: 0, stddev: 0.0 };
    }
    let n = degrees.len() as f64;
    let mean = degrees.iter().sum::<usize>() as f64 / n;
    let var = degrees.iter().map(|d| (*d as f64 - mean).powi(2)).sum::<f64>() / n;
    DegreeSummary {
        mean,
        min: *degrees.iter().min().unwrap(),
        max: *degrees.iter().max().unwrap(),
        stddev: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 ↔ 1 ↔ 2, plus 2 → 0 (triangle with one asymmetric edge).
    fn triangle() -> Overlay {
        Overlay::new(vec![Some(vec![1]), Some(vec![0, 2]), Some(vec![1, 0])])
    }

    /// Two components: {0, 1} and {2, 3}; node 4 isolated.
    fn split() -> Overlay {
        Overlay::new(vec![Some(vec![1]), Some(vec![0]), Some(vec![3]), Some(vec![2]), Some(vec![])])
    }

    #[test]
    fn one_sided_links_list_unanswered_edges_between_alive_nodes() {
        assert_eq!(one_sided_links(&triangle()), vec![(2, 0)]);
        assert!(one_sided_links(&split()).is_empty());
        // 0 → 1 points at a dead node; 2 → 0 is one-sided.
        let o = Overlay::new(vec![Some(vec![1]), None, Some(vec![0])]);
        assert_eq!(one_sided_links(&o), vec![(2, 0)]);
    }

    #[test]
    fn in_degrees_count_incoming_alive_edges() {
        let o = triangle();
        assert_eq!(in_degrees(&o), vec![2, 2, 1]);
    }

    #[test]
    fn in_degrees_skip_dead_sources_and_targets() {
        let o = Overlay::new(vec![Some(vec![1, 2]), None, Some(vec![1])]);
        // Node 1 is dead: edges to it don't count, and it contributes none.
        assert_eq!(in_degrees(&o), vec![0, 0, 1]);
    }

    #[test]
    fn out_degrees_alive_only() {
        let o = Overlay::new(vec![Some(vec![1, 2]), None, Some(vec![0])]);
        // Node 0's edge to dead node 1 doesn't count.
        assert_eq!(out_degrees(&o), vec![1, 1]);
    }

    #[test]
    fn histogram_buckets() {
        let o = triangle();
        let hist = degree_histogram(&in_degrees(&o), &o);
        assert_eq!(hist.get(&2), Some(&2));
        assert_eq!(hist.get(&1), Some(&1));
    }

    #[test]
    fn clustering_of_full_triangle_is_one() {
        // Fully connected triangle.
        let o = Overlay::new(vec![Some(vec![1, 2]), Some(vec![0, 2]), Some(vec![0, 1])]);
        assert!((clustering_coefficient(&o) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        // Star: center 0 connected to 1, 2, 3; leaves unconnected.
        let o =
            Overlay::new(vec![Some(vec![1, 2, 3]), Some(vec![0]), Some(vec![0]), Some(vec![0])]);
        assert_eq!(clustering_coefficient(&o), 0.0);
    }

    #[test]
    fn clustering_partial() {
        // 0 ~ {1, 2}; 1 ~ 2 closes the triangle only for node 0's pair.
        let o = Overlay::new(vec![Some(vec![1, 2]), Some(vec![2]), Some(vec![])]);
        // Undirected: 0~1, 0~2, 1~2 — actually a full triangle.
        assert!((clustering_coefficient(&o) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_distances_on_chain() {
        let o = Overlay::new(vec![Some(vec![1]), Some(vec![2]), Some(vec![])]);
        assert_eq!(bfs_distances(&o, 0), vec![0, 1, 2]);
        assert_eq!(bfs_distances(&o, 2), vec![u32::MAX, u32::MAX, 0]);
    }

    #[test]
    fn bfs_from_dead_source_reaches_nothing() {
        let o = Overlay::new(vec![None, Some(vec![0])]);
        assert!(bfs_distances(&o, 0).iter().all(|d| *d == u32::MAX));
    }

    #[test]
    fn shortest_path_stats_on_cycle() {
        // Directed 4-cycle: distances 1, 2, 3 from each node; mean = 2.
        let o = Overlay::new(vec![Some(vec![1]), Some(vec![2]), Some(vec![3]), Some(vec![0])]);
        let stats = shortest_path_stats(&o, 100, 7);
        assert!((stats.average - 2.0).abs() < 1e-9);
        assert_eq!(stats.max, 3);
        assert!((stats.reachable_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shortest_path_disconnected() {
        let o = split();
        let stats = shortest_path_stats(&o, 100, 7);
        assert!(stats.reachable_fraction < 0.5);
    }

    #[test]
    fn connectivity_components() {
        let report = connectivity(&split());
        assert_eq!(report.components, 3);
        assert_eq!(report.largest_component, 2);
        assert_eq!(report.isolated, 1);
        assert!(!report.is_connected());
    }

    #[test]
    fn connectivity_of_triangle() {
        let report = connectivity(&triangle());
        assert!(report.is_connected());
        assert_eq!(report.largest_component, 3);
        assert_eq!(report.isolated, 0);
    }

    #[test]
    fn connectivity_ignores_dead_nodes() {
        let o = Overlay::new(vec![Some(vec![1]), None, Some(vec![1])]);
        let report = connectivity(&o);
        // Nodes 0 and 2 both only link to the dead node 1 → both isolated.
        assert_eq!(report.components, 2);
        assert_eq!(report.isolated, 2);
    }

    #[test]
    fn degree_summary_stats() {
        let s = degree_summary(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 9);
        assert!((s.stddev - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degree_summary_empty() {
        let s = degree_summary(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max, 0);
    }
}
