//! # hyparview-graph
//!
//! Overlay graph snapshots and the metrics the HyParView paper uses to
//! characterise partial-view quality (§2.3, §5.4):
//!
//! * **in/out-degree distributions** — Figure 5;
//! * **clustering coefficient** — Table 1, the property behind HyParView's
//!   resilience;
//! * **average shortest path** — Table 1;
//! * **connectivity** — components, largest component, isolated nodes;
//! * **symmetry** — the one-sided links of an overlay that should have
//!   none, such as HyParView's active views ([`one_sided_links`]);
//! * **adversarial capture** — colluder share of honest views, in-degree
//!   capture, eclipsed victims, honest-component connectivity
//!   ([`adversary`]);
//! * **analytic references** — what theory expects of a measurement, such
//!   as the mean-field reach of push gossip and the chance that a
//!   broadcast is atomic, beside Figure 1 ([`analytic`]).
//!
//! The crate is protocol-agnostic: it consumes plain adjacency snapshots
//! (`Vec<Option<Vec<usize>>>`, `None` = crashed node) produced by
//! `hyparview-sim`'s `out_views()`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod analytic;
pub mod metrics;
pub mod overlay;

pub use adversary::{
    capture_fraction, eclipsed_victims, honest_connectivity, honest_subgraph, indegree_capture,
    indegree_report, IndegreeReport,
};
pub use analytic::{mean_field_atomic, mean_field_reach};
pub use metrics::{
    bfs_distances, clustering_coefficient, connectivity, degree_histogram, degree_summary,
    in_degrees, one_sided_links, out_degrees, shortest_path_stats, ConnectivityReport,
    DegreeSummary, PathStats,
};
pub use overlay::Overlay;
