//! # hyparview-bench
//!
//! The deterministic paper-figure harness of the HyParView reproduction:
//! one `hpv-bench` binary runs each experiment of the paper's evaluation
//! (§5) by name, plus the Plumtree, WAN and attack extensions.
//!
//! * `fig1_fanout` — Figure 1a/1b: fanout × reliability (Cyclon, Scamp).
//! * `fig1c_after_failure` — Figure 1c: reliability after 50% failures.
//! * `fig2_reliability` — Figure 2: reliability vs failure percentage.
//! * `fig3_recovery` — Figures 3a–3f: per-message recovery curves.
//! * `fig4_healing` — Figure 4: healing time in membership cycles.
//! * `fig5_indegree` — Figure 5: in-degree distributions.
//! * `table1_graph_props` — Table 1: clustering / path length / hops.
//! * `overhead`, `ablations` — §3.1's message cost; §5.5/§6's design
//!   choices.
//! * `plumtree_vs_flood` — beyond the paper: eager flood vs Plumtree
//!   broadcast trees (reliability, RMR, last-delivery-hop).
//! * `plumtree_adaptive` — adaptive Plumtree (tree optimization + lazy
//!   batching) on vs. off across the failure-and-healing scenario.
//! * `plumtree_latency` — the same trees under variable latency models
//!   (uniform jitter, per-link geometry, heavy-tailed), where arrival
//!   order and round order disagree.
//! * `plumtree_wan` — flood vs static vs adaptive Plumtree under WAN
//!   conditions: deterministic per-link loss, duplication, and a
//!   partition-and-heal cycle dated by the causal path tracer.
//! * `hyparview_attack` — adversarial membership: eclipse/infiltration
//!   colluders vs overlay defenses, headline time-to-eclipse.
//! * `all` — the seven paper experiments above in order.
//! * `diff` — not an experiment: diffs two sets of results artifacts into
//!   a markdown table ([`diff`]).
//!
//! Every experiment accepts `--n`, `--messages`, `--seed`, `--runs`,
//! `--jobs`, `--fanout`, `--stabilization` and the `--paper` / `--quick`
//! / `--smoke` presets ([`cli`]). `--jobs N` fans independent seeded runs
//! out over `N` worker threads ([`parallel::sweep`]); partials merge in
//! seed order, so every result and artifact is a pure function of the
//! seed, byte-identical at any job count. Nothing here reads a clock: the
//! repository benchmark (`benchmark/`) is the one source of timed numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod cli;
pub mod diff;
pub mod experiments;
pub mod json;
pub mod obsv_json;
pub mod parallel;
pub mod params;
mod report;
pub mod table;

pub use params::{Params, ALL_PROTOCOLS, FIG1_FANOUTS, FIG2_FAILURES, FIG3_FAILURES};
