//! # hyparview-bench
//!
//! The deterministic paper-figure harness of the HyParView reproduction:
//! one `hpv-bench` binary runs each experiment of the paper's evaluation
//! (§5) by name, plus the Plumtree and attack extensions.
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
//!
//!   These nine are slices of one grid of cells ([`experiments::paper`]):
//!   one runner, and a cell that slices share runs once.
//! * `plumtree` — beyond the paper: eager flood vs static and adaptive
//!   Plumtree trees over one grid of crashes, latency models, per-link
//!   loss and a partition-and-heal cycle ([`experiments::plumtree`]).
//! * `hyparview_attack` — adversarial membership: eclipse/infiltration
//!   colluders vs overlay defenses, headline time-to-eclipse.
//!
//!   Every report ends with the experiment's rows of the claims table
//!   ([`experiments::claims`]), and `--assert` exits 1 on a failing row.
//! * `all` — the seven paper figures and tables in order, over one grid
//!   in which each distinct cell runs once.
//! * `diff` — not an experiment: diffs two sets of results artifacts into
//!   a markdown table ([`diff`]).
//!
//! Every experiment accepts `--n`, `--messages`, `--seed`, `--runs`,
//! `--jobs`, `--fanout`, `--stabilization` and the `--paper` / `--quick`
//! / `--smoke` presets ([`cli`]). `--jobs N` fans every experiment's
//! independent seeded runs out over `N` worker threads
//! ([`parallel::sweep`]); partials merge in seed order, so every result
//! and artifact is a pure function of the seed, byte-identical at any job
//! count. Nothing here reads a clock: the
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

pub use params::Params;
