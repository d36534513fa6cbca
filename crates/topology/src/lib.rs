//! # p2pgrid-topology — wide-area network substrate
//!
//! The paper builds its emulated Internet with the Brite topology generator configured with the
//! **Waxman model** and assigns per-link bandwidths in the 0.1–10 Mb/s range (Table I).  The
//! schedulers only ever consume two quantities from that substrate:
//!
//! 1. the **effective end-to-end bandwidth** between a pair of peers (used for estimating data
//!    aggregation cost and actually timing transfers), and
//! 2. coarse **latency/locality** information (used implicitly through the bandwidth of nearby
//!    versus faraway peers).
//!
//! This crate reproduces that substrate from scratch:
//!
//! * [`Topology`] — an undirected weighted graph with node coordinates, per-edge bandwidth and
//!   propagation latency;
//! * [`WaxmanGenerator`] — the Waxman random-graph model with connectivity repair, the same
//!   model Brite uses for flat router-level topologies;
//! * [`PairwiseMetrics`] — all-pairs *bottleneck bandwidth* (widest path) and latency, computed
//!   with a rayon-parallel Dijkstra sweep;
//! * [`LandmarkEstimator`] — the landmark-based bandwidth prediction scheme the paper cites
//!   (each node only probes `log2 n` landmarks and pairwise bandwidth is estimated through the
//!   best common landmark; the first estimate tabulates every pair, so later ones are one read).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod graph;
pub mod landmark;
pub mod paths;
pub mod waxman;

pub use graph::{EdgeProps, NodeId, Topology};
pub use landmark::LandmarkEstimator;
pub use paths::PairwiseMetrics;
pub use waxman::{WaxmanConfig, WaxmanGenerator};
