//! # p2pgrid-bench — shared helpers for the Criterion benchmarks
//!
//! | bench target | what it times |
//! |---|---|
//! | `micro_heuristics` | scheduling-decision micro-benchmarks (Algorithm 1 / Algorithm 2) |
//! | `micro_substrates` | substrate micro-benchmarks (topology, gossip, DAG analysis, event queue) |
//! | `scenario_derive` | `Scenario::with_seed` / `Scenario::derive` vs a full rebuild |
//! | `campaign_sweep` | the pooled campaign path vs sequential + the pool-balance regression |
//!
//! The paper's figures themselves are regenerated by the `repro` binary of
//! `p2pgrid-experiments`, at any scale.

pub mod scale;

pub use scale::{bench_criterion_config, bench_grid_config, BENCH_SEED};
