//! # p2pgrid-bench — shared helpers for the figure-reproduction benchmarks
//!
//! Every paper figure has a Criterion bench target in `benches/`:
//!
//! | bench target | paper artefact |
//! |---|---|
//! | `fig03_worked_example` | Fig. 3 (RPM computation and dispatch ordering) |
//! | `fig04_06_static_comparison` | Fig. 4–6 (throughput / ACT / AE, static grid) |
//! | `fcfs_ablation` | §IV.B second-phase vs FCFS text numbers |
//! | `fig07_08_load_factor` | Fig. 7–8 (load-factor sweep) |
//! | `fig09_10_ccr` | Fig. 9–10 (CCR sweep) |
//! | `fig11_scalability` | Fig. 11 (RSS size / AE / ACT vs scale) |
//! | `fig12_14_churn` | Fig. 12–14 (dynamic factor sweep) |
//! | `scenario_derive` | `Scenario::with_seed` / `Scenario::derive` vs a full rebuild |
//! | `campaign_sweep` | the pooled campaign path vs sequential + the pool-balance regression |
//! | `micro_heuristics` | scheduling-decision micro-benchmarks (Algorithm 1 / Algorithm 2) |
//! | `micro_substrates` | substrate micro-benchmarks (topology, gossip, DAG analysis, event queue) |
//!
//! Each figure bench first *regenerates the figure data once* at benchmark scale and prints it
//! (so `cargo bench` output doubles as a figure dump), then times a representative kernel with
//! Criterion.  The full-scale regeneration lives in the `repro` binary of
//! `p2pgrid-experiments`; benchmark scale keeps `cargo bench` in the minutes range.

pub mod scale;

pub use scale::{bench_criterion_config, bench_grid_config, print_figure, BENCH_SEED};
