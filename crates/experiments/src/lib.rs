//! # p2pgrid-experiments — regenerating every table and figure of the paper
//!
//! Each figure module reproduces one experiment of Section IV.  Its `run(scale, seed)` returns
//! a [`ReportGrid`] — a legend label per row, an x value per point, `reports[row][point]` —
//! and its `figures(&grid)` lists the figures read off that grid, each built by
//! [`FigureData::scalar`] (one curve per row of a scalar metric against x) or
//! [`FigureData::hourly`] (one hourly curve per report):
//!
//! | module | paper artefact | grid rows × points |
//! |---|---|---|
//! | [`static_comparison`] | Fig. 4 (throughput), Fig. 5 (ACT), Fig. 6 (AE) and the headline 20–60 % / 37.5–90 % claims | 8 algorithms × 1 |
//! | [`fcfs_ablation`]     | the §IV.B text numbers comparing phase-2 rules against FCFS | paper rule, FCFS × 4 algorithms |
//! | [`load_factor`]       | Fig. 7 / Fig. 8 (load-factor sweep 1–8) | 8 algorithms × load factor |
//! | [`ccr`]               | Fig. 9 / Fig. 10 (four load/data combinations, CCR 0.16–16) | 8 algorithms × case |
//! | [`scalability`]       | Fig. 11 (RSS size, AE, ACT versus system scale) | DSMF × node count |
//! | [`churn`]             | Fig. 12–14 (dynamic factor 0–0.4) | DSMF × dynamic factor |
//! | [`fault_tolerance`]   | the fault-tolerance study the paper never ran ("Fig. 15") | 4 recovery policies × MTBF |
//!
//! The rest serve them and the campaign server:
//!
//! | module | role |
//! |---|---|
//! | [`campaign`]          | jobs, the one parallel map, [`campaign::run_grid`] and [`campaign::sweep`] |
//! | [`figures`]           | [`FigureData`], [`ReportGrid`] and the two figure builders |
//! | [`workload`]          | replay of serialized workload artifacts (`repro --workload`) |
//! | [`rununit`]           | campaign-spec decomposition, run-unit execution and artifact merging (the campaign server's library core) |
//!
//! Every runner accepts an [`ExperimentScale`]: `Smoke` for unit tests, `Reduced` for the
//! Criterion benches and the default `repro` binary, and `Full` for the paper-scale
//! configuration (1 000 nodes, 36 simulated hours).  Absolute numbers differ from the paper —
//! the substrate is a reimplementation, not the authors' testbed — but the *shape* of every
//! figure (who wins, by roughly what factor, where the crossovers fall) is the reproduction
//! target, and `EXPERIMENTS.md` records both sides.
//!
//! All runners execute through the [`campaign`] module: sweep points are derived from one
//! base world with `Scenario::derive`, so a whole sweep pays for a single
//! topology/all-pairs-metrics build — and, where the swept knob leaves the gossip protocol's
//! inputs alone, a single protocol run — and the resulting jobs run in parallel, one
//! session per thread at a time, with reports returned in input order.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod ccr;
pub mod churn;
pub mod fault_tolerance;
pub mod fcfs_ablation;
pub mod figures;
pub mod load_factor;
pub mod rununit;
pub mod scalability;
pub mod scale;
pub mod static_comparison;
pub mod workload;

pub use figures::{FigureData, ReportGrid, Series};
pub use rununit::{CampaignSpec, RunUnit, UnitRunner};
pub use scale::ExperimentScale;
