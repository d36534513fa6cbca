//! # p2pgrid-experiments — regenerating every table and figure of the paper
//!
//! Each module reproduces one experiment of Section IV:
//!
//! | module | paper artefact |
//! |---|---|
//! | [`static_comparison`] | Fig. 4 (throughput), Fig. 5 (ACT), Fig. 6 (AE) and the headline 20–60 % / 37.5–90 % claims |
//! | [`fcfs_ablation`]     | the §IV.B text numbers comparing phase-2 rules against FCFS |
//! | [`load_factor`]       | Fig. 7 / Fig. 8 (load-factor sweep 1–8) |
//! | [`ccr`]               | Fig. 9 / Fig. 10 (four load/data combinations, CCR 0.16–16) |
//! | [`scalability`]       | Fig. 11 (RSS size, AE, ACT versus system scale) |
//! | [`churn`]             | Fig. 12–14 (dynamic factor 0–0.4) |
//! | [`fault_tolerance`]   | the fault-tolerance study the paper never ran (MTBF × recovery policy, "Fig. 15") |
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

pub use figures::{FigureData, Series};
pub use rununit::{CampaignSpec, RunUnit, UnitRunner};
pub use scale::ExperimentScale;
