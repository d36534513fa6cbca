//! # p2pgrid-metrics — measurement and reporting
//!
//! The paper evaluates schedulers with three system-level quantities:
//!
//! * **throughput** — the cumulative number of finished workflows over time (Fig. 4, 12);
//! * **average completion time (ACT)** — Eq. (2), the mean response time of finished workflows
//!   (Fig. 5, 7, 9, 11c, 13);
//! * **average efficiency (AE)** — Eq. (3), the mean of `eft(f) / ct(f)` over finished
//!   workflows (Fig. 6, 8, 10, 11b, 14).
//!
//! This crate provides the accumulators for those quantities ([`WorkflowMetrics`]), a running
//! mean ([`OnlineStats`]), periodically sampled time series ([`TimeSeries`]) and
//! the plain-text table printer used by the experiment runners.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod robustness;
pub mod stats;
pub mod table;
pub mod timeseries;
pub mod workflow_metrics;

pub use robustness::RobustnessStats;
pub use stats::OnlineStats;
pub use table::format_table;
pub use timeseries::TimeSeries;
pub use workflow_metrics::{WorkflowMetrics, WorkflowOutcome, WorkflowRecord};
