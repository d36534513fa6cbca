//! # p2pgrid-workflow — the workflow (DAG) model
//!
//! A scientific workflow is a directed acyclic graph whose vertices are tasks (with a
//! computational load in million instructions and a program-image size in megabits) and whose
//! edges are data dependencies (with a transfer size in megabits).  This crate implements the
//! workflow model of Section II of the paper:
//!
//! * [`Workflow`] / [`WorkflowBuilder`] — construction, cycle detection, and the paper's
//!   normalisation rule that gives every workflow a unique zero-cost entry task and exit task;
//! * [`analysis`] — expected execution/transmission times under system-wide averages, the
//!   upward rank (the paper's *rest path makespan*, RPM, estimated with averages), the critical
//!   path, and the expected finish time `eft(f)` of Eq. (1);
//! * [`progress`] — runtime bookkeeping of which tasks have finished and which are currently
//!   *schedule points* (ready to be dispatched), the just-in-time counterpart of the static DAG;
//! * [`generator`] — the random workflow generator matching Table I (2–30 tasks, fan-out 1–5,
//!   loads of 100–10 000 MI, data of 100–10 000 Mb) plus canonical shapes used in examples and
//!   tests (including Montage-, CyberShake- and Epigenomics-like scientific workflows);
//! * [`spec`] — the serializable on-disk workload format (`p2pgrid-workflow/v1` /
//!   `p2pgrid-workload/v1`): [`WorkflowSpec`] / [`WorkloadSpec`] import/export with schema
//!   errors that name the offending JSON field, validated through [`WorkflowBuilder`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod dag;
pub mod generator;
pub mod progress;
pub mod spec;

pub use analysis::{
    rest_path_makespans, rest_path_makespans_into, ExpectedCosts, WorkflowAnalysis,
};
pub use dag::{Task, TaskId, Workflow, WorkflowBuilder, WorkflowError};
pub use generator::{shapes, WorkflowGenerator, WorkflowGeneratorConfig};
pub use progress::ProgressTracker;
pub use spec::{
    HomePolicy, ResolvedEntry, SpecError, TaskSpec, WorkflowSpec, WorkloadEntry, WorkloadSpec,
};
