//! # p2pgrid-core — dual-phase just-in-time workflow scheduling
//!
//! This crate is the reproduction of the paper's contribution: the **DSMF** (dynamic shortest
//! makespan first) dual-phase just-in-time scheduler for P2P grid systems, its seven comparison
//! algorithms, and the end-to-end grid simulation that evaluates them on top of the substrate
//! crates (`p2pgrid-sim`, `p2pgrid-topology`, `p2pgrid-workflow`, `p2pgrid-gossip`,
//! `p2pgrid-metrics`).
//!
//! ## The three-layer API
//!
//! The top-level API separates *what the world is* from *one run over it* from *watching that
//! run*:
//!
//! 1. **[`Scenario`]** — the immutable, reusable world: topology + all-pairs bandwidths,
//!    landmark estimates, sampled node capacities / slots / churn roles, and the generated
//!    workflows, all pre-sampled deterministically from the seed by [`Scenario::build`]
//!    (which returns a typed [`ConfigError`] for malformed configurations instead of
//!    panicking).  `Scenario` is an `Arc` handle: `Clone` is pointer-sized and the type is
//!    `Send + Sync`, so one world fans out across a whole algorithm sweep.
//! 2. **[`Simulation`]** — one session over that world, created by [`Scenario::simulate`]
//!    (or [`Scenario::simulate_algorithm`]): step it event by event ([`Simulation::step`]),
//!    advance it to an instant ([`Simulation::run_until`]), or drive it to the horizon
//!    ([`Simulation::run`]).
//! 3. **[`Observer`]** — the seam for tapping the run: task dispatch / start / finish /
//!    displacement, workflow submit / complete / fail, node join / leave, gossip cycles and
//!    the periodic [`GridSample`].  [`TimeSeriesProbe`] and [`TraceRecorder`] are built in.
//!
//! ```
//! use p2pgrid_core::observer::TimeSeriesProbe;
//! use p2pgrid_core::scenario::Scenario;
//! use p2pgrid_core::{Algorithm, GridConfig};
//!
//! // Build the world once...
//! let scenario = Scenario::build(GridConfig::small(16).with_seed(42)).unwrap();
//! // ...run two schedulers on it, observing one of the runs.
//! let mut probe = TimeSeriesProbe::new();
//! let dsmf = scenario
//!     .simulate_algorithm(Algorithm::Dsmf)
//!     .observe(&mut probe)
//!     .run();
//! let heft = scenario.simulate_algorithm(Algorithm::Heft).run();
//! assert_eq!(dsmf.submitted, heft.submitted);
//! assert!(!probe.samples().is_empty());
//! ```
//!
//! ## The dual-phase model
//!
//! Every task crosses two scheduling phases before it runs:
//!
//! 1. **First phase — at the home (scheduler) node.**  Every scheduling cycle, the home node
//!    recomputes the *rest path makespan* (RPM, Eq. 7) of every schedule-point task of every
//!    locally submitted workflow, derives each workflow's remaining makespan (Eq. 8), orders
//!    workflows/tasks according to the configured heuristic and dispatches each task to the
//!    resource node with the earliest estimated finish time (Formula 9) among the `O(log n)`
//!    candidates in its gossip-aggregated resource state set.
//! 2. **Second phase — at the resource node.**  Whenever an execution slot frees up, the
//!    resource node picks the next data-complete task from its ready set according to the
//!    configured ready-set rule (Formula 10 for DSMF).
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`algorithm`] | the eight algorithms, their paper-default phase pairings, and the FCFS ablation |
//! | [`estimate`]  | the finish-time model of Eq. 4–7 evaluated against (possibly stale) gossip state |
//! | [`policy`]    | first-phase dispatch planning and second-phase ready-set selection |
//! | [`fullahead`] | the centralized full-ahead planner used by the HEFT and SMF baselines |
//! | [`config`]    | experiment configuration (Table I defaults, [`config::ResourceModel`] slots, [`config::FaultModel`] faults, [`config::RecoveryPolicy`] recovery, load factor, CCR) |
//! | [`error`]     | the typed [`ConfigError`] returned by validation and [`Scenario::build`] |
//! | [`scenario`]  | the reusable pre-sampled world ([`Scenario`]) |
//! | [`engine`]    | the grid engine: per-node / per-workflow runtime, transfer model, and the [`Simulation`] session, the event loop that executes one virtual instant per step |
//! | [`observer`]  | the [`Observer`] seam, [`TimeSeriesProbe`] and [`TraceRecorder`] |
//! | [`worked_example`] | the two-workflow scenario of Fig. 3 used by tests and `repro --fig 3` |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod config;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod fullahead;
pub mod observer;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod worked_example;

pub use algorithm::{Algorithm, AlgorithmConfig, SecondPhase};
pub use config::{
    ArrivalProcess, CapacityModel, ChurnConfig, FaultModel, GridConfig, PreemptionPolicy,
    RecoveryPolicy, ResourceModel, SlotClass, SlotModel, StochasticFaults, StreamKind,
    WorkloadSource,
};
pub use engine::Simulation;
pub use error::ConfigError;
pub use estimate::{CandidateNode, FinishTimeEstimator, PredecessorData};
pub use observer::{GridSample, Observer, TimeSeriesProbe, TraceEvent, TraceRecorder};
pub use report::SimulationReport;
pub use scenario::Scenario;

/// Identifier of a peer node (shared dense index with `p2pgrid-topology` and `p2pgrid-gossip`).
pub type NodeId = usize;
