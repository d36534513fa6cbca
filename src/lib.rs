//! # p2pgrid — dual-phase just-in-time workflow scheduling in P2P grid systems
//!
//! A from-scratch Rust reproduction of
//! *Di & Wang, "Dual-phase Just-in-time Workflow Scheduling in P2P Grid Systems", ICPP 2010*:
//! the **DSMF** (dynamic shortest makespan first) heuristic, its seven comparison schedulers,
//! and every substrate the evaluation depends on (a PeerSim-style simulation engine, a
//! Brite/Waxman WAN model, a mixed gossip resource-discovery protocol, a DAG workflow model and
//! the experiment harness regenerating every figure of the paper).
//!
//! This crate is a thin facade that re-exports the workspace crates under stable module names.
//!
//! ## Quickstart
//!
//! Build the world once ([`Scenario`](core::scenario::Scenario)), then run any number of
//! scheduler sessions on it — optionally observing the event stream:
//!
//! ```
//! use p2pgrid::prelude::*;
//!
//! // A small grid (32 peers), two workflows per home node, pre-sampled from the seed.
//! let scenario = Scenario::build(GridConfig::small(32).with_seed(42)).unwrap();
//!
//! // Run DSMF on it, recording the backlog time series along the way.
//! let mut probe = TimeSeriesProbe::new();
//! let report = scenario
//!     .simulate_algorithm(Algorithm::Dsmf)
//!     .observe(&mut probe)
//!     .run();
//! assert!(report.completed > 0);
//!
//! // The same world is reusable: compare another scheduler on the identical workload.
//! let heft = scenario.simulate_algorithm(Algorithm::Heft).run();
//! assert_eq!(report.submitted, heft.submitted);
//! println!(
//!     "DSMF finished {} workflows (ACT {:.0}s), peak backlog {:?}",
//!     report.completed,
//!     report.act_secs(),
//!     probe.peak_ready_tasks()
//! );
//! ```
//!
//! See `examples/` for larger scenarios (the Fig. 3 worked example, an eight-algorithm
//! comparison, churn tolerance and a Montage-style campaign) and the `repro` binary in
//! `p2pgrid-experiments` for full figure regeneration.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// The scheduling core: DSMF, the seven baselines and the grid simulation.
pub use p2pgrid_core as core;
/// Experiment runners regenerating the paper's figures.
pub use p2pgrid_experiments as experiments;
/// The mixed gossip resource-discovery substrate.
pub use p2pgrid_gossip as gossip;
/// Metrics: throughput, ACT (Eq. 2) and AE (Eq. 3).
pub use p2pgrid_metrics as metrics;
/// The campaign server: master/worker sweep execution as a service.
pub use p2pgrid_server as server;
/// The deterministic discrete-event simulation engine.
pub use p2pgrid_sim as sim;
/// The Waxman WAN topology substrate.
pub use p2pgrid_topology as topology;
/// The workflow (DAG) model.
pub use p2pgrid_workflow as workflow;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use p2pgrid_core::{
        Algorithm, AlgorithmConfig, ArrivalProcess, CapacityModel, ChurnConfig, ConfigError,
        FaultModel, GridConfig, GridSample, Observer, PreemptionPolicy, RecoveryPolicy,
        ResourceModel, Scenario, SecondPhase, Simulation, SimulationReport, SlotClass, SlotModel,
        StochasticFaults, StreamKind, TimeSeriesProbe, TraceEvent, TraceRecorder, WorkloadSource,
    };
    pub use p2pgrid_experiments::{CampaignSpec, ExperimentScale};
    pub use p2pgrid_metrics::{RobustnessStats, WorkflowMetrics, WorkflowRecord};
    pub use p2pgrid_sim::{SimDuration, SimRng, SimTime};
    pub use p2pgrid_topology::{Topology, WaxmanConfig, WaxmanGenerator};
    pub use p2pgrid_workflow::{
        shapes, ExpectedCosts, HomePolicy, SpecError, Task, TaskId, Workflow, WorkflowAnalysis,
        WorkflowBuilder, WorkflowGenerator, WorkflowGeneratorConfig, WorkflowSpec, WorkloadEntry,
        WorkloadSpec,
    };
}
