//! Experiment configuration (Table I defaults).
//!
//! All validation is `Result`-returning with a typed [`ConfigError`]: a malformed sweep
//! configuration fails [`Scenario::build`](crate::scenario::Scenario::build) with a message
//! naming the offending value instead of panicking mid-experiment.

use crate::error::ConfigError;
use p2pgrid_gossip::MixedGossipConfig;
use p2pgrid_sim::{SimDuration, SimRng, SimTime};
use p2pgrid_topology::WaxmanConfig;
use p2pgrid_workflow::{WorkflowGeneratorConfig, WorkloadSpec};

/// How node capacities are assigned.
#[derive(Debug, Clone, PartialEq)]
pub enum CapacityModel {
    /// Capacities drawn uniformly from the given set (Table I: {1, 2, 4, 8, 16} MIPS).
    Choices(Vec<f64>),
    /// Every node has the same capacity (useful for tests).
    Uniform(f64),
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel::Choices(vec![1.0, 2.0, 4.0, 8.0, 16.0])
    }
}

impl CapacityModel {
    /// Sample a capacity for one node.  The model must have passed
    /// [`CapacityModel::validate`] first (an empty choice set panics here).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            CapacityModel::Choices(choices) => *rng
                .choose(choices)
                .expect("capacity choice set must not be empty (validate the config first)"),
            CapacityModel::Uniform(c) => *c,
        }
    }

    /// Check the model for an empty choice set or non-positive / non-finite capacities.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let values: &[f64] = match self {
            CapacityModel::Choices(choices) if choices.is_empty() => {
                return Err(ConfigError::EmptyCapacitySet)
            }
            CapacityModel::Choices(choices) => choices,
            CapacityModel::Uniform(c) => std::slice::from_ref(c),
        };
        match values.iter().find(|c| !(c.is_finite() && **c > 0.0)) {
            Some(&bad) => Err(ConfigError::InvalidCapacity(bad)),
            None => Ok(()),
        }
    }
}

/// One class of a heterogeneous slot distribution: nodes of this class own `slots` execution
/// slots, and the class is drawn with probability proportional to `weight`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotClass {
    /// Execution slots per node of this class (≥ 1).
    pub slots: usize,
    /// Relative sampling weight (> 0; weights need not sum to 1).
    pub weight: f64,
}

/// How many execution slots each node owns.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotModel {
    /// Every node has the same slot count (paper: 1).
    Uniform(usize),
    /// Per-node slot counts sampled from a weighted class distribution, e.g. 80% single-core /
    /// 20% 16-core volunteer machines.  Sampling is deterministic per seed (its own `SimRng`
    /// stream), so heterogeneous runs are exactly reproducible.
    Weighted(Vec<SlotClass>),
}

impl SlotModel {
    /// Sample the slot count of one node.  `Uniform` never consumes randomness, so enabling
    /// the seam costs single-slot runs nothing — they stay byte-identical to the paper model.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        match self {
            SlotModel::Uniform(s) => *s,
            SlotModel::Weighted(classes) => {
                let total: f64 = classes.iter().map(|c| c.weight).sum();
                let mut x = rng.gen_f64() * total;
                for c in classes {
                    x -= c.weight;
                    if x < 0.0 {
                        return c.slots;
                    }
                }
                classes.last().expect("non-empty class set").slots
            }
        }
    }

    /// Check the model for zero slot counts, empty class sets or degenerate weights.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            SlotModel::Uniform(s) => {
                if *s < 1 {
                    return Err(ConfigError::ZeroSlots);
                }
            }
            SlotModel::Weighted(classes) => {
                if classes.is_empty() {
                    return Err(ConfigError::EmptySlotClasses);
                }
                for c in classes {
                    if c.slots < 1 {
                        return Err(ConfigError::ZeroSlots);
                    }
                    if !(c.weight > 0.0 && c.weight.is_finite()) {
                        return Err(ConfigError::InvalidSlotWeight(c.weight));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Whether a resource node's slots are preemptible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptionPolicy {
    /// The paper's model: a task that starts executing holds its slot until it finishes.
    NonPreemptive,
    /// Time-sliced execution: when a task becomes ready whose scheduler key is strictly
    /// smaller (higher priority) than that of the lowest-priority running task and no slot is
    /// free, the running task is displaced back into the ready heap carrying its *remaining*
    /// load, and resumes later without losing completed work.
    TimeSliced,
}

/// The execution substrate of one resource node — how many tasks it can run at once and
/// whether running tasks can be displaced.
///
/// The paper models every peer as a single, non-preemptive CPU; the default reproduces that
/// exactly.  Raising the slot count turns a peer into a multi-core node: it advertises its
/// *aggregate* throughput (`capacity × slots`) plus its slot count through the gossip
/// substrate, and executes up to `slots` data-complete ready tasks concurrently while each
/// individual task runs on one slot at the per-slot speed (`capacity / slots` of the
/// advertised aggregate).  See `examples/multicore_grid.rs` (uniform sweep) and
/// `examples/heterogeneous_grid.rs` (weighted distributions + preemption).
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceModel {
    /// Per-node slot counts (paper default: uniform 1).
    pub slots: SlotModel,
    /// Preemption policy of the execution slots (paper default: non-preemptive).
    pub preemption: PreemptionPolicy,
}

impl Default for ResourceModel {
    fn default() -> Self {
        ResourceModel {
            slots: SlotModel::Uniform(1),
            preemption: PreemptionPolicy::NonPreemptive,
        }
    }
}

impl ResourceModel {
    /// The paper's model: one single, non-preemptive CPU per node.
    pub fn single_cpu() -> Self {
        ResourceModel::default()
    }

    /// A symmetric multi-core node with `slots` execution slots.
    pub fn multi_core(slots: usize) -> Self {
        ResourceModel {
            slots: SlotModel::Uniform(slots),
            ..ResourceModel::default()
        }
    }

    /// A heterogeneous population drawn from `(slots, weight)` classes.
    pub fn heterogeneous(classes: Vec<SlotClass>) -> Self {
        ResourceModel {
            slots: SlotModel::Weighted(classes),
            ..ResourceModel::default()
        }
    }

    /// Enable the time-sliced preemptive policy on this substrate.
    pub fn preemptive(mut self) -> Self {
        self.preemption = PreemptionPolicy::TimeSliced;
        self
    }

    /// True when running tasks may be displaced by higher-priority arrivals.
    pub fn is_preemptive(&self) -> bool {
        self.preemption == PreemptionPolicy::TimeSliced
    }

    /// Check the substrate's slot model.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.slots.validate()
    }
}

/// Fraction of nodes that are stable under churn and stochastic faults: the paper's 500 of
/// 1 000.  Nodes `0..stable` never fail and host every workflow, so the churn sweep's `df = 0`
/// baseline submits from the same home nodes as its churned points.
pub const STABLE_FRACTION: f64 = 0.5;

/// The churn model of §IV.B: the [`STABLE_FRACTION`] of the population is *stable* (hosts every
/// workflow and never departs); the rest may join/leave every scheduling interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// The dynamic factor `df`: the ratio of churning (joined + the same number departed) nodes
    /// to the total population per scheduling interval.  Zero disables churn, but home nodes
    /// stay on the stable population.
    pub dynamic_factor: f64,
}

impl ChurnConfig {
    /// Churn with the given dynamic factor.
    pub fn with_dynamic_factor(df: f64) -> Self {
        ChurnConfig { dynamic_factor: df }
    }

    /// Validate the churn parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.dynamic_factor) {
            return Err(ConfigError::InvalidDynamicFactor(self.dynamic_factor));
        }
        Ok(())
    }
}

/// Stochastic per-node failures: every churnable node alternates between an exponentially
/// distributed uptime (mean [`mtbf`](StochasticFaults::mtbf)) and an exponentially distributed
/// repair time (mean [`mttr`](StochasticFaults::mttr)).  A failed node loses every queued and
/// running task it holds; what happens to those tasks is the [`RecoveryPolicy`]'s business.
/// The [`STABLE_FRACTION`] of the nodes never fails and hosts every workflow, so a failure
/// never takes a workflow's submission site down.
///
/// The whole failure schedule is pre-drawn from the dedicated [`StreamKind::Faults`] stream
/// (one sub-stream per node) when the scenario is built, so failures are ordinary node events
/// and reports stay byte-identical across pool widths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFaults {
    /// Mean time between failures of one node (exponential uptime; must be positive).
    pub mtbf: SimDuration,
    /// Mean time to repair of one node (exponential downtime; must be positive).
    pub mttr: SimDuration,
}

impl StochasticFaults {
    /// Independent per-node failures.
    pub fn new(mtbf: SimDuration, mttr: SimDuration) -> Self {
        StochasticFaults { mtbf, mttr }
    }

    /// Validate the failure parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (what, d) in [("mtbf", self.mtbf), ("mttr", self.mttr)] {
            if d.is_zero() {
                return Err(ConfigError::InvalidFault { what, value: 0.0 });
            }
        }
        Ok(())
    }
}

/// How nodes fail — the fault model of a [`GridConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultModel {
    /// No faults at all (the static experiments of Fig. 4–10): every node is a home node.
    #[default]
    Off,
    /// The paper's synchronized churn of §IV.B: a fixed fraction of the population is swapped
    /// (same number of departures and joins) every scheduling interval.
    Churn(ChurnConfig),
    /// Stochastic per-node lifetimes (exponential MTBF/MTTR).  The fault model the paper
    /// names as future work.
    Stochastic(StochasticFaults),
}

impl FaultModel {
    /// The churn parameters, when this is the churn model.
    pub fn churn(&self) -> Option<&ChurnConfig> {
        match self {
            FaultModel::Churn(c) => Some(c),
            _ => None,
        }
    }

    /// The stochastic-failure parameters, when this is the stochastic model.
    pub fn stochastic(&self) -> Option<&StochasticFaults> {
        match self {
            FaultModel::Stochastic(s) => Some(s),
            _ => None,
        }
    }

    /// Validate the fault-model parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            FaultModel::Off => Ok(()),
            FaultModel::Churn(c) => c.validate(),
            FaultModel::Stochastic(s) => s.validate(),
        }
    }
}

/// What happens to the tasks a failed (or churned-away) node was holding.
///
/// The policy only concerns tasks that were *running* when their node went down; tasks that
/// were merely queued on the node re-enter the schedule-point queue for free under every
/// policy (they cost nothing but the wasted placement).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryPolicy {
    /// The paper's behaviour: losing a running task fails its whole workflow.
    #[default]
    FailWorkflow,
    /// Re-schedule the lost task, up to `budget` losses per task.  Each loss delays the
    /// task's next dispatch by `backoff × attempt` (linear backoff; `SimDuration::ZERO`
    /// re-queues immediately).  Exceeding the budget fails the workflow.
    Retry {
        /// Maximum number of times one task may be lost before its workflow fails.
        budget: u32,
        /// Base backoff delay; attempt `k` waits `backoff × k` before re-dispatch.
        backoff: SimDuration,
    },
    /// Periodic checkpointing: a lost running task re-enters the queue with only the load
    /// since its last checkpoint remaining (the task checkpoints every `interval` of
    /// execution time on its node).
    Checkpoint {
        /// Execution time between checkpoints (must be positive).
        interval: SimDuration,
    },
    /// Speculative replication: dispatch `copies` replicas of every task to distinct nodes;
    /// the first completion wins and cancels the surviving twins.  A task is only lost when
    /// every replica is lost, and then it simply re-enters the queue.
    Replicate {
        /// Total number of copies per task (>= 2), placement permitting.
        copies: usize,
    },
}

impl RecoveryPolicy {
    /// The retry semantics of the old `reschedule_lost_tasks` boolean: re-queue lost tasks
    /// immediately, with an unlimited budget.
    pub fn unlimited_retry() -> Self {
        RecoveryPolicy::Retry {
            budget: u32::MAX,
            backoff: SimDuration::ZERO,
        }
    }

    /// Validate the policy parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            RecoveryPolicy::FailWorkflow | RecoveryPolicy::Retry { .. } => Ok(()),
            RecoveryPolicy::Checkpoint { interval } => {
                if interval.is_zero() {
                    Err(ConfigError::InvalidRecovery {
                        what: "checkpoint interval",
                        value: 0.0,
                    })
                } else {
                    Ok(())
                }
            }
            RecoveryPolicy::Replicate { copies } => {
                if *copies < 2 {
                    Err(ConfigError::InvalidRecovery {
                        what: "replicate copies (need >= 2)",
                        value: *copies as f64,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// The named RNG streams [`Scenario::build`](crate::scenario::Scenario::build) derives from
/// the master seed, in sampling order.
///
/// Every stochastic component of the world draws from its own stream, so perturbing one
/// (e.g. changing the workflow generator) never shifts the randomness of the others.  The
/// topology and landmark streams read [`GridConfig::network_seed`] when it is set — the pin
/// behind `Scenario::with_seed`, which re-seeds a world over the same network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Waxman topology generation (node placement + edge sampling).
    Topology,
    /// Landmark selection for the bandwidth estimator.
    Landmarks,
    /// Per-node capacity sampling.
    Capacity,
    /// Per-node slot-count sampling (heterogeneous resource models).
    Slots,
    /// Workflow DAG generation.
    Workflows,
    /// Gossip protocol initialisation and per-cycle peer selection.
    Gossip,
    /// Churn arrival/departure draws.
    Churn,
    /// Stochastic per-node failure/repair lifetimes.
    Faults,
}

impl StreamKind {
    /// The `SimRng::derive` label of this stream (the same labels `Scenario::build` uses).
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::Topology => "topology",
            StreamKind::Landmarks => "landmarks",
            StreamKind::Capacity => "capacity",
            StreamKind::Slots => "slots",
            StreamKind::Workflows => "workflows",
            StreamKind::Gossip => "gossip",
            StreamKind::Churn => "churn",
            StreamKind::Faults => "faults",
        }
    }
}

/// Where a scenario's workflows come from.
///
/// The default [`Synthetic`](WorkloadSource::Synthetic) source reproduces the paper: every
/// home node submits `workflows_per_node` randomly generated DAGs, sampled from the
/// [`StreamKind::Workflows`] RNG stream.  A [`Trace`](WorkloadSource::Trace) source replays a
/// serialized [`WorkloadSpec`] instead (e.g. a checked-in artifact from `workloads/`): each
/// entry names its DAG, its arrival time and its home-node policy, and `workflows_per_node`
/// is ignored.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// Randomly generated workflows (the paper's Table I model).
    Synthetic(WorkflowGeneratorConfig),
    /// A deserialized trace workload replayed verbatim.
    Trace(WorkloadSpec),
}

impl Default for WorkloadSource {
    fn default() -> Self {
        WorkloadSource::Synthetic(WorkflowGeneratorConfig::default())
    }
}

impl WorkloadSource {
    /// The synthetic generator configuration, if this source is synthetic.
    pub fn generator(&self) -> Option<&WorkflowGeneratorConfig> {
        match self {
            WorkloadSource::Synthetic(g) => Some(g),
            WorkloadSource::Trace(_) => None,
        }
    }

    /// Mutable access to the synthetic generator configuration.
    ///
    /// Panics on a [`Trace`](WorkloadSource::Trace) source — this is the convenience used by
    /// tests and examples that tweak generator ranges on the (synthetic) default config.
    pub fn generator_mut(&mut self) -> &mut WorkflowGeneratorConfig {
        match self {
            WorkloadSource::Synthetic(g) => g,
            WorkloadSource::Trace(_) => {
                panic!("generator_mut() called on a trace workload source")
            }
        }
    }
}

/// When synthetic workflows arrive at their home nodes.
///
/// [`Poisson`](ArrivalProcess::Poisson) draws its arrival times from the tail of the
/// [`StreamKind::Workflows`] stream (after the DAGs themselves), so enabling it never perturbs
/// topology, capacities or gossip.  The default [`Batch`](ArrivalProcess::Batch) draws nothing
/// at all — the default configuration samples byte-identically to the pre-arrival engine.
/// Arrival times may exceed the horizon; such workflows never enter the system and are not
/// counted as submitted.
///
/// Trace workloads ([`WorkloadSource::Trace`]) carry explicit per-entry arrival times; for
/// them `Poisson` *overrides* those times (same DAGs, resampled arrivals).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum ArrivalProcess {
    /// Every workflow is submitted at its workload-defined time (time zero for synthetic
    /// workloads — the paper's model).  Samples no randomness.
    #[default]
    Batch,
    /// A homogeneous Poisson process: independent exponential inter-arrival times.
    Poisson {
        /// Mean arrivals per simulated hour (> 0).
        rate_per_hour: f64,
    },
}

impl ArrivalProcess {
    /// Check the rate parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self {
            ArrivalProcess::Batch => Ok(()),
            &ArrivalProcess::Poisson { rate_per_hour } => {
                if rate_per_hour.is_finite() && rate_per_hour > 0.0 {
                    Ok(())
                } else {
                    Err(ConfigError::InvalidArrival {
                        what: "rate_per_hour",
                        value: rate_per_hour,
                    })
                }
            }
        }
    }

    /// True when this process never moves an arrival away from its workload-defined time
    /// (and consumes no randomness).
    pub fn is_batch(&self) -> bool {
        matches!(self, ArrivalProcess::Batch)
    }

    /// Sample `n` arrival times in submission order.
    ///
    /// `Batch` returns all zeros without touching `rng`; `Poisson` consumes draws from `rng`
    /// only (deterministic per stream seed).  Times are monotonically non-decreasing.
    pub(crate) fn sample_times(&self, n: usize, rng: &mut SimRng) -> Vec<SimTime> {
        let mut times = Vec::with_capacity(n);
        match self {
            ArrivalProcess::Batch => times.resize(n, SimTime::ZERO),
            ArrivalProcess::Poisson { rate_per_hour } => {
                let rate_per_sec = rate_per_hour / 3600.0;
                let mut t = 0.0f64;
                for _ in 0..n {
                    t += exponential(rng, rate_per_sec);
                    times.push(SimTime::from_secs_f64(t));
                }
            }
        }
        times
    }
}

/// One exponential inter-arrival draw with the given rate (events per second).
pub(crate) fn exponential(rng: &mut SimRng, rate_per_sec: f64) -> f64 {
    let u = (1.0 - rng.gen_f64()).max(f64::MIN_POSITIVE);
    -u.ln() / rate_per_sec
}

/// Full configuration of one grid-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Number of peer nodes (Table I: 200–2 000; the headline experiments use 1 000).
    pub nodes: usize,
    /// Workflows submitted per home node ("load factor" in Fig. 7/8; headline experiments: 3).
    pub workflows_per_node: usize,
    /// Node capacity model.
    pub capacity: CapacityModel,
    /// Per-node execution substrate (slot count; the paper's single CPU by default).
    pub resource: ResourceModel,
    /// Where workflows come from: the synthetic Table I generator (default) or a trace.
    pub workload: WorkloadSource,
    /// When synthetic workflows arrive (default: all at time zero, as in the paper).
    pub arrivals: ArrivalProcess,
    /// WAN topology parameters.
    pub waxman: WaxmanConfig,
    /// Mixed gossip protocol parameters.
    pub gossip: MixedGossipConfig,
    /// Scheduler activation period (paper: 15 minutes).
    pub scheduling_interval: SimDuration,
    /// Gossip cycle period (paper: 5 minutes).
    pub gossip_interval: SimDuration,
    /// Metrics sampling period (the figures sample hourly).
    pub metrics_interval: SimDuration,
    /// Total simulated time (paper: 36 hours).
    pub horizon: SimDuration,
    /// Fault model: off (default), the paper's synchronized churn, or stochastic lifetimes.
    pub faults: FaultModel,
    /// What happens to tasks lost to a failed or departed node.
    pub recovery: RecoveryPolicy,
    /// Master seed; every stochastic component derives its own stream from it.
    pub seed: u64,
    /// The seed of the topology and landmark streams when it differs from the master seed
    /// (default `None`: both derive from `seed`).  `Scenario::with_seed` sets it, so a
    /// re-seeded world keeps its network.
    pub network_seed: Option<u64>,
}

impl GridConfig {
    /// The paper's headline configuration (§IV.B, first experiment): 1 000 nodes, 3 workflows
    /// per node, loads of 100–10 000 MI, dependent data of 10–1 000 Mb (CCR ≈ 0.16), 36 hours.
    pub fn paper_default() -> Self {
        GridConfig {
            nodes: 1000,
            workflows_per_node: 3,
            capacity: CapacityModel::default(),
            resource: ResourceModel::default(),
            workload: WorkloadSource::Synthetic(WorkflowGeneratorConfig {
                data_mb: 10.0..=1000.0,
                ..WorkflowGeneratorConfig::default()
            }),
            arrivals: ArrivalProcess::Batch,
            waxman: WaxmanConfig::with_nodes(1000),
            gossip: MixedGossipConfig::default(),
            scheduling_interval: SimDuration::from_mins(15),
            gossip_interval: SimDuration::from_mins(5),
            metrics_interval: SimDuration::from_hours(1),
            horizon: SimDuration::from_hours(36),
            faults: FaultModel::Off,
            recovery: RecoveryPolicy::FailWorkflow,
            seed: 20100913, // ICPP 2010 started on 13 September 2010.
            network_seed: None,
        }
    }

    /// A scaled-down configuration for unit/integration tests and quick examples: same model,
    /// far fewer nodes and workflows, shorter horizon.
    pub fn small(nodes: usize) -> Self {
        GridConfig {
            nodes,
            workflows_per_node: 2,
            workload: WorkloadSource::Synthetic(WorkflowGeneratorConfig {
                tasks: 2..=12,
                data_mb: 10.0..=500.0,
                ..WorkflowGeneratorConfig::default()
            }),
            waxman: WaxmanConfig::with_nodes(nodes),
            horizon: SimDuration::from_hours(12),
            ..GridConfig::paper_default()
        }
    }

    /// Override the number of nodes, keeping the topology consistent.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self.waxman.nodes = nodes;
        self
    }

    /// Override the load factor (workflows per home node), as swept in Fig. 7/8.
    pub fn with_load_factor(mut self, workflows_per_node: usize) -> Self {
        self.workflows_per_node = workflows_per_node;
        self
    }

    /// Override the per-task load and per-edge data ranges, as swept in Fig. 9/10 (CCR).
    ///
    /// Only meaningful for the (default) synthetic workload source; panics on a trace.
    pub fn with_load_and_data(
        mut self,
        load_mi: std::ops::RangeInclusive<f64>,
        data_mb: std::ops::RangeInclusive<f64>,
    ) -> Self {
        let generator = self.workload.generator_mut();
        generator.load_mi = load_mi;
        generator.data_mb = data_mb;
        self
    }

    /// Replay a serialized trace workload instead of generating synthetic workflows.
    ///
    /// Each entry of the trace names its DAG, arrival time and home-node policy;
    /// `workflows_per_node` is ignored.  See [`WorkloadSource::Trace`].
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = WorkloadSource::Trace(workload);
        self
    }

    /// Override the arrival process (see [`ArrivalProcess`]; the default `Batch` reproduces
    /// the paper's submit-everything-at-time-zero model).
    pub fn with_arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Override the per-node slot count (the `ResourceModel` seam; 1 is the paper's model).
    pub fn with_slots_per_node(mut self, slots: usize) -> Self {
        self.resource = ResourceModel::multi_core(slots);
        self
    }

    /// Override the full resource model (heterogeneous slot distributions, preemption).
    pub fn with_resource(mut self, resource: ResourceModel) -> Self {
        self.resource = resource;
        self
    }

    /// Override the churn model, as swept in Fig. 12–14 (shorthand for
    /// `with_faults(FaultModel::Churn(churn))`).
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.faults = FaultModel::Churn(churn);
        self
    }

    /// Override the fault model (see [`FaultModel`]).
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Override the recovery policy (see [`RecoveryPolicy`]).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The churn parameters, when the fault model is [`FaultModel::Churn`].
    pub fn churn(&self) -> Option<&ChurnConfig> {
        self.faults.churn()
    }

    /// Override the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The effective seed of `kind`: [`GridConfig::network_seed`] for the topology and
    /// landmark streams when it is set, else the master seed.  `Scenario::build` seeds the
    /// stream as `SimRng::seed_from_u64(stream_seed(kind)).derive(kind.label())`, so two
    /// configs with equal effective seeds sample that stream byte-identically.
    pub fn stream_seed(&self, kind: StreamKind) -> u64 {
        match kind {
            StreamKind::Topology | StreamKind::Landmarks => self.network_seed.unwrap_or(self.seed),
            _ => self.seed,
        }
    }

    /// Check the whole configuration, reporting the first problem found.
    ///
    /// [`Scenario::build`](crate::scenario::Scenario::build) calls this before any sampling,
    /// so malformed sweep configurations fail with a [`ConfigError`] message instead of a
    /// panic mid-experiment.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes < 1 {
            return Err(ConfigError::NoNodes);
        }
        if self.waxman.nodes != self.nodes {
            return Err(ConfigError::TopologyMismatch {
                topology: self.waxman.nodes,
                nodes: self.nodes,
            });
        }
        self.faults.validate()?;
        self.recovery.validate()?;
        self.capacity.validate()?;
        self.resource.validate()?;
        if self.scheduling_interval.is_zero() {
            return Err(ConfigError::ZeroInterval("scheduling"));
        }
        if self.gossip_interval.is_zero() {
            return Err(ConfigError::ZeroInterval("gossip"));
        }
        if self.metrics_interval.is_zero() {
            return Err(ConfigError::ZeroInterval("metrics"));
        }
        let record_bits = crate::engine::gossip_trace::record_bits(self);
        if record_bits > u32::BITS {
            return Err(ConfigError::GossipRecordTooWide(record_bits));
        }
        match &self.workload {
            WorkloadSource::Synthetic(generator) => generator
                .validate()
                .map_err(|e| ConfigError::InvalidWorkload(e.to_string()))?,
            WorkloadSource::Trace(spec) => {
                // Full structural validation (cycles, unknown references, ...) happens when
                // the entries are resolved in `Scenario::build`; here we reject the cases
                // that are knowable without building the DAGs.
                if spec.entry_count() == 0 {
                    return Err(ConfigError::EmptyTrace);
                }
                for entry in &spec.entries {
                    if let p2pgrid_workflow::HomePolicy::Node(node) = entry.home {
                        if node >= self.nodes {
                            return Err(ConfigError::TraceHomeOutOfRange {
                                node,
                                nodes: self.nodes,
                            });
                        }
                    }
                }
            }
        }
        self.arrivals.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::error::ConfigError;

    #[test]
    fn paper_default_matches_table_i() {
        let cfg = GridConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.nodes, 1000);
        assert_eq!(cfg.workflows_per_node, 3);
        assert_eq!(cfg.scheduling_interval, SimDuration::from_mins(15));
        assert_eq!(cfg.gossip_interval, SimDuration::from_mins(5));
        assert_eq!(cfg.horizon, SimDuration::from_hours(36));
        assert_eq!(
            cfg.capacity,
            CapacityModel::Choices(vec![1.0, 2.0, 4.0, 8.0, 16.0])
        );
        let generator = cfg
            .workload
            .generator()
            .expect("paper default is synthetic");
        assert_eq!(*generator.tasks.start(), 2);
        assert_eq!(*generator.tasks.end(), 30);
        assert!(cfg.arrivals.is_batch());
    }

    #[test]
    fn capacity_models_sample_within_their_support() {
        let mut rng = SimRng::seed_from_u64(1);
        let choices = CapacityModel::default();
        for _ in 0..100 {
            let c = choices.sample(&mut rng);
            assert!([1.0, 2.0, 4.0, 8.0, 16.0].contains(&c));
        }
        let uniform = CapacityModel::Uniform(3.5);
        assert_eq!(uniform.sample(&mut rng), 3.5);
    }

    #[test]
    fn builders_keep_the_config_consistent() {
        let cfg = GridConfig::small(50)
            .with_nodes(80)
            .with_load_factor(4)
            .with_load_and_data(10.0..=1000.0, 100.0..=10_000.0)
            .with_churn(ChurnConfig::with_dynamic_factor(0.2))
            .with_seed(7);
        cfg.validate().unwrap();
        assert_eq!(cfg.nodes, 80);
        assert_eq!(cfg.waxman.nodes, 80);
        assert_eq!(cfg.workflows_per_node, 4);
        assert_eq!(cfg.churn().unwrap().dynamic_factor, 0.2);
        assert_eq!(cfg.seed, 7);
        assert_eq!(*cfg.workload.generator().unwrap().data_mb.end(), 10_000.0);
    }

    #[test]
    fn churn_population_split_rules() {
        use crate::scenario::Scenario;
        // The static experiments use every node as a home node, while churn (even at df = 0,
        // so the churn sweep's points are comparable) and stochastic faults keep every home
        // on the stable half.
        let stochastic =
            StochasticFaults::new(SimDuration::from_hours(4), SimDuration::from_mins(30));
        let models = [
            (FaultModel::Off, 24),
            (FaultModel::Churn(ChurnConfig::with_dynamic_factor(0.0)), 12),
            (FaultModel::Churn(ChurnConfig::with_dynamic_factor(0.2)), 12),
            (FaultModel::Stochastic(stochastic), 12),
        ];
        for (model, workflows) in models {
            let scenario = Scenario::build(GridConfig::small(12).with_faults(model)).unwrap();
            assert_eq!(scenario.workflow_count(), workflows, "{model:?}");
        }
    }

    #[test]
    fn fault_model_validation_rejects_bad_parameters() {
        let zero_mtbf =
            StochasticFaults::new(SimDuration::ZERO, SimDuration::from_mins(30)).validate();
        assert_eq!(
            zero_mtbf,
            Err(ConfigError::InvalidFault {
                what: "mtbf",
                value: 0.0
            })
        );
        let zero_mttr =
            StochasticFaults::new(SimDuration::from_hours(4), SimDuration::ZERO).validate();
        assert!(matches!(
            zero_mttr,
            Err(ConfigError::InvalidFault { what: "mttr", .. })
        ));
        // The config surfaces the same errors end to end.
        let cfg = GridConfig::small(8).with_faults(FaultModel::Stochastic(StochasticFaults::new(
            SimDuration::ZERO,
            SimDuration::from_mins(30),
        )));
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidFault { .. })
        ));
    }

    #[test]
    fn recovery_policy_validation_rejects_bad_parameters() {
        RecoveryPolicy::FailWorkflow.validate().unwrap();
        RecoveryPolicy::unlimited_retry().validate().unwrap();
        RecoveryPolicy::Checkpoint {
            interval: SimDuration::from_mins(10),
        }
        .validate()
        .unwrap();
        RecoveryPolicy::Replicate { copies: 2 }.validate().unwrap();
        assert_eq!(
            RecoveryPolicy::Checkpoint {
                interval: SimDuration::ZERO
            }
            .validate(),
            Err(ConfigError::InvalidRecovery {
                what: "checkpoint interval",
                value: 0.0
            })
        );
        assert!(matches!(
            RecoveryPolicy::Replicate { copies: 1 }.validate(),
            Err(ConfigError::InvalidRecovery { .. })
        ));
        assert!(matches!(
            GridConfig::small(8)
                .with_recovery(RecoveryPolicy::Replicate { copies: 0 })
                .validate(),
            Err(ConfigError::InvalidRecovery { .. })
        ));
        // Defaults reproduce the paper.
        assert_eq!(GridConfig::paper_default().faults, FaultModel::Off);
        assert_eq!(
            GridConfig::paper_default().recovery,
            RecoveryPolicy::FailWorkflow
        );
    }

    #[test]
    fn churn_baseline_restricts_home_nodes_like_the_churned_points() {
        use crate::algorithm::Algorithm;
        use crate::scenario::Scenario;
        let mut cfg = GridConfig::small(12).with_seed(3);
        cfg.workflows_per_node = 1;
        cfg.workload.generator_mut().tasks = 2..=4;
        cfg.horizon = p2pgrid_sim::SimDuration::from_hours(6);
        let all_homes = Scenario::build(cfg.clone())
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run();
        assert_eq!(all_homes.submitted, 12);
        let stable_homes = Scenario::build(cfg.with_churn(ChurnConfig::with_dynamic_factor(0.0)))
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run();
        assert_eq!(stable_homes.submitted, 6);
    }

    #[test]
    fn resource_model_defaults_to_the_papers_single_cpu() {
        assert_eq!(ResourceModel::default().slots, SlotModel::Uniform(1));
        assert!(!ResourceModel::default().is_preemptive());
        assert_eq!(ResourceModel::single_cpu(), ResourceModel::default());
        assert_eq!(
            GridConfig::paper_default().resource.slots,
            SlotModel::Uniform(1)
        );
        let cfg = GridConfig::small(8).with_slots_per_node(4);
        cfg.validate().unwrap();
        assert_eq!(cfg.resource, ResourceModel::multi_core(4));
    }

    #[test]
    fn zero_slots_per_node_is_rejected() {
        assert_eq!(
            GridConfig::small(8).with_slots_per_node(0).validate(),
            Err(ConfigError::ZeroSlots)
        );
    }

    #[test]
    fn slot_models_sample_within_their_support() {
        // Uniform never consumes randomness: two generators stay in lock-step.
        let mut a = SimRng::seed_from_u64(5);
        let b = SimRng::seed_from_u64(5);
        assert_eq!(SlotModel::Uniform(3).sample(&mut a), 3);
        assert_eq!(a.clone().gen_u64(), b.clone().gen_u64());

        let classes = vec![
            SlotClass {
                slots: 1,
                weight: 0.8,
            },
            SlotClass {
                slots: 16,
                weight: 0.2,
            },
        ];
        let model = SlotModel::Weighted(classes);
        model.validate().unwrap();
        let mut rng = SimRng::seed_from_u64(9);
        let mut seen_single = 0usize;
        let mut seen_multi = 0usize;
        for _ in 0..500 {
            match model.sample(&mut rng) {
                1 => seen_single += 1,
                16 => seen_multi += 1,
                other => panic!("sampled slot count {other} outside the class set"),
            }
        }
        // 80/20 split: both classes must appear, the single-core one far more often.
        assert!(seen_multi > 0 && seen_single > 2 * seen_multi);
    }

    #[test]
    fn heterogeneous_preemptive_builders_compose() {
        let model = ResourceModel::heterogeneous(vec![
            SlotClass {
                slots: 1,
                weight: 4.0,
            },
            SlotClass {
                slots: 8,
                weight: 1.0,
            },
        ])
        .preemptive();
        assert!(model.is_preemptive());
        let cfg = GridConfig::small(8).with_resource(model.clone());
        cfg.validate().unwrap();
        assert_eq!(cfg.resource, model);
    }

    #[test]
    fn non_positive_slot_weight_is_rejected() {
        let err = SlotModel::Weighted(vec![SlotClass {
            slots: 2,
            weight: 0.0,
        }])
        .validate()
        .unwrap_err();
        assert_eq!(err, ConfigError::InvalidSlotWeight(0.0));
        assert!(err.to_string().contains("weights must be positive"));
    }

    #[test]
    fn empty_slot_class_set_is_rejected() {
        assert_eq!(
            SlotModel::Weighted(Vec::new()).validate(),
            Err(ConfigError::EmptySlotClasses)
        );
    }

    #[test]
    fn invalid_dynamic_factor_is_rejected() {
        let err = GridConfig::small(10)
            .with_churn(ChurnConfig::with_dynamic_factor(1.5))
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidDynamicFactor(1.5));
        assert!(err.to_string().contains("dynamic factor"));
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let mut cfg = GridConfig::small(10);
        cfg.waxman.nodes = 99;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TopologyMismatch {
                topology: 99,
                nodes: 10
            })
        );
    }

    #[test]
    fn empty_capacity_choice_set_is_rejected() {
        let mut cfg = GridConfig::small(10);
        cfg.capacity = CapacityModel::Choices(Vec::new());
        assert_eq!(cfg.validate(), Err(ConfigError::EmptyCapacitySet));
        cfg.capacity = CapacityModel::Uniform(-1.0);
        assert_eq!(cfg.validate(), Err(ConfigError::InvalidCapacity(-1.0)));
    }

    #[test]
    fn batch_arrivals_draw_nothing_and_return_zeros() {
        let mut rng = SimRng::seed_from_u64(11);
        let untouched = rng.clone();
        let times = ArrivalProcess::Batch.sample_times(5, &mut rng);
        assert_eq!(times, vec![SimTime::ZERO; 5]);
        // Batch consumed no randomness — the generator is still in lock-step with its clone.
        assert_eq!(rng.gen_u64(), untouched.clone().gen_u64());
    }

    #[test]
    fn stochastic_arrival_processes_are_monotone_and_deterministic() {
        let process = ArrivalProcess::Poisson {
            rate_per_hour: 60.0,
        };
        process.validate().unwrap();
        assert!(!process.is_batch());
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        let first = process.sample_times(64, &mut a);
        let second = process.sample_times(64, &mut b);
        assert_eq!(first, second, "same seed must give the same arrivals");
        assert_eq!(first.len(), 64);
        assert!(first.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        assert!(first[0] > SimTime::ZERO, "Poisson arrivals start after 0");
    }

    #[test]
    fn arrival_process_validation_rejects_bad_parameters() {
        for rate_per_hour in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let process = ArrivalProcess::Poisson { rate_per_hour };
            let err = process.validate().unwrap_err();
            assert!(
                matches!(err, ConfigError::InvalidArrival { .. }),
                "{process:?} should fail with InvalidArrival, got {err:?}"
            );
        }
    }

    #[test]
    fn synthetic_generator_ranges_are_validated_through_the_config() {
        let mut cfg = GridConfig::small(8);
        cfg.workload.generator_mut().tasks = 0..=5;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::InvalidWorkload(_)));
        assert!(err.to_string().contains("task count"));

        #[allow(clippy::reversed_empty_ranges)]
        {
            let mut cfg = GridConfig::small(8);
            cfg.workload.generator_mut().load_mi = 100.0..=10.0;
            assert!(matches!(
                cfg.validate().unwrap_err(),
                ConfigError::InvalidWorkload(_)
            ));
        }
    }

    #[test]
    fn trace_workloads_are_checked_for_homes_and_emptiness() {
        use p2pgrid_workflow::{shapes, HomePolicy, WorkflowSpec, WorkloadEntry, WorkloadSpec};
        let wf = shapes::diamond(100.0, 500.0, 10.0);
        let spec = WorkflowSpec::from_workflow("diamond", &wf).unwrap();

        let mut trace = WorkloadSpec {
            name: "t".into(),
            workflows: vec![spec],
            entries: Vec::new(),
        };
        let empty = GridConfig::small(8).with_workload(trace.clone());
        assert_eq!(empty.validate(), Err(ConfigError::EmptyTrace));

        trace.entries.push(WorkloadEntry {
            workflow: "diamond".into(),
            submit_at_ms: 0,
            home: HomePolicy::Node(99),
        });
        let out_of_range = GridConfig::small(8).with_workload(trace.clone());
        assert_eq!(
            out_of_range.validate(),
            Err(ConfigError::TraceHomeOutOfRange { node: 99, nodes: 8 })
        );

        trace.entries[0].home = HomePolicy::Auto;
        GridConfig::small(8)
            .with_workload(trace)
            .validate()
            .unwrap();
    }
}
