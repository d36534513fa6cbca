//! The immutable, reusable world of one experiment configuration.
//!
//! A [`Scenario`] is everything about a grid-simulation run that does **not** depend on the
//! scheduler under test: the Waxman topology and its all-pairs bottleneck bandwidths, the
//! landmark bandwidth estimates, every node's sampled capacity / slot count / churn role, the
//! generated workflow DAGs with their home-node assignment, and the stochastic failure
//! schedule.  All of it is pre-sampled deterministically from `GridConfig::seed` when
//! [`Scenario::build`] runs, so a session on a shared `Scenario` is byte-identical to a
//! session on a freshly built one.
//!
//! The mixed gossip protocol and the churn draws are scheduler-independent too, but they run
//! over the whole simulated horizon, so the build does not run them.  The first session
//! started on a world runs them once and keeps what every session reads — the gossip trace;
//! every later session on the world, concurrent ones included, reads the same trace.
//!
//! The value of the split is reuse: the expensive setup (the all-pairs bandwidth computation
//! is `O(n²·log n)`, workflow analysis walks every DAG, gossip runs every five simulated
//! minutes) happens **once**, and every [`Scenario::simulate`] session clones only the cheap
//! mutable runtime state.  `Scenario` itself is an [`Arc`] handle — `Clone` is pointer-sized
//! and the type is `Send + Sync`, so an eight-algorithm sweep can fan out across threads over
//! one shared world:
//!
//! ```
//! use p2pgrid_core::scenario::Scenario;
//! use p2pgrid_core::{Algorithm, GridConfig};
//!
//! let scenario = Scenario::build(GridConfig::small(16).with_seed(3)).unwrap();
//! let a = scenario.simulate_algorithm(Algorithm::Dsmf).run();
//! let b = scenario.simulate_algorithm(Algorithm::Dsmf).run();
//! assert_eq!(a.completed, b.completed); // sessions never perturb the scenario
//! ```
//!
//! A sweep derives its points from one world with [`Scenario::derive`], which builds an
//! edited config but shares every table whose build inputs the edit left unchanged — the
//! topology tables, the workflow set and the gossip trace — or with [`Scenario::with_seed`],
//! which re-seeds a world over the same network.
//!
//! Malformed configurations fail the build with a typed [`ConfigError`] instead of panicking
//! mid-experiment.

use crate::algorithm::{Algorithm, AlgorithmConfig};
use crate::config::{
    exponential, FaultModel, GridConfig, StreamKind, WorkloadSource, STABLE_FRACTION,
};
use crate::engine::gossip_trace::{GossipTrace, TraceCell, TraceInputs};
use crate::engine::node::{NodeRuntime, ReadySet};
use crate::engine::transfer::TransferModel;
use crate::engine::workflow::WorkflowRuntime;
use crate::engine::Simulation;
use crate::error::ConfigError;
use crate::NodeId;
use p2pgrid_sim::{SimDuration, SimRng, SimTime};
use p2pgrid_topology::{LandmarkEstimator, PairwiseMetrics, WaxmanGenerator};
use p2pgrid_workflow::{
    rest_path_makespans, ExpectedCosts, HomePolicy, Workflow, WorkflowGenerator,
};
use std::fmt;
use std::sync::Arc;

/// The pre-sampled world shared by every session of one configuration.  Scheduler-independent
/// and immutable after [`Scenario::build`]; sessions clone the mutable parts and share the
/// read-only parts through the inner [`Arc`]s.
pub(crate) struct ScenarioWorld {
    pub(crate) config: GridConfig,
    /// Ground-truth transfer timing over the generated topology (read-only during runs).
    pub(crate) transfer: Arc<TransferModel>,
    /// Landmark-based bandwidth estimates.  The first estimate any session asks for builds
    /// their `n × n` table once, for every world sharing this `Arc`.
    pub(crate) landmarks: Arc<LandmarkEstimator>,
    /// Per-node mean bandwidth to the landmark set — a pure function of the topology tables,
    /// shared (and skipped) by derived worlds that share them.
    pub(crate) local_bw: Arc<Vec<f64>>,
    /// Pristine per-node runtime state: capacity, slots, churn role, empty queues.
    pub(crate) nodes: Vec<NodeRuntime>,
    /// Pristine per-workflow runtime state (no full-ahead plans; those are per-scheduler).
    pub(crate) workflows: Arc<Vec<WorkflowRuntime>>,
    /// Workflow indices submitted at each home node.
    pub(crate) home_of: Arc<Vec<Vec<usize>>>,
    /// True system-wide averages, the efficiency baseline `eft(f)` and full-ahead input.
    pub(crate) true_costs: ExpectedCosts,
    /// The gossip protocol run over the whole horizon, built by the first session that
    /// starts on this world (see [`GossipTrace`]).  Shared with every world derived from this
    /// one whose trace inputs are equal.
    pub(crate) gossip_trace: Arc<TraceCell>,
    /// The pre-drawn stochastic failure schedule: `(node, time, down)` transitions, node-major
    /// and time-ascending per node, clipped to the horizon.  Empty unless the fault model is
    /// [`FaultModel::Stochastic`].  Pre-drawing the whole schedule at build time (one RNG
    /// sub-stream per node) keeps sessions free of failure randomness: each session queues
    /// the schedule's events when it starts.
    pub(crate) faults: Vec<(NodeId, SimTime, bool)>,
}

/// Number of stable (never-failing, home-eligible) nodes under `config`: every node without
/// faults, else the [`STABLE_FRACTION`].
fn stable_count(config: &GridConfig) -> usize {
    let n = config.nodes;
    if config.faults == FaultModel::Off {
        n
    } else {
        ((n as f64) * STABLE_FRACTION).round().max(1.0) as usize
    }
}

/// Pre-draw the whole stochastic failure schedule (see [`ScenarioWorld::faults`]).
///
/// Every churnable node draws alternating exponential uptime/downtime intervals from its own
/// sub-stream of the [`StreamKind::Faults`] stream, so its down-intervals come in ascending
/// order.  A down-interval that starts exactly at the previous repair (a zero uptime draw)
/// joins it, so a node never emits two consecutive failures without a repair in between.
fn sample_fault_schedule(config: &GridConfig, stable: usize) -> Vec<(NodeId, SimTime, bool)> {
    let Some(faults) = config.faults.stochastic() else {
        return Vec::new();
    };
    let n = config.nodes;
    let horizon = config.horizon.as_secs_f64();
    let fail_rate = 1.0 / faults.mtbf.as_secs_f64();
    let repair_rate = 1.0 / faults.mttr.as_secs_f64();
    let root = stream_rng(config, StreamKind::Faults);

    let mut schedule = Vec::new();
    for node in stable..n {
        let mut rng = root.derive_indexed("node", node as u64);
        let mut merged: Vec<(f64, f64)> = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += exponential(&mut rng, fail_rate);
            if t >= horizon {
                break;
            }
            let down = exponential(&mut rng, repair_rate);
            match merged.last_mut() {
                Some(last) if t <= last.1 => last.1 = last.1.max(t + down),
                _ => merged.push((t, t + down)),
            }
            t += down;
        }
        for (start, end) in merged {
            schedule.push((node, SimTime::from_secs_f64(start), true));
            if end < horizon {
                schedule.push((node, SimTime::from_secs_f64(end), false));
            }
        }
    }
    schedule
}

/// True when `a` and `b` would generate bit-identical topology tables (topology, pairwise
/// metrics, landmarks): same node count, same Waxman parameters and the same effective seeds
/// for the topology and landmark streams.
fn topology_inputs_match(a: &GridConfig, b: &GridConfig) -> bool {
    a.nodes == b.nodes
        && a.waxman == b.waxman
        && a.stream_seed(StreamKind::Topology) == b.stream_seed(StreamKind::Topology)
        && a.stream_seed(StreamKind::Landmarks) == b.stream_seed(StreamKind::Landmarks)
}

/// True when `a` and `b` would generate bit-identical workflow runtimes *given that their
/// topology tables already match*: same workload source (generator parameters or trace) and
/// arrival process, same load factor and workflow stream, the same home-node set (stable
/// count), and the same capacity draw (the analysis baseline `eft(f)` folds the capacity
/// average in).
fn workflow_inputs_match(a: &GridConfig, b: &GridConfig) -> bool {
    a.workload == b.workload
        && a.arrivals == b.arrivals
        && a.workflows_per_node == b.workflows_per_node
        && a.stream_seed(StreamKind::Workflows) == b.stream_seed(StreamKind::Workflows)
        && stable_count(a) == stable_count(b)
        && a.capacity == b.capacity
        && a.stream_seed(StreamKind::Capacity) == b.stream_seed(StreamKind::Capacity)
}

/// The RNG stream `kind` under `config`: effective seed → root → labelled stream, exactly
/// as `Scenario::build` has always derived it when no override is set.
pub(crate) fn stream_rng(config: &GridConfig, kind: StreamKind) -> SimRng {
    seeded_stream(kind, config.stream_seed(kind))
}

/// The RNG stream `kind` whose effective seed is `seed`.
pub(crate) fn seeded_stream(kind: StreamKind, seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed).derive(kind.label())
}

/// Per-node mean bandwidth to the landmark set (the node's "local average bandwidth" the
/// gossip substrate seeds resource advertisements with).  Pure function of the topology
/// tables, so derived worlds sharing those tables share this one too.
fn compute_local_bw(transfer: &TransferModel, landmarks: &LandmarkEstimator, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if n > 1 {
                let others: Vec<f64> = landmarks
                    .landmarks()
                    .iter()
                    .filter(|&&l| l != i)
                    .map(|&l| transfer.bandwidth_mbps(i, l))
                    .filter(|b| b.is_finite() && *b > 0.0)
                    .collect();
                if others.is_empty() {
                    transfer.average_bandwidth_mbps().max(1e-6)
                } else {
                    others.iter().sum::<f64>() / others.len() as f64
                }
            } else {
                1.0
            }
        })
        .collect()
}

/// A reusable, immutable, cheaply-cloneable world: build it once, run many schedulers on it.
///
/// See the [module docs](self) for the full story; [`Scenario::simulate`] (or the
/// [`Scenario::simulate_algorithm`] convenience) starts an independent [`Simulation`] session
/// on the shared world.
#[derive(Clone)]
pub struct Scenario {
    world: Arc<ScenarioWorld>,
}

impl Scenario {
    /// Validate `config` and pre-sample the whole world from its seed.
    ///
    /// This is the expensive step — topology generation, the all-pairs bottleneck-bandwidth
    /// computation, landmark selection, capacity/slot sampling and workflow generation — and
    /// the reason the type exists: do it once, then share the result across a sweep.
    pub fn build(config: GridConfig) -> Result<Scenario, ConfigError> {
        Scenario::build_with_reuse(config, None)
    }

    /// The shared implementation of [`Scenario::build`] and [`Scenario::derive`].
    ///
    /// When `reuse` is given, any world table whose generating inputs (stream seed + the
    /// config slice it samples from) are unchanged is shared by `Arc` instead of recomputed;
    /// everything else is re-sampled through exactly the code path a fresh build takes, so a
    /// derived scenario is byte-identical to `Scenario::build` of the same config.
    fn build_with_reuse(
        config: GridConfig,
        reuse: Option<&ScenarioWorld>,
    ) -> Result<Scenario, ConfigError> {
        config.validate()?;
        let n = config.nodes;

        // Topology and ground-truth network metrics — the dominant cost (the all-pairs
        // sweep), shared whenever the generating inputs are unchanged.
        let topology_shared = reuse.is_some_and(|old| topology_inputs_match(&old.config, &config));
        let (transfer, landmarks, local_bw) = match reuse.filter(|_| topology_shared) {
            Some(old) => (
                Arc::clone(&old.transfer),
                Arc::clone(&old.landmarks),
                Arc::clone(&old.local_bw),
            ),
            None => {
                let mut topo_rng = stream_rng(&config, StreamKind::Topology);
                let topology = WaxmanGenerator::new(config.waxman).generate(&mut topo_rng);
                let transfer = Arc::new(TransferModel::new(PairwiseMetrics::compute(&topology)));
                let mut landmark_rng = stream_rng(&config, StreamKind::Landmarks);
                let landmarks = Arc::new(LandmarkEstimator::build_default(
                    transfer.metrics(),
                    &mut landmark_rng,
                ));
                let local_bw = Arc::new(compute_local_bw(&transfer, &landmarks, n));
                (transfer, landmarks, local_bw)
            }
        };

        // Node capacities, slots and roles.  Slot counts draw from their own derived stream,
        // so enabling heterogeneous distributions never perturbs capacities, workflows or
        // gossip (and the uniform model draws nothing at all).  Always re-sampled — the loop
        // is O(n) and cheap next to everything above.
        let mut cap_rng = stream_rng(&config, StreamKind::Capacity);
        let mut slot_rng = stream_rng(&config, StreamKind::Slots);
        let stable = stable_count(&config);
        let nodes: Vec<NodeRuntime> = (0..n)
            .map(|i| {
                let slots = config.resource.slots.sample(&mut slot_rng);
                NodeRuntime {
                    alive: true,
                    churnable: i >= stable,
                    capacity_mips: config.capacity.sample(&mut cap_rng),
                    slots,
                    epoch: 0,
                    ready: ReadySet::new(),
                    running: Vec::with_capacity(slots),
                    local_avg_bandwidth_mbps: local_bw[i],
                }
            })
            .collect();

        // True system-wide averages, used for the efficiency baseline eft(f).  Like the
        // aggregation gossip, the capacity average is over *per-slot* rates: eft models the
        // time one task takes on an average node, and one task only ever runs on one slot.
        let true_avg_capacity = nodes.iter().map(|nd| nd.capacity_mips).sum::<f64>() / n as f64;
        let true_avg_bandwidth = if n > 1 {
            transfer.average_bandwidth_mbps().max(1e-6)
        } else {
            1.0
        };
        let true_costs = ExpectedCosts::new(true_avg_capacity.max(1e-6), true_avg_bandwidth);

        // Workflows.  The synthetic source submits `workflows_per_node` per home node; under
        // churn only stable nodes are home nodes (the paper excludes home nodes from
        // churning).  A trace source replays its entries instead: each names its DAG, its
        // arrival time and its home policy (`Auto` round-robins over the home candidates).
        // Reused when the home set, the workload inputs and the analysis baseline are
        // unchanged.
        let workflows_shared =
            topology_shared && reuse.is_some_and(|old| workflow_inputs_match(&old.config, &config));
        let (workflows, home_of) = match reuse.filter(|_| workflows_shared) {
            Some(old) => (Arc::clone(&old.workflows), Arc::clone(&old.home_of)),
            None => {
                let mut wf_rng = stream_rng(&config, StreamKind::Workflows);
                let home_candidates: Vec<NodeId> =
                    (0..n).filter(|&i| !nodes[i].churnable).collect();

                // Collect (home, DAG, workload-defined arrival time) drafts first; analysis
                // and runtime construction are identical for both sources.
                let mut drafts: Vec<(NodeId, Workflow, SimTime)> = Vec::new();
                match &config.workload {
                    WorkloadSource::Synthetic(generator_config) => {
                        let generator = WorkflowGenerator::new(generator_config.clone());
                        for &home in &home_candidates {
                            for _ in 0..config.workflows_per_node {
                                let workflow = generator.generate(&mut wf_rng);
                                drafts.push((home, workflow, SimTime::ZERO));
                            }
                        }
                    }
                    WorkloadSource::Trace(spec) => {
                        let entries = spec
                            .resolve()
                            .map_err(|e| ConfigError::InvalidWorkload(e.to_string()))?;
                        let mut next_auto = 0usize;
                        for entry in entries {
                            let home = match entry.home {
                                HomePolicy::Auto => {
                                    let home = home_candidates[next_auto % home_candidates.len()];
                                    next_auto += 1;
                                    home
                                }
                                HomePolicy::Node(node) => {
                                    if node >= n {
                                        return Err(ConfigError::TraceHomeOutOfRange {
                                            node,
                                            nodes: n,
                                        });
                                    }
                                    if nodes[node].churnable {
                                        return Err(ConfigError::TraceHomeNotStable {
                                            node,
                                            stable,
                                        });
                                    }
                                    node
                                }
                            };
                            let when = SimTime::ZERO + SimDuration::from_millis(entry.submit_at_ms);
                            drafts.push((home, entry.workflow, when));
                        }
                    }
                }

                // Arrival times.  `Batch` keeps the workload-defined times (all zero for
                // synthetic workloads — the paper's model) and draws nothing, so the default
                // path samples byte-identically to the pre-arrival engine.  `Poisson`
                // samples from the *tail* of the workflow stream (after the DAGs) and
                // overrides the workload times — this is what lets a checked-in trace be
                // replayed under another arrival regime.
                if !config.arrivals.is_batch() {
                    let times = config.arrivals.sample_times(drafts.len(), &mut wf_rng);
                    for (draft, when) in drafts.iter_mut().zip(times) {
                        draft.2 = when;
                    }
                }

                let mut workflows = Vec::with_capacity(drafts.len());
                let mut home_of = vec![Vec::new(); n];
                for (home, workflow, submitted_at) in drafts {
                    // Eq. (1): the expected makespan is the entry task's rest path makespan.
                    let static_rpm = rest_path_makespans(&workflow, true_costs);
                    let eft_secs = static_rpm[workflow.entry().index()];
                    let wf = WorkflowRuntime {
                        home,
                        progress: p2pgrid_workflow::ProgressTracker::new(&workflow),
                        eft_secs,
                        task_location: vec![None; workflow.task_count()],
                        failed: false,
                        completed: false,
                        submitted_at,
                        arrived: submitted_at == SimTime::ZERO,
                        plan: None,
                        static_rpm,
                        workflow: Arc::new(workflow),
                    };
                    home_of[home].push(workflows.len());
                    workflows.push(wf);
                }
                (Arc::new(workflows), Arc::new(home_of))
            }
        };

        // The gossip trace is built lazily, by the first session; a world whose trace reads
        // the same inputs shares its cell.
        let faults = sample_fault_schedule(&config, stable);
        let trace_inputs = TraceInputs::new(&config, &nodes, &faults, &home_of);
        let gossip_trace = match reuse.filter(|old| old.gossip_trace.inputs == trace_inputs) {
            Some(old) => Arc::clone(&old.gossip_trace),
            None => Arc::new(TraceCell::new(trace_inputs)),
        };

        Ok(Scenario {
            world: Arc::new(ScenarioWorld {
                config,
                transfer,
                landmarks,
                local_bw,
                nodes,
                workflows,
                home_of,
                true_costs,
                gossip_trace,
                faults,
            }),
        })
    }

    /// Derive the world of `edit(config)`, where `config` is this world's configuration.
    ///
    /// The derived world is byte-identical to `Scenario::build` of the edited config, but it
    /// shares, by `Arc`, every table whose build inputs the edit left unchanged:
    ///
    /// - the topology, pairwise-metrics and landmark tables, while the node count, the
    ///   Waxman parameters and the topology and landmark streams stay the same;
    /// - the workflow set, while the workload, arrivals, load factor, home set, capacity
    ///   draw and workflow stream stay the same;
    /// - the gossip trace, built or not, while everything the protocol reads stays the
    ///   same: gossip config and stream, churn factor and stream, cadences, horizon, each
    ///   node's churn role and advertised resources, the fault schedule and the home set.
    ///
    /// Everything else is re-sampled through exactly the code path a fresh build takes.
    ///
    /// ```
    /// use p2pgrid_core::scenario::Scenario;
    /// use p2pgrid_core::GridConfig;
    ///
    /// let base = Scenario::build(GridConfig::small(16).with_seed(3)).unwrap();
    /// let heavier = base.derive(|c| c.with_load_factor(4)).unwrap();
    /// assert!(heavier.shares_topology_with(&base));
    /// // The protocol reads neither the load factor nor the DAGs: one trace serves both.
    /// assert!(heavier.shares_gossip_trace_with(&base));
    /// ```
    pub fn derive(
        &self,
        edit: impl FnOnce(GridConfig) -> GridConfig,
    ) -> Result<Scenario, ConfigError> {
        Scenario::build_with_reuse(edit(self.world.config.clone()), Some(&self.world))
    }

    /// Derive a world with a new master seed over the same network.
    ///
    /// [`GridConfig::network_seed`] is pinned to the current topology seed, so the derived
    /// config still describes the *same* network — the `Arc`'d topology, `PairwiseMetrics`
    /// and landmark tables are shared, not rebuilt — while the capacity, slot, workflow,
    /// gossip, churn and fault streams all re-sample from `seed` (so the derived world builds
    /// its own gossip trace).  A 1000-point seed sweep therefore pays for one all-pairs
    /// Dijkstra sweep total.  The result is byte-identical to `Scenario::build` of the
    /// equivalent config.
    pub fn with_seed(&self, seed: u64) -> Result<Scenario, ConfigError> {
        self.derive(|mut config| {
            config.network_seed = Some(config.stream_seed(StreamKind::Topology));
            config.with_seed(seed)
        })
    }

    /// True when both scenarios share the same topology tables (`Arc` identity, not value
    /// equality) — the derivation fast path actually fired.
    pub fn shares_topology_with(&self, other: &Scenario) -> bool {
        Arc::ptr_eq(&self.world.transfer, &other.world.transfer)
            && Arc::ptr_eq(&self.world.landmarks, &other.world.landmarks)
            && Arc::ptr_eq(&self.world.local_bw, &other.world.local_bw)
    }

    /// True when both scenarios share the same workflow set (`Arc` identity).
    pub fn shares_workflows_with(&self, other: &Scenario) -> bool {
        Arc::ptr_eq(&self.world.workflows, &other.world.workflows)
            && Arc::ptr_eq(&self.world.home_of, &other.world.home_of)
    }

    /// True when both scenarios read one gossip trace (`Arc` identity of the lazily filled
    /// cell): whichever of them starts a session first builds it for both.
    pub fn shares_gossip_trace_with(&self, other: &Scenario) -> bool {
        Arc::ptr_eq(&self.world.gossip_trace, &other.world.gossip_trace)
    }

    /// Heap bytes of this world's gossip trace, or `None` while no session has started on it
    /// (or on a world it shares the trace with).
    pub fn gossip_trace_bytes(&self) -> Option<usize> {
        self.world.gossip_trace.built().map(GossipTrace::heap_bytes)
    }

    pub(crate) fn world(&self) -> &ScenarioWorld {
        &self.world
    }

    /// The configuration this world was sampled from.
    pub fn config(&self) -> &GridConfig {
        &self.world.config
    }

    /// Number of peer nodes in the world.
    pub fn node_count(&self) -> usize {
        self.world.nodes.len()
    }

    /// Number of workflow instances in the workload (whether they arrive at time zero, as in
    /// the paper's batch model, or later under an arrival process / trace times).
    pub fn workflow_count(&self) -> usize {
        self.world.workflows.len()
    }

    /// The true system-wide expected costs (the `eft(f)` baseline of Eq. 1).
    pub fn expected_costs(&self) -> ExpectedCosts {
        self.world.true_costs
    }

    /// Start an independent [`Simulation`] session of an algorithm × second-phase pairing.
    /// The session clones the mutable runtime state; the scenario itself is never perturbed,
    /// so sessions can run concurrently.
    pub fn simulate<'obs>(&self, algo: AlgorithmConfig) -> Simulation<'obs> {
        Simulation::start(self, algo)
    }

    /// [`Scenario::simulate`] with an algorithm's paper-default phase pairing.
    pub fn simulate_algorithm<'obs>(&self, algorithm: Algorithm) -> Simulation<'obs> {
        self.simulate(AlgorithmConfig::paper_default(algorithm))
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("nodes", &self.node_count())
            .field("workflows", &self.workflow_count())
            .field("seed", &self.world.config.seed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CapacityModel, ChurnConfig};
    use p2pgrid_sim::SimDuration;

    #[test]
    fn scenarios_are_send_sync_and_cheap_to_clone() {
        fn assert_shareable<T: Send + Sync + Clone>() {}
        assert_shareable::<Scenario>();
        let scenario = Scenario::build(GridConfig::small(8).with_seed(1)).unwrap();
        let other = scenario.clone();
        assert!(Arc::ptr_eq(&scenario.world, &other.world));
        assert_eq!(scenario.node_count(), 8);
        assert_eq!(scenario.workflow_count(), 16);
    }

    #[test]
    fn build_rejects_malformed_configs_with_typed_errors() {
        let mut cfg = GridConfig::small(8);
        cfg.capacity = CapacityModel::Choices(Vec::new());
        assert_eq!(
            Scenario::build(cfg).unwrap_err(),
            ConfigError::EmptyCapacitySet
        );
        let bad_churn = GridConfig::small(8).with_churn(ChurnConfig::with_dynamic_factor(2.0));
        assert_eq!(
            Scenario::build(bad_churn).unwrap_err(),
            ConfigError::InvalidDynamicFactor(2.0)
        );
        let mut zero_interval = GridConfig::small(8);
        zero_interval.gossip_interval = SimDuration::from_secs(0);
        assert_eq!(
            Scenario::build(zero_interval).unwrap_err(),
            ConfigError::ZeroInterval("gossip")
        );
        // A gossip trace record must fit 32 bits.  100 nodes need 7; a staleness limit as
        // long as a 1 000 h horizon keeps records up to 12 000 five-minute cycles old (14),
        // and as many hops need 14 more.
        let mut wide = GridConfig::small(100);
        wide.horizon = SimDuration::from_hours(1000);
        wide.gossip.staleness_limit = wide.horizon;
        wide.gossip.ttl = u32::MAX;
        assert_eq!(
            Scenario::build(wide).unwrap_err(),
            ConfigError::GossipRecordTooWide(35)
        );
    }

    #[test]
    fn churn_splits_the_population_like_the_legacy_setup() {
        let churned = Scenario::build(
            GridConfig::small(20)
                .with_seed(5)
                .with_churn(ChurnConfig::with_dynamic_factor(0.2)),
        )
        .unwrap();
        // 50% stable nodes host 2 workflows each.
        assert_eq!(churned.workflow_count(), 20);
        let static_world = Scenario::build(GridConfig::small(20).with_seed(5)).unwrap();
        assert_eq!(static_world.workflow_count(), 40);
    }

    #[test]
    fn stochastic_fault_schedule_is_deterministic_and_well_formed() {
        use crate::config::StochasticFaults;
        let faults = FaultModel::Stochastic(StochasticFaults::new(
            SimDuration::from_hours(2),
            SimDuration::from_mins(20),
        ));
        let cfg = GridConfig::small(20).with_seed(7).with_faults(faults);
        let a = Scenario::build(cfg.clone()).unwrap();
        let b = Scenario::build(cfg.clone()).unwrap();
        assert_eq!(
            a.world().faults,
            b.world().faults,
            "same seed, same schedule"
        );
        assert!(
            !a.world().faults.is_empty(),
            "2h MTBF over 12h must fail someone"
        );
        // Homes are restricted to the stable half, like the churn model.
        assert_eq!(a.workflow_count(), 20);
        let horizon = SimTime::ZERO + cfg.horizon;
        let mut down = std::collections::HashSet::new();
        for &(node, time, failing) in &a.world().faults {
            assert!(node >= 10, "stable nodes never appear in the schedule");
            assert!(time <= horizon);
            // Transitions strictly alternate down/up per node.
            assert_eq!(
                down.contains(&node),
                !failing,
                "node {node} double-transition"
            );
            if failing {
                down.insert(node);
            } else {
                down.remove(&node);
            }
        }
        // Off and churn models draw no schedule at all.
        assert!(Scenario::build(GridConfig::small(8))
            .unwrap()
            .world()
            .faults
            .is_empty());
        let churned =
            Scenario::build(GridConfig::small(8).with_churn(ChurnConfig::with_dynamic_factor(0.2)))
                .unwrap();
        assert!(churned.world().faults.is_empty());
    }

    #[test]
    fn a_predrawn_failure_pops_before_a_completion_due_at_the_same_instant() {
        use crate::observer::{TraceEvent, TraceRecorder};
        // Homes on the stable half and no churn draws: a churnable node runs until a
        // pre-drawn event takes it down.
        let cfg = GridConfig::small(12)
            .with_seed(6)
            .with_churn(ChurnConfig::with_dynamic_factor(0.0));
        let base = Scenario::build(cfg).unwrap();
        let stable = stable_count(base.config());
        let mut trace = TraceRecorder::new();
        base.simulate_algorithm(Algorithm::Dsmf)
            .observe(&mut trace)
            .run();
        let (at, wf, task, node) = trace
            .events()
            .iter()
            .find_map(|&(at, event)| match event {
                TraceEvent::TaskFinished { wf, task, node } if node >= stable => {
                    Some((at, wf, task, node))
                }
                _ => None,
            })
            .expect("some task finishes on a churnable node");

        // The same world, with that node failing at that millisecond.
        let old = base.world();
        let faults = vec![(node, at, true)];
        let inputs = TraceInputs::new(&old.config, &old.nodes, &faults, &old.home_of);
        let failing = Scenario {
            world: Arc::new(ScenarioWorld {
                config: old.config.clone(),
                transfer: Arc::clone(&old.transfer),
                landmarks: Arc::clone(&old.landmarks),
                local_bw: Arc::clone(&old.local_bw),
                nodes: old.nodes.clone(),
                workflows: Arc::clone(&old.workflows),
                home_of: Arc::clone(&old.home_of),
                true_costs: old.true_costs,
                gossip_trace: Arc::new(TraceCell::new(inputs)),
                faults,
            }),
        };
        let mut trace = TraceRecorder::new();
        failing
            .simulate_algorithm(Algorithm::Dsmf)
            .observe(&mut trace)
            .run();
        let at_instant: Vec<TraceEvent> = trace
            .events()
            .iter()
            .filter(|&&(time, _)| time == at)
            .map(|&(_, event)| event)
            .collect();
        assert!(
            at_instant.contains(&TraceEvent::TaskLost { wf, task, node }),
            "{at_instant:?}"
        );
        assert!(
            !at_instant.contains(&TraceEvent::TaskFinished { wf, task, node }),
            "{at_instant:?}"
        );
    }

    #[test]
    fn recovery_derivation_shares_every_table() {
        use crate::config::RecoveryPolicy;
        let base = Scenario::build(GridConfig::small(12).with_seed(9)).unwrap();
        let derived = base
            .derive(|c| {
                c.with_recovery(RecoveryPolicy::Retry {
                    budget: 3,
                    backoff: SimDuration::from_mins(1),
                })
            })
            .unwrap();
        assert!(base.shares_topology_with(&derived));
        assert!(base.shares_workflows_with(&derived));
        assert!(base.shares_gossip_trace_with(&derived));
        assert_eq!(
            derived.config().recovery,
            RecoveryPolicy::Retry {
                budget: 3,
                backoff: SimDuration::from_mins(1)
            }
        );
    }
}
