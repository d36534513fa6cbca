//! The grid engine: one event loop driving one end-to-end P2P-grid simulation.
//!
//! One engine run reproduces the paper's experimental procedure:
//!
//! 1. A Waxman WAN topology is generated and its pairwise bottleneck bandwidths computed
//!    (the ground truth on which [`transfer::TransferModel`] times migrations).
//! 2. Every node receives a capacity from Table I's {1, 2, 4, 8, 16} MIPS set — and, through
//!    the [`ResourceModel`](crate::config::ResourceModel) seam, a number of execution slots —
//!    and the home nodes receive their workflows at time zero.
//! 3. The **mixed gossip protocol** runs every five minutes, giving every node a bounded `RSS`
//!    of peer states and estimates of the average capacity / bandwidth.  The protocol does not
//!    depend on the scheduler, so it runs once per world, in `gossip_trace.rs`, and every
//!    session reads that trace: at each gossip instant a session records every node's
//!    advertised load, and at each scheduling instant it rebuilds the home node's `RSS` from
//!    the trace's `(node, age)` pairs and those loads.
//! 4. The **first scheduling phase** runs every fifteen minutes on every home node: schedule
//!    points are prioritised and dispatched per the session's [`AlgorithmConfig`]
//!    (Algorithm 1 for DSMF), program images and dependent data start flowing to the chosen
//!    resource nodes.  The full-ahead baselines (HEFT, SMF) instead follow the plan they made
//!    when the session started.
//!    Each workflow's progress tracker keeps its schedule points, and the planner's list of a
//!    task's precedents also times the task's true transfers when it is dispatched.  The
//!    session keeps one set of first-phase buffers — the candidate tasks and their precedent
//!    lists, the RPM, the candidate view, the planner's workspace and its decisions — and
//!    refills it at every home node and instant, so once they have grown the first phase
//!    allocates nothing.
//! 5. The **second scheduling phase** runs on every resource node whenever an execution slot
//!    frees up: the data-complete ready task with the smallest scheduler
//!    [`ReadyKey`](crate::policy::second_phase::ReadyKey) is popped from the node's indexed
//!    [`node::ReadySet`] and executed for `load / capacity` seconds.
//! 6. Under the configured [`FaultModel`](crate::config::FaultModel), nodes fail: churn takes
//!    a `df` fraction of the churnable population down (and back up) every scheduling
//!    interval, drawn once per world with the gossip trace, while the stochastic model plays
//!    back per-node lifetimes pre-drawn at scenario build.  Tasks resident on a failed node
//!    are lost and handled by the configured [`RecoveryPolicy`] — fail the workflow (the
//!    paper's semantics), retry with budget and backoff, resume from a checkpoint, or fall
//!    back to a replica copy.
//! 7. Throughput, ACT and AE are sampled hourly, exactly like the paper's figures.
//!
//! Steps 1–2 (and every other seed-derived sample) live in
//! [`Scenario::build`](crate::scenario::Scenario::build) so a sweep pays for them once.  The
//! event loop is the [`Simulation`] session itself: it steps one instant at a time and owns
//! its registered [`Observer`](crate::observer)s, to which every externally meaningful
//! transition is mirrored as it happens.  [`node`] (the indexed ready set and slot runtime)
//! and [`transfer`] are exported for benches and tooling; everything else stays crate-private.
//!
//! # The event loop
//!
//! The engine keeps two queues, each popped in `(time, insertion)` order: one of node events
//! (data arrivals, task completions, workflow arrivals, stochastic failures and repairs) and
//! one of the grid-wide cadences (gossip, scheduling, metrics).  The node-event queue has two
//! parts: a heap holds the data arrivals and completions in flight, and a list sorted stably
//! by time holds the world's deferred arrivals and pre-drawn failures and repairs, listed once
//! when the session starts.  At an equal instant the list pops ahead of the heap, which is the
//! insertion order: every listed event was in the queue before anything was in flight.  So the
//! heap stays as small as the work in flight.  One step executes one virtual instant `t`:
//!
//! 1. every node event due at `t`, in queue order;
//! 2. the cadences due at `t`, in queue order — after t = 0 a scheduling instant's churn
//!    step and first phase run before its gossip cycle, which the gossip trace replays;
//! 3. the node events those cadences scheduled for `t` (zero-delay dispatches).
//!
//! So the cadences always see every node settled at `t`, and each cadence instant is exactly
//! one step.  Every effect applies where it happens: a completion updates workflow state, the
//! work ledger and the metrics, cancels the task's replica twins and fires its observer hooks
//! before the node refills its slots; a stochastic failure or repair runs the same departure
//! and join path as churn.

mod fxhash;
pub(crate) mod gossip_trace;
pub mod node;
pub mod transfer;
pub(crate) mod workflow;

use crate::algorithm::AlgorithmConfig;
use crate::config::{GridConfig, RecoveryPolicy};
use crate::estimate::{CandidateNode, FinishTimeEstimator};
use crate::fullahead::{plan_full_ahead, PlanInput};
use crate::observer::{GridSample, Observer};
use crate::policy::first_phase::{
    plan_dispatch_into, DispatchCandidateTask, DispatchDecision, PlanWorkspace,
};
use crate::policy::second_phase::{ready_key, ReadyTaskView};
use crate::report::SimulationReport;
use crate::scenario::Scenario;
use crate::NodeId;
use fxhash::FxHashMap;
use gossip_trace::GossipTrace;
use node::{LostRun, NodeRuntime, ReadyEntry};
use p2pgrid_metrics::{RobustnessStats, WorkflowMetrics, WorkflowOutcome, WorkflowRecord};
use p2pgrid_sim::{EventQueue, SimDuration, SimTime};
use p2pgrid_topology::LandmarkEstimator;
use p2pgrid_workflow::{rest_path_makespans_into, TaskId};
use std::sync::Arc;
use transfer::TransferModel;
use workflow::WorkflowRuntime;

/// Grid-wide cadence events, on the engine's cadence queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GridEvent {
    /// Record every node's advertised load for this instant's gossip cycle.
    GossipCycle,
    /// Run the churn step and the first scheduling phase on every home node.
    SchedulingCycle,
    /// Sample throughput / ACT / AE.
    MetricsSample,
}

impl GridEvent {
    /// The cadences as a session schedules them at t = 0.  Equal instants pop in queue
    /// order, so this order decides every later tie: after t = 0 each event was last
    /// scheduled one interval earlier, and with the paper's intervals a scheduling instant's
    /// churn step and first phase run before its gossip cycle.  The gossip trace replays the
    /// same queue.
    const AT_START: [GridEvent; 3] = [
        GridEvent::GossipCycle,
        GridEvent::MetricsSample,
        GridEvent::SchedulingCycle,
    ];

    /// The time between two instants of this cadence.
    fn interval(self, config: &GridConfig) -> SimDuration {
        match self {
            GridEvent::GossipCycle => config.gossip_interval,
            GridEvent::SchedulingCycle => config.scheduling_interval,
            GridEvent::MetricsSample => config.metrics_interval,
        }
    }
}

/// Events at one node: data arrivals and completions in flight on the engine's node-event
/// heap, workflow arrivals, failures and repairs on its pre-drawn list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeEvent {
    /// All input data of a dispatched task has arrived at its resource node.
    DataReady {
        node: NodeId,
        /// Churn epoch the dispatch belongs to.
        epoch: u64,
        wf: usize,
        task: TaskId,
    },
    /// A running task finished on its resource node.
    TaskCompleted {
        node: NodeId,
        /// Churn epoch the execution belongs to.
        epoch: u64,
        wf: usize,
        task: TaskId,
        /// Run generation the completion belongs to.  A preemption or a replica cancellation
        /// removes the run, turning its in-flight completion stale.
        run: u64,
    },
    /// A workflow with a nonzero submission time arrives at its home node.  Home nodes are
    /// always stable (never churn), so no epoch guard is needed.
    WorkflowArrival { wf: usize },
    /// The node fails: its pre-drawn stochastic lifetime expired.
    NodeFailure { node: NodeId },
    /// The node comes back after its pre-drawn repair time, empty.
    NodeRepair { node: NodeId },
}

/// The engine's node events: a heap of those in flight (data arrivals and task completions)
/// and the world's pre-drawn ones (deferred workflow arrivals, stochastic failures and
/// repairs), listed once at session start and sorted stably by time.  Together they pop in the
/// `(time, insertion)` order of one queue that was given the pre-drawn events first: at an
/// equal instant the list pops ahead of the heap.  The heap then holds only what is in flight,
/// not every pre-drawn event still to come.
struct NodeEvents<E> {
    in_flight: EventQueue<E>,
    predrawn: Vec<(SimTime, E)>,
    /// The pre-drawn events from this index on are still to come.
    next_predrawn: usize,
}

impl<E: Copy> NodeEvents<E> {
    fn new(mut predrawn: Vec<(SimTime, E)>) -> Self {
        predrawn.sort_by_key(|&(time, _)| time);
        NodeEvents {
            in_flight: EventQueue::new(),
            predrawn,
            next_predrawn: 0,
        }
    }

    fn schedule(&mut self, time: SimTime, event: E) {
        self.in_flight.schedule(time, event);
    }

    fn peek_time(&self) -> Option<SimTime> {
        let predrawn = self.predrawn.get(self.next_predrawn).map(|&(time, _)| time);
        match (predrawn, self.in_flight.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The next event due at or before `now`, if any.
    fn pop_due(&mut self, now: SimTime) -> Option<E> {
        let in_flight = self.in_flight.peek_time();
        if let Some(&(time, event)) = self.predrawn.get(self.next_predrawn) {
            if time <= now && in_flight.is_none_or(|t| time <= t) {
                self.next_predrawn += 1;
                return Some(event);
            }
        }
        if in_flight? <= now {
            self.in_flight.pop().map(|e| e.event)
        } else {
            None
        }
    }
}

/// The first phase's buffers, kept for the whole session and refilled at every home node and
/// scheduling instant, so once they have grown the first phase allocates nothing.
#[derive(Default)]
struct FirstPhaseBuffers {
    /// Candidate-task slots: a just-in-time plan fills the first `n` of them, a full-ahead
    /// dispatch the first, and each slot keeps its precedent list's allocation for the next.
    tasks: Vec<DispatchCandidateTask>,
    /// One workflow's rest path makespans under the home node's current averages.
    rpm: Vec<f64>,
    /// The home node's `RSS` as candidate resource nodes.
    candidates: Vec<CandidateNode>,
    /// The planner's own buffers.
    planner: PlanWorkspace,
    /// The plan: `(index into tasks, decision)` in dispatch order.
    planned: Vec<(usize, DispatchDecision)>,
    /// The further nodes a replicated task fans out to.
    twins: Vec<NodeId>,
    /// The full-ahead path's schedule points of one workflow.
    schedule_points: Vec<TaskId>,
}

impl FirstPhaseBuffers {
    /// Candidate-task slot `i`, added empty if the slots end before it.
    fn task_slot(&mut self, i: usize) -> &mut DispatchCandidateTask {
        if i == self.tasks.len() {
            self.tasks.push(DispatchCandidateTask {
                workflow: 0,
                task: TaskId(0),
                load_mi: 0.0,
                image_size_mb: 0.0,
                rpm_secs: 0.0,
                workflow_ms_secs: 0.0,
                predecessors: Vec::new(),
            });
        }
        &mut self.tasks[i]
    }
}

/// One in-flight simulation run, and the event loop that executes it: step it, observe it, or
/// drive it to the horizon.
///
/// Created by [`Scenario::simulate`] (or [`Scenario::simulate_algorithm`]) on a pre-built
/// world, a session owns every node's runtime, the node-event and cadence queues, and the
/// grid-wide state (workflows, metrics, the advertised-load ring the world's gossip trace is
/// read through).  [`Simulation::step`] executes one virtual instant — see the
/// [module docs](self) for the order within it — [`Simulation::run_until`] advances to a
/// virtual instant, and [`Simulation::run`] drives to the horizon.  Any number of
/// [`Observer`]s registered via [`Simulation::observe`] receive every externally meaningful
/// event, at the exact transition it describes.  `'obs` is the lifetime of the registered
/// observers — a session without observers is `Simulation<'static>`.
///
/// ```
/// use p2pgrid_core::scenario::Scenario;
/// use p2pgrid_core::{Algorithm, GridConfig};
/// use p2pgrid_sim::{SimDuration, SimTime};
///
/// let scenario = Scenario::build(GridConfig::small(12).with_seed(1)).unwrap();
/// let mut session = scenario.simulate_algorithm(Algorithm::Dsmf);
/// session.run_until(SimTime::ZERO + SimDuration::from_hours(2)); // peek mid-run...
/// println!("backlog after 2 h: {} tasks", session.sample().ready_tasks);
/// let report = session.run();                                    // ...then drive to the end
/// assert_eq!(report.submitted, 24);
/// ```
///
/// Observers only ever receive `&mut self` callbacks with copied event data — they cannot reach
/// the session's state — so a fully-stepped session, with or without observers, produces a
/// report byte-identical to an unobserved [`Simulation::run`] at the same seed.
pub struct Simulation<'obs> {
    config: GridConfig,
    algo: AlgorithmConfig,
    transfer: Arc<TransferModel>,
    landmarks: Arc<LandmarkEstimator>,
    /// The world's gossip trace: every home node's `RSS` at every scheduling instant.
    gossip: Arc<GossipTrace>,
    /// Every node's advertised load at each of the last `ring_len` gossip cycles: row
    /// `cycle % ring_len`, one column per node.  A traced record's load is its node's entry
    /// in the row of the record's cycle.
    advertised_loads: Vec<f64>,
    /// Gossip cycles run so far.
    gossip_cycles: u64,
    /// Scheduling instants handled so far.
    scheduling_instants: usize,
    nodes: Vec<NodeRuntime>,
    workflows: Vec<WorkflowRuntime>,
    home_of: Arc<Vec<Vec<usize>>>,
    metrics: WorkflowMetrics,
    events: NodeEvents<NodeEvent>,
    cadences: EventQueue<GridEvent>,
    /// The last executed instant.
    now: SimTime,
    horizon: SimTime,
    /// Dispatch counter: the FCFS `enqueued_seq` of every ready entry.
    next_seq: u64,
    /// Run-generation counter, unique per execution.
    next_run: u64,
    /// Tasks dispatched by the first phase, replica copies excluded.
    dispatched_tasks: u64,
    /// Task executions started.  Exceeds `dispatched_tasks` on preemptive substrates, where
    /// a displaced task starts again.
    executed_tasks: u64,
    /// Fault / recovery accounting.
    robustness: RobustnessStats,
    /// Per-workflow completed-work accumulator in MI; resolved into `useful_mi` when the
    /// workflow finishes and into `wasted_mi` when it fails.
    wf_completed_mi: Vec<f64>,
    /// Retry counters per lost running task (`RecoveryPolicy::Retry`).  Lookup-only — never
    /// iterated, so the hash order can never leak into results.
    attempts: FxHashMap<(usize, TaskId), u32>,
    /// Earliest re-dispatch instant per retried task (the retry backoff gate).  Lookup-only.
    retry_after: FxHashMap<(usize, TaskId), SimTime>,
    /// Residual load in MI of checkpointed tasks awaiting their resumed run.  Lookup-only.
    load_override: FxHashMap<(usize, TaskId), f64>,
    /// Nodes holding a live copy of each replicated in-flight task.  Lookup-only.
    replica_sites: FxHashMap<(usize, TaskId), Vec<NodeId>>,
    /// Loss instant of each task awaiting its recovery re-dispatch (for the recovery-latency
    /// metric).  Lookup-only.
    pending_recovery: FxHashMap<(usize, TaskId), SimTime>,
    /// The first phase's buffers, taken out while a scheduling instant runs.
    first_phase: FirstPhaseBuffers,
    /// The registered observers, in registration order.
    observers: Vec<&'obs mut dyn Observer>,
    /// True once the time-zero submissions were announced; no observer may register after.
    started: bool,
}

impl<'obs> Simulation<'obs> {
    /// Clone the scenario's mutable runtime state into a fresh session, run the full-ahead
    /// planning pass of HEFT and SMF (they plan centrally before execution), list the world's
    /// deferred workflow arrivals and stochastic faults in time order, and queue the cadences'
    /// first instants.
    pub(crate) fn start(scenario: &Scenario, algo: AlgorithmConfig) -> Self {
        let world = scenario.world();
        let mut workflows = (*world.workflows).clone();
        let horizon = SimTime::ZERO + world.config.horizon;
        // Workflows arriving at time zero (all of them under the paper's batch model) are
        // counted as submitted right away.  Later arrivals are counted when their
        // `WorkflowArrival` event fires; arrivals beyond the horizon never enter the system.
        let mut metrics = WorkflowMetrics::new(algo.label());
        for w in &workflows {
            if w.arrived {
                metrics.record_submission();
            }
        }

        if algo.algorithm.is_full_ahead() {
            let inputs: Vec<PlanInput<'_>> = workflows
                .iter()
                .map(|w| PlanInput {
                    home: w.home,
                    workflow: &w.workflow,
                })
                .collect();
            let candidates: Vec<CandidateNode> = world
                .nodes
                .iter()
                .enumerate()
                .map(|(i, nd)| CandidateNode {
                    node: i,
                    capacity_mips: nd.advertised_capacity_mips(),
                    slots: nd.slots,
                    total_load_mi: 0.0,
                })
                .collect();
            let transfer = &world.transfer;
            let bw = |a: NodeId, b: NodeId| transfer.bandwidth_mbps(a, b);
            let plans =
                plan_full_ahead(algo.algorithm, &inputs, &candidates, world.true_costs, &bw);
            for (w, plan) in workflows.iter_mut().zip(plans) {
                w.plan = Some(plan);
            }
        }

        // The first session on a world builds its gossip trace; the others wait for it.
        let gossip = Arc::clone(world.gossip_trace.get());

        // The deferred arrivals in workflow order, then the pre-drawn faults in the
        // schedule's node-major order (already clipped to the horizon at build); the stable
        // sort keeps those orders at equal instants.
        let arrivals = workflows
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.arrived && w.submitted_at <= horizon)
            .map(|(wf, w)| (w.submitted_at, NodeEvent::WorkflowArrival { wf }));
        let faults = world.faults.iter().map(|&(node, time, down)| {
            let event = if down {
                NodeEvent::NodeFailure { node }
            } else {
                NodeEvent::NodeRepair { node }
            };
            (time, event)
        });
        let events = NodeEvents::new(arrivals.chain(faults).collect());
        let mut cadences = EventQueue::new();
        for event in GridEvent::AT_START {
            cadences.schedule(SimTime::ZERO, event);
        }

        Simulation {
            config: world.config.clone(),
            algo,
            transfer: Arc::clone(&world.transfer),
            landmarks: Arc::clone(&world.landmarks),
            advertised_loads: vec![0.0; gossip.ring_len() * world.nodes.len()],
            gossip,
            gossip_cycles: 0,
            scheduling_instants: 0,
            nodes: world.nodes.clone(),
            workflows,
            home_of: Arc::clone(&world.home_of),
            metrics,
            events,
            cadences,
            now: SimTime::ZERO,
            horizon,
            next_seq: 0,
            next_run: 0,
            dispatched_tasks: 0,
            executed_tasks: 0,
            robustness: RobustnessStats::new(),
            wf_completed_mi: vec![0.0; world.workflows.len()],
            attempts: FxHashMap::default(),
            retry_after: FxHashMap::default(),
            load_override: FxHashMap::default(),
            replica_sites: FxHashMap::default(),
            pending_recovery: FxHashMap::default(),
            first_phase: FirstPhaseBuffers::default(),
            observers: Vec::new(),
            started: false,
        }
    }

    // ----- session surface -----------------------------------------------------------------

    /// Register an observer.  Must happen before the first step — observers registered later
    /// would silently miss events, so that is rejected with a panic.
    ///
    /// The observer is borrowed (`&mut`), not owned: its recorded data stays with the caller
    /// and remains available after [`Simulation::run`] consumes the session.
    #[must_use = "observe returns the session; chain it or rebind it"]
    pub fn observe(mut self, observer: &'obs mut dyn Observer) -> Self {
        assert!(
            !self.started,
            "observers must be registered before the first step"
        );
        self.observers.push(observer);
        self
    }

    /// Execute exactly one virtual instant — every event due at it, across every node, and
    /// the grid-wide cadences due at it — and return it, or `None` when the run is over
    /// (event queues drained, or every remaining event lies beyond the horizon).
    pub fn step(&mut self) -> Option<SimTime> {
        self.ensure_started();
        let now = self.peek_time()?;
        self.now = now;
        self.run_node_events(now);
        if self.cadences.peek_time() == Some(now) {
            self.run_cadences(now);
            self.run_node_events(now);
        }
        Some(now)
    }

    /// Execute every instant at or before `until` and return how many ran.  Events exactly
    /// at `until` are included, matching the horizon's inclusive semantics.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.ensure_started();
        let mut delivered = 0;
        while self.peek_time().is_some_and(|t| t <= until) {
            self.step();
            delivered += 1;
        }
        delivered
    }

    /// Drive the run to its horizon and return the report (the one-shot path, byte-identical
    /// to stepping it instant by instant).
    pub fn run(mut self) -> SimulationReport {
        while self.step().is_some() {}
        self.finish()
    }

    /// Close the session where it stands and return the report: take the final metrics
    /// sample and mirror it to the observers.  A session that already ran out of events
    /// reports at the horizon (exactly like [`Simulation::run`]); a session cut short reports
    /// at its current virtual time.
    pub fn finish(mut self) -> SimulationReport {
        self.ensure_started();
        let end_time = if self.peek_time().is_none() {
            self.horizon
        } else {
            self.now
        };
        let sample = self.sample();
        self.emit(|o| o.on_sample(end_time, &sample));
        self.metrics.sample(end_time);
        let (gossip_stats, avg_rss_size) = self.gossip.closing(self.gossip_cycles, end_time);
        SimulationReport {
            algorithm: self.algo.label(),
            gossip_stats,
            avg_rss_size,
            end_time,
            nodes: self.config.nodes,
            submitted: self.metrics.submitted(),
            completed: self.metrics.throughput(),
            failed: self.metrics.failed(),
            robustness: self.robustness,
            metrics: self.metrics,
        }
    }

    /// Current virtual time: the last executed instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The instant the next [`Simulation::step`] would execute, or `None` when the run is
    /// over (queues drained, or every remaining event lies beyond the horizon).
    pub fn peek_time(&self) -> Option<SimTime> {
        let next = match (self.events.peek_time(), self.cadences.peek_time()) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b)?,
        };
        (next <= self.horizon).then_some(next)
    }

    /// The run's horizon (virtual end time).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// A live aggregate snapshot of the grid — the same [`GridSample`] the metrics-cadence
    /// observer hook receives, computable at any point of a stepped run.  It is built from the
    /// per-node `O(1)` accessors over the alive population: `O(nodes)`, no heap walks.
    pub fn sample(&self) -> GridSample {
        let mut sample = GridSample {
            alive_nodes: 0,
            ready_tasks: 0,
            selectable_tasks: 0,
            running_tasks: 0,
            queued_load_mi: 0.0,
        };
        for nd in self.nodes.iter().filter(|nd| nd.alive) {
            sample.alive_nodes += 1;
            sample.ready_tasks += nd.ready.len();
            sample.selectable_tasks += nd.ready.selectable_len();
            sample.running_tasks += nd.running.len();
            sample.queued_load_mi += nd.ready.queued_load_mi();
        }
        sample
    }

    /// Label of the scheduler driving this session (e.g. `"DSMF"`).
    pub fn algorithm(&self) -> String {
        self.algo.label()
    }

    /// Announce the time-zero workflow submissions exactly once, before the first delivered
    /// event.  Workflows with later arrival times are announced when their `WorkflowArrival`
    /// event fires instead.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for wf in 0..self.workflows.len() {
            let w = &self.workflows[wf];
            if w.arrived {
                let home = w.home;
                self.emit(|o| o.on_workflow_submitted(SimTime::ZERO, wf, home));
            }
        }
    }

    /// Fire one hook on every registered observer, at the transition it describes.
    fn emit(&mut self, mut f: impl FnMut(&mut dyn Observer)) {
        for o in &mut self.observers {
            f(&mut **o);
        }
    }

    // ----- the instant ---------------------------------------------------------------------

    /// Pop and handle every node event due at `now`, including those the handlers schedule
    /// for `now` themselves (a zero-length execution's completion).
    fn run_node_events(&mut self, now: SimTime) {
        while let Some(event) = self.events.pop_due(now) {
            match event {
                NodeEvent::DataReady {
                    node,
                    epoch,
                    wf,
                    task,
                } => {
                    if self.nodes[node].accepts(epoch) {
                        self.nodes[node].ready.mark_data_ready(wf, task);
                        self.try_start_tasks(node, now);
                    }
                }
                NodeEvent::TaskCompleted {
                    node,
                    epoch,
                    wf,
                    task,
                    run,
                } => self.on_task_completed(node, epoch, wf, task, run, now),
                NodeEvent::WorkflowArrival { wf } => {
                    let w = &mut self.workflows[wf];
                    w.arrived = true;
                    let home = w.home;
                    self.metrics.record_submission();
                    self.emit(|o| o.on_workflow_submitted(now, wf, home));
                }
                NodeEvent::NodeFailure { node } => self.handle_departure(node, now),
                NodeEvent::NodeRepair { node } => self.handle_join(node, now),
            }
        }
    }

    /// Pop and handle every grid-wide cadence event due at `now`.
    fn run_cadences(&mut self, now: SimTime) {
        while self.cadences.peek_time() == Some(now) {
            let event = self.cadences.pop().expect("peeked event must pop").event;
            match event {
                GridEvent::GossipCycle => {
                    let cycle = self.gossip_cycles;
                    self.record_advertised_loads(now);
                    self.emit(|o| o.on_gossip_cycle(now, cycle));
                }
                GridEvent::SchedulingCycle => {
                    let instant = self.scheduling_instants;
                    self.scheduling_instants += 1;
                    self.churn_step(instant, now);
                    self.scheduling_phase_one(instant, now);
                }
                GridEvent::MetricsSample => {
                    self.metrics.sample(now);
                    let sample = self.sample();
                    self.emit(|o| o.on_sample(now, &sample));
                }
            }
            self.cadences
                .schedule(now + event.interval(&self.config), event);
        }
    }

    // ----- second phase --------------------------------------------------------------------

    /// A completion event fired: if it still belongs to a live run, free the slot, apply the
    /// completion and refill the node's slots.
    fn on_task_completed(
        &mut self,
        node: NodeId,
        epoch: u64,
        wf: usize,
        task: TaskId,
        run: u64,
        now: SimTime,
    ) {
        let rt = &mut self.nodes[node];
        if !rt.accepts(epoch) {
            return;
        }
        // The executed work (for the useful/wasted ledger) must be read before `complete()`
        // removes the running entry.
        let Some(load_mi) = rt
            .running
            .iter()
            .find(|r| r.wf == wf && r.task == task && r.run == run)
            .map(|r| r.view.exec_secs * rt.capacity_mips)
        else {
            return;
        };
        let completed = rt.complete(wf, task, run);
        debug_assert!(completed, "the entry located above must complete");
        self.emit(|o| o.on_task_finished(now, wf, task, node));
        self.apply_completion(wf, task, node, load_mi, now);
        self.try_start_tasks(node, now);
    }

    /// Book one finished run: record the executed work, advance workflow state (firing
    /// `on_workflow_completed` for the exit task), then cancel the task's replica twins — the
    /// first completion wins.
    fn apply_completion(
        &mut self,
        wf: usize,
        task: TaskId,
        node: NodeId,
        load_mi: f64,
        now: SimTime,
    ) {
        if !self.workflows[wf].is_active() {
            // The run finished after its workflow already failed: pure waste.
            self.robustness.wasted_mi += load_mi;
            return;
        }
        debug_assert!(
            self.workflows[wf].task_location[task.index()].is_none(),
            "the first completion cancels every twin, so a task completes once"
        );
        self.wf_completed_mi[wf] += load_mi;
        self.load_override.remove(&(wf, task));
        self.attempts.remove(&(wf, task));
        let w = &mut self.workflows[wf];
        if w.apply_completion(task, node) {
            w.completed = true;
            let record = WorkflowRecord {
                submitted_at: w.submitted_at,
                completed_at: now,
                expected_finish_secs: w.eft_secs,
                outcome: WorkflowOutcome::Completed,
            };
            self.metrics.record_completion(record);
            // Every task the workflow completed is retroactively useful work.
            self.robustness.useful_mi += self.wf_completed_mi[wf];
            self.wf_completed_mi[wf] = 0.0;
            self.emit(|o| o.on_workflow_completed(now, wf));
        }
        for site in self.replica_sites.remove(&(wf, task)).unwrap_or_default() {
            if site != node {
                self.cancel_replica(wf, task, site, now);
            }
        }
    }

    /// Occupy one slot of the node with `chosen` and schedule its completion.
    fn start_task(&mut self, node: NodeId, chosen: &ReadyEntry, now: SimTime) {
        let run = self.next_run;
        self.next_run += 1;
        let finish_at = self.nodes[node].start(chosen, now, run);
        self.executed_tasks += 1;
        self.emit(|o| o.on_task_started(now, chosen.wf, chosen.task, node));
        let event = NodeEvent::TaskCompleted {
            node,
            epoch: self.nodes[node].epoch,
            wf: chosen.wf,
            task: chosen.task,
            run,
        };
        self.events.schedule(finish_at, event);
    }

    /// Algorithm 2: while the node has free execution slots, pick the next data-complete ready
    /// task (smallest scheduler key) and run it.  Under the time-sliced preemptive substrate a
    /// remaining ready task that outranks the lowest-priority running task then displaces it —
    /// the victim re-enters the ready heap with its residual load and resumes later.
    fn try_start_tasks(&mut self, node: NodeId, now: SimTime) {
        if !self.nodes[node].alive {
            return;
        }
        while self.nodes[node].has_free_slot() {
            let Some(chosen) = self.nodes[node].ready.pop_next() else {
                break;
            };
            self.start_task(node, &chosen, now);
        }
        if !self.config.resource.is_preemptive() {
            return;
        }
        // Each round swaps a strictly higher-priority ready task into a slot, so the worst
        // running key strictly improves and the loop terminates.
        while let Some((key, _seq)) = self.nodes[node].ready.peek_next() {
            let Some(mut displaced) = self.nodes[node].preempt_lowest_priority(key, now) else {
                break;
            };
            let chosen = self.nodes[node]
                .ready
                .pop_next()
                .expect("peeked entry must still be queued");
            self.emit(|o| o.on_task_displaced(now, displaced.wf, displaced.task, node));
            // Re-key the displaced task against its updated view: rules keyed on exec time
            // now see the *remaining* time (shortest-remaining-time semantics), while
            // ms/rpm-based rules and FCFS recompute the same key as before.
            displaced.key = ready_key(self.algo.second_phase, &displaced.view);
            self.nodes[node].ready.insert(displaced);
            self.start_task(node, &chosen, now);
        }
    }

    // ----- helpers -------------------------------------------------------------------------

    /// Record every node's advertised load for the gossip cycle at `now` in its ring row.
    fn record_advertised_loads(&mut self, now: SimTime) {
        let n = self.nodes.len();
        let row = (self.gossip_cycles % self.gossip.ring_len() as u64) as usize * n;
        for (load, nd) in self.advertised_loads[row..row + n]
            .iter_mut()
            .zip(&self.nodes)
        {
            *load = nd.total_load_mi(now);
        }
        self.gossip_cycles += 1;
    }

    /// Home node `home`'s `RSS` at scheduling instant `instant`, restricted to currently alive
    /// nodes, as candidate resource nodes: capacity and slots from the node table, load as
    /// each node advertised it at its record's cycle.
    fn rss_candidates(
        &self,
        instant: usize,
        home: NodeId,
    ) -> impl Iterator<Item = CandidateNode> + use<'_, 'obs> {
        let n = self.nodes.len();
        let ring_len = self.gossip.ring_len();
        let latest = (self.gossip_cycles.saturating_sub(1) % ring_len as u64) as usize;
        self.gossip
            .rss(instant, home)
            .filter(|r| self.nodes[r.node].alive)
            .map(move |r| {
                let row = if r.age <= latest {
                    latest - r.age
                } else {
                    latest + ring_len - r.age
                };
                let nd = &self.nodes[r.node];
                CandidateNode {
                    node: r.node,
                    capacity_mips: nd.advertised_capacity_mips(),
                    slots: nd.slots,
                    total_load_mi: self.advertised_loads[row * n + r.node],
                }
            })
    }

    fn fail_workflow(&mut self, wf: usize, now: SimTime) {
        let w = &mut self.workflows[wf];
        if !w.is_active() {
            return;
        }
        w.failed = true;
        self.metrics.record_failure(WorkflowRecord {
            submitted_at: w.submitted_at,
            completed_at: now,
            expected_finish_secs: w.eft_secs,
            outcome: WorkflowOutcome::Failed,
        });
        // Every task the failed workflow had completed is now work the grid executed for
        // nothing.
        self.robustness.wasted_mi += self.wf_completed_mi[wf];
        self.wf_completed_mi[wf] = 0.0;
        self.emit(|o| o.on_workflow_failed(now, wf));
    }

    /// A node departs: a churn departure or a stochastic failure.  Every resident task goes
    /// through the configured [`RecoveryPolicy`] — with the paper-default `FailWorkflow`,
    /// waiting tasks requeue for free and running tasks take their workflow down, exactly the
    /// original churn semantics.
    fn handle_departure(&mut self, node: NodeId, now: SimTime) {
        if !self.nodes[node].alive {
            return;
        }
        let (waiting, running) = self.nodes[node].depart(now);
        self.robustness.node_failures += 1;
        for (wf, task) in waiting {
            self.emit(|o| o.on_task_lost(now, node, wf, task));
            // A waiting copy never executed: a zero-length run.
            let lost = LostRun {
                wf,
                task,
                total_secs: 0.0,
                executed_secs: 0.0,
            };
            self.recover_lost_task(lost, node, false, now);
        }
        for lost in running {
            self.emit(|o| o.on_task_lost(now, node, lost.wf, lost.task));
            self.recover_lost_task(lost, node, true, now);
        }
        self.emit(|o| o.on_node_departed(now, node));
    }

    /// A node joins (or is repaired): it comes back empty.
    fn handle_join(&mut self, node: NodeId, now: SimTime) {
        if !self.nodes[node].alive {
            self.nodes[node].join();
            self.robustness.node_repairs += 1;
            self.emit(|o| o.on_node_joined(now, node));
        }
    }

    /// Apply the churn departures, then the joins, the world's trace drew for scheduling
    /// instant `instant`.
    fn churn_step(&mut self, instant: usize, now: SimTime) {
        let trace = Arc::clone(&self.gossip);
        let (leaving, joining) = trace.churn(instant);
        for &node in leaving {
            self.handle_departure(node, now);
        }
        for &node in joining {
            self.handle_join(node, now);
        }
    }

    // ----- recovery ------------------------------------------------------------------------

    /// Apply the configured [`RecoveryPolicy`] to one task that was resident on failed node
    /// `node`: `lost` is its run there, zero-length for a copy that was still waiting.  A
    /// *waiting* copy never executed anything, so requeueing it is free under every policy —
    /// exactly the original churn engine's behavior; only *running* losses consume retry
    /// budget, cash in checkpoints, or fail the workflow.
    fn recover_lost_task(&mut self, lost: LostRun, node: NodeId, was_running: bool, now: SimTime) {
        let LostRun {
            wf,
            task,
            total_secs,
            executed_secs,
        } = lost;
        let rate_mips = self.nodes[node].capacity_mips;
        self.robustness.tasks_lost += 1;
        if !self.workflows[wf].is_active() {
            self.robustness.wasted_mi += executed_secs * rate_mips;
            return;
        }
        debug_assert!(
            self.workflows[wf].task_location[task.index()].is_none(),
            "a completion cancels every twin, so no copy of a finished task is left to lose"
        );
        if let RecoveryPolicy::Replicate { .. } = self.config.recovery {
            let alive_twins = match self.replica_sites.get_mut(&(wf, task)) {
                Some(sites) => {
                    sites.retain(|&n| n != node);
                    !sites.is_empty()
                }
                None => false,
            };
            self.robustness.wasted_mi += executed_secs * rate_mips;
            if alive_twins {
                return; // other copies are still in flight — nothing to reschedule
            }
            // Every copy is gone: requeue like a waiting loss (replication has no budget).
            self.replica_sites.remove(&(wf, task));
            self.requeue(wf, task, now);
            return;
        }
        if !was_running {
            self.requeue(wf, task, now);
            return;
        }
        match self.config.recovery {
            RecoveryPolicy::FailWorkflow => {
                self.robustness.wasted_mi += executed_secs * rate_mips;
                self.fail_workflow(wf, now);
            }
            RecoveryPolicy::Retry { budget, backoff } => {
                let counter = self.attempts.entry((wf, task)).or_insert(0);
                *counter += 1;
                let attempt = *counter;
                self.robustness.wasted_mi += executed_secs * rate_mips;
                if attempt > budget {
                    self.fail_workflow(wf, now);
                    return;
                }
                self.robustness.retries += 1;
                // Linear backoff: the n-th retry waits n backoff periods before it may be
                // re-dispatched.
                let delay = SimDuration::from_secs_f64(backoff.as_secs_f64() * attempt as f64);
                self.retry_after.insert((wf, task), now + delay);
                self.requeue(wf, task, now);
                self.emit(|o| o.on_task_retried(now, wf, task, attempt));
            }
            RecoveryPolicy::Checkpoint { interval } => {
                // Work up to the last checkpoint boundary survives; everything past it is
                // wasted, and the resumed run only has to execute the residual.
                let interval_secs = interval.as_secs_f64();
                let checkpointed_secs = (executed_secs / interval_secs).floor() * interval_secs;
                self.robustness.wasted_mi += (executed_secs - checkpointed_secs) * rate_mips;
                if checkpointed_secs > 0.0 {
                    let residual_mi = (total_secs - checkpointed_secs) * rate_mips;
                    self.load_override.insert((wf, task), residual_mi);
                }
                self.requeue(wf, task, now);
            }
            RecoveryPolicy::Replicate { .. } => unreachable!("handled above"),
        }
    }

    /// Turn a lost task back into a schedule point and start its recovery-latency clock.
    fn requeue(&mut self, wf: usize, task: TaskId, now: SimTime) {
        self.workflows[wf].progress.unmark_dispatched(task);
        self.pending_recovery.entry((wf, task)).or_insert(now);
    }

    /// True when the task may be dispatched at `now` (its retry backoff, if any, elapsed).
    fn dispatchable(&self, wf: usize, task: TaskId, now: SimTime) -> bool {
        self.retry_after
            .get(&(wf, task))
            .is_none_or(|&after| after <= now)
    }

    /// Cancel one still-in-flight replica copy after another copy completed first: drop a
    /// queued twin outright (it never executed, so nothing is wasted), or remove a running
    /// twin — booking its execution as wasted — and refill the freed slot at once.  An
    /// in-flight completion event of the cancelled run finds no matching running entry and
    /// goes stale, exactly like after a preemption.
    fn cancel_replica(&mut self, wf: usize, task: TaskId, site: NodeId, now: SimTime) {
        let rt = &mut self.nodes[site];
        if rt.ready.remove(wf, task).is_some() {
            return;
        }
        let Some(executed_secs) = rt.cancel_running(wf, task, now) else {
            return; // already gone (its node failed first)
        };
        self.robustness.wasted_mi += executed_secs * rt.capacity_mips;
        self.try_start_tasks(site, now);
    }

    // ----- first phase ---------------------------------------------------------------------

    fn scheduling_phase_one(&mut self, instant: usize, now: SimTime) {
        let mut buffers = std::mem::take(&mut self.first_phase);
        let full_ahead = self.algo.algorithm.is_full_ahead();
        // A dispatch changes no node's liveness, so each home is checked as the loop meets it.
        for home in 0..self.nodes.len() {
            if !self.nodes[home].alive || self.home_of[home].is_empty() {
                continue;
            }
            if full_ahead {
                self.dispatch_full_ahead(home, now, &mut buffers);
            } else {
                self.dispatch_just_in_time(home, instant, now, &mut buffers);
            }
        }
        self.first_phase = buffers;
    }

    /// Dispatch every current schedule point of a full-ahead plan to its pre-planned node
    /// (falling back to the home node if the planned node has churned away).
    fn dispatch_full_ahead(&mut self, home: NodeId, now: SimTime, buffers: &mut FirstPhaseBuffers) {
        let home_of = Arc::clone(&self.home_of);
        for &wf in &home_of[home] {
            let w = &self.workflows[wf];
            if !w.is_active() {
                continue;
            }
            buffers.schedule_points.clear();
            buffers.schedule_points.extend(w.progress.schedule_points());
            for i in 0..buffers.schedule_points.len() {
                let task = buffers.schedule_points[i];
                if !self.dispatchable(wf, task, now) {
                    continue;
                }
                let w = &self.workflows[wf];
                let planned = w.plan.as_ref().expect("full-ahead plan")[task.index()];
                let target = if self.nodes[planned].alive {
                    planned
                } else {
                    home
                };
                let t = w.workflow.task(task);
                let slot = buffers.task_slot(0);
                slot.workflow = wf;
                slot.task = task;
                // A checkpointed task only has its residual load left to execute.
                slot.load_mi = self
                    .load_override
                    .get(&(wf, task))
                    .copied()
                    .unwrap_or(t.load_mi);
                slot.image_size_mb = t.image_size_mb;
                slot.rpm_secs = w.static_rpm[task.index()];
                slot.workflow_ms_secs = w.eft_secs;
                slot.predecessors.clear();
                slot.predecessors.extend(w.predecessor_data(task));
                // Full-ahead plans place exactly one copy per task; `RecoveryPolicy::Replicate`
                // only fans out on the just-in-time path.
                self.dispatch_task(home, slot, target, 0.0, now, false);
            }
        }
    }

    /// Algorithm 1 (and its competitor orderings) at one home node, at scheduling instant
    /// `instant`.
    fn dispatch_just_in_time(
        &mut self,
        home: NodeId,
        instant: usize,
        now: SimTime,
        buffers: &mut FirstPhaseBuffers,
    ) {
        // The home node's estimates of the system-wide averages come from the aggregation
        // gossip; its candidate set comes from the epidemic gossip's RSS.
        let costs = self.gossip.expected_costs(instant, home);

        let mut n_tasks = 0;
        for &wf in &self.home_of[home] {
            let w = &self.workflows[wf];
            if !w.is_active() {
                continue;
            }
            if w.progress.schedule_points().next().is_none() {
                continue;
            }
            rest_path_makespans_into(&w.workflow, costs, &mut buffers.rpm);
            let rpm = &buffers.rpm;
            let ms = w
                .progress
                .schedule_points()
                .map(|t| rpm[t.index()])
                .fold(0.0f64, f64::max);
            for t in w.progress.schedule_points() {
                if !self.dispatchable(wf, t, now) {
                    continue; // still inside its retry backoff
                }
                let rpm_secs = buffers.rpm[t.index()];
                let slot = buffers.task_slot(n_tasks);
                n_tasks += 1;
                slot.workflow = wf;
                slot.task = t;
                // A checkpointed task only has its residual load left to execute.
                slot.load_mi = self
                    .load_override
                    .get(&(wf, t))
                    .copied()
                    .unwrap_or(w.workflow.task(t).load_mi);
                slot.image_size_mb = w.workflow.task(t).image_size_mb;
                slot.rpm_secs = rpm_secs;
                slot.workflow_ms_secs = ms;
                slot.predecessors.clear();
                slot.predecessors.extend(w.predecessor_data(t));
            }
        }
        if n_tasks == 0 {
            return;
        }
        let FirstPhaseBuffers {
            tasks,
            candidates,
            planner,
            planned,
            twins,
            ..
        } = buffers;
        let tasks = &tasks[..n_tasks];

        // Candidate resource nodes: the home node's RSS (always contains itself once gossip has
        // run; fall back to the home node before that), restricted to currently alive nodes.
        candidates.clear();
        candidates.extend(self.rss_candidates(instant, home));
        if candidates.is_empty() {
            candidates.push(CandidateNode {
                node: home,
                capacity_mips: self.nodes[home].advertised_capacity_mips(),
                slots: self.nodes[home].slots,
                total_load_mi: self.nodes[home].total_load_mi(now),
            });
        }

        let landmarks = &self.landmarks;
        let bw_estimate =
            move |a: NodeId, b: NodeId| -> f64 { landmarks.estimate_bandwidth_mbps(a, b) };
        let estimator = FinishTimeEstimator::new(home, &bw_estimate);
        plan_dispatch_into(
            self.algo.algorithm,
            tasks,
            candidates,
            &estimator,
            planner,
            planned,
        );
        let copies = match self.config.recovery {
            RecoveryPolicy::Replicate { copies } => copies,
            _ => 1,
        };
        for &(i, d) in planned.iter() {
            let t = &tasks[i];
            let dispatched = self.dispatch_task(home, t, d.target, d.sufferage_secs, now, false);
            if copies <= 1 || !dispatched {
                continue;
            }
            // Replicate: fan the task out to `copies - 1` further alive nodes, taken in the
            // scheduler's post-plan candidate order.  The first copy to complete wins and
            // cancels the rest.
            twins.clear();
            for c in candidates.iter() {
                if twins.len() + 1 >= copies {
                    break;
                }
                if c.node != d.target && !twins.contains(&c.node) && self.nodes[c.node].alive {
                    twins.push(c.node);
                }
            }
            for &twin in twins.iter() {
                self.dispatch_task(home, t, twin, d.sufferage_secs, now, true);
            }
        }
    }

    /// Migrate a task to its chosen resource node: mark it dispatched, enqueue it in the ready
    /// set and schedule the completion of its (true) data transfers.  Everything about the
    /// task comes from the record `t` its first phase filled at the same instant: its load
    /// (a checkpointed task's residual), image size, RPM, workflow makespan and the precedents
    /// its transfers are timed over.
    /// A `replica` dispatch (the fan-out copies of `RecoveryPolicy::Replicate`) enqueues and
    /// transfers like the primary but never touches workflow progress or the dispatch
    /// counters — the task is dispatched once, executed possibly many times.
    ///
    /// Returns `false` when the migration failed because the target is dead (the task then
    /// simply stays a schedule point).
    fn dispatch_task(
        &mut self,
        home: NodeId,
        t: &DispatchCandidateTask,
        target: NodeId,
        sufferage_secs: f64,
        now: SimTime,
        replica: bool,
    ) -> bool {
        if !self.nodes[target].alive {
            // A stale RSS record pointed at a node that just churned away; the migration fails
            // before any computation happens, so the task simply stays a schedule point and is
            // retried at the next scheduling cycle.
            return false;
        }
        let (wf, task) = (t.workflow, t.task);
        if !replica {
            self.workflows[wf].progress.mark_dispatched(task);
            self.dispatched_tasks += 1;
            self.retry_after.remove(&(wf, task));
            if let Some(lost_at) = self.pending_recovery.remove(&(wf, task)) {
                self.robustness.recovery_latency_secs_sum +=
                    now.saturating_duration_since(lost_at).as_secs_f64();
                self.robustness.recoveries += 1;
            }
        }
        if matches!(self.config.recovery, RecoveryPolicy::Replicate { .. }) {
            self.replica_sites
                .entry((wf, task))
                .or_default()
                .push(target);
        }

        // True transfer times on the ground-truth network: program image from the home node
        // plus dependent data from every precedent's execution site, all in parallel.
        let transfer_secs =
            self.transfer
                .arrival_delay_secs(home, target, t.image_size_mb, &t.predecessors);
        let view = ReadyTaskView {
            workflow_ms_secs: t.workflow_ms_secs,
            rpm_secs: t.rpm_secs,
            exec_secs: self.nodes[target].execution_secs(t.load_mi),
            sufferage_secs,
            enqueued_seq: self.next_seq,
        };
        self.next_seq += 1;
        let key = ready_key(self.algo.second_phase, &view);
        self.nodes[target].ready.insert(ReadyEntry {
            wf,
            task,
            load_mi: t.load_mi,
            key,
            view,
            data_ready: false,
        });
        self.emit(|o| o.on_task_dispatched(now, wf, task, target));
        let event = NodeEvent::DataReady {
            node: target,
            epoch: self.nodes[target].epoch,
            wf,
            task,
        };
        self.events
            .schedule(now + SimDuration::from_secs_f64(transfer_secs), event);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Algorithm, AlgorithmConfig, SecondPhase};
    use crate::config::{CapacityModel, ChurnConfig};
    use crate::config::{RecoveryPolicy, StochasticFaults};
    use crate::scenario::Scenario;

    fn tiny_config(seed: u64) -> GridConfig {
        let mut cfg = GridConfig::small(12).with_seed(seed);
        cfg.workflows_per_node = 1;
        cfg.workload.generator_mut().tasks = 2..=6;
        cfg.horizon = SimDuration::from_hours(20);
        cfg
    }

    fn simulate(cfg: GridConfig, algorithm: Algorithm) -> Simulation<'static> {
        Scenario::build(cfg)
            .expect("test config is valid")
            .simulate_algorithm(algorithm)
    }

    /// Step a session to the horizon and hand it back unfinished, for white-box tests
    /// asserting on dispatch/execution counters.
    fn run_session(cfg: GridConfig, algo: AlgorithmConfig) -> Simulation<'static> {
        let scenario = Scenario::build(cfg).expect("test config is valid");
        let mut session = scenario.simulate(algo);
        while session.step().is_some() {}
        session
    }

    proptest::proptest! {
        /// Pre-drawn events listed at start, then events scheduled in flight — each at or after
        /// the instant being executed — pop in the order one queue given the pre-drawn events
        /// first pops them.  Times come from a few milliseconds, so most instants tie.
        #[test]
        fn node_events_pop_like_one_queue(
            predrawn_ms in proptest::collection::vec(0u64..12, 0..40),
            ops in proptest::collection::vec(0u64..=u64::MAX, 0..120),
        ) {
            let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
            let predrawn: Vec<(SimTime, usize)> =
                predrawn_ms.iter().enumerate().map(|(i, &ms)| (at(ms), i)).collect();
            let mut oracle = EventQueue::new();
            for &(time, i) in &predrawn {
                oracle.schedule(time, i);
            }
            let mut events = NodeEvents::new(predrawn);
            let mut now = SimTime::ZERO;
            let mut next_id = predrawn_ms.len();
            for op in ops {
                if op % 3 == 0 {
                    let time = now + SimDuration::from_millis((op >> 2) % 4);
                    events.schedule(time, next_id);
                    oracle.schedule(time, next_id);
                    next_id += 1;
                } else {
                    proptest::prop_assert_eq!(events.peek_time(), oracle.peek_time());
                    let Some(time) = events.peek_time() else { continue };
                    if time > now {
                        proptest::prop_assert_eq!(events.pop_due(now), None);
                        now = time;
                    }
                    proptest::prop_assert_eq!(
                        events.pop_due(now),
                        oracle.pop().map(|e| e.event)
                    );
                }
            }
            while let Some(time) = oracle.peek_time() {
                let expected = oracle.pop().map(|e| e.event);
                proptest::prop_assert_eq!(events.pop_due(time), expected);
            }
            proptest::prop_assert_eq!(events.peek_time(), None);
        }
    }

    #[test]
    fn dsmf_run_completes_workflows_and_reports_metrics() {
        let report = simulate(tiny_config(1), Algorithm::Dsmf).run();
        assert_eq!(report.submitted, 12);
        assert!(
            report.completed > 0,
            "no workflow completed within the horizon"
        );
        assert!(report.act_secs() > 0.0);
        assert!(report.average_efficiency() > 0.0);
        assert!(report.avg_rss_size >= 1.0);
        assert!(report.gossip_stats.cycles > 0);
        assert_eq!(report.algorithm, "DSMF");
        // The throughput series is sampled hourly plus the final sample.
        assert!(report.metrics.throughput_series().len() >= 20);
    }

    #[test]
    fn every_algorithm_runs_on_the_same_shared_scenario() {
        let scenario = Scenario::build(tiny_config(2)).unwrap();
        for alg in Algorithm::ALL {
            let report = scenario.simulate_algorithm(alg).run();
            assert!(
                report.completed > 0,
                "{alg}: no workflow completed within the horizon"
            );
            assert!(report.completed <= report.submitted);
            assert!(report.average_efficiency() > 0.0, "{alg}: zero efficiency");
        }
    }

    #[test]
    fn runs_are_deterministic_per_seed_and_across_scenario_reuse() {
        let scenario = Scenario::build(tiny_config(3)).unwrap();
        let a = scenario.simulate_algorithm(Algorithm::Dsmf).run();
        let b = scenario.simulate_algorithm(Algorithm::Dsmf).run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.act_secs(), b.act_secs());
        assert_eq!(a.average_efficiency(), b.average_efficiency());
        let c = simulate(tiny_config(4), Algorithm::Dsmf).run();
        // A different seed gives a different workload, so at least one headline number differs.
        assert!(
            a.completed != c.completed || a.act_secs() != c.act_secs(),
            "different seeds should produce different runs"
        );
    }

    #[test]
    fn fcfs_ablation_changes_only_the_second_phase() {
        let scenario = Scenario::build(tiny_config(5)).unwrap();
        let paper = scenario
            .simulate(AlgorithmConfig::paper_default(Algorithm::MinMin))
            .run();
        let fcfs = scenario
            .simulate(AlgorithmConfig::with_fcfs_second_phase(Algorithm::MinMin))
            .run();
        assert_eq!(paper.submitted, fcfs.submitted);
        assert_eq!(fcfs.algorithm, "min-min+FCFS");
        assert!(fcfs.completed > 0);
    }

    #[test]
    fn churn_loses_workflows_but_keeps_the_rest_running() {
        let mut cfg = tiny_config(6).with_churn(ChurnConfig::with_dynamic_factor(0.2));
        cfg.nodes = 20;
        cfg.waxman.nodes = 20;
        let report = simulate(cfg, Algorithm::Dsmf).run();
        // Only stable nodes are home nodes: 50% of 20 = 10 homes, 1 workflow each.
        assert_eq!(report.submitted, 10);
        assert!(report.completed + report.failed <= report.submitted);
        assert!(
            report.completed > 0,
            "churn must not wipe out every workflow"
        );
    }

    #[test]
    fn rescheduling_extension_recovers_lost_tasks() {
        // Seed picked so the df = 0.3 churn actually takes down a node holding a running
        // task — the retry path, not just the free waiting-task requeue, is exercised.
        let mut cfg = tiny_config(9)
            .with_churn(ChurnConfig::with_dynamic_factor(0.3))
            .with_recovery(RecoveryPolicy::unlimited_retry());
        cfg.nodes = 20;
        cfg.waxman.nodes = 20;
        let report = simulate(cfg, Algorithm::Dsmf).run();
        assert_eq!(
            report.failed, 0,
            "with unlimited retries no workflow should be recorded as failed"
        );
        assert!(
            report.robustness.retries > 0,
            "a df = 0.3 run must have retried at least one lost running task"
        );
    }

    #[test]
    fn stochastic_faults_trigger_recovery_and_stay_deterministic() {
        let faults =
            StochasticFaults::new(SimDuration::from_hours(2), SimDuration::from_secs(20 * 60));
        let run = |recovery| {
            let mut cfg = tiny_config(18)
                .with_faults(crate::config::FaultModel::Stochastic(faults))
                .with_recovery(recovery);
            cfg.nodes = 20;
            cfg.waxman.nodes = 20;
            simulate(cfg, Algorithm::Dsmf).run()
        };
        let fail = run(RecoveryPolicy::FailWorkflow);
        assert!(
            fail.robustness.node_failures > 0,
            "a 2 h MTBF over a 20 h horizon must take nodes down"
        );
        assert!(fail.robustness.node_repairs > 0);
        let retry = run(RecoveryPolicy::unlimited_retry());
        assert_eq!(retry.failed, 0, "unlimited retries never fail a workflow");
        let again = run(RecoveryPolicy::unlimited_retry());
        assert_eq!(retry.completed, again.completed);
        assert_eq!(retry.act_secs().to_bits(), again.act_secs().to_bits());
        assert_eq!(retry.robustness, again.robustness);
        // The work ledger is consistent: anything counted must be positive, and goodput is a
        // proper fraction once something was wasted.
        assert!(retry.robustness.useful_mi > 0.0);
        if retry.robustness.wasted_mi > 0.0 {
            assert!(retry.robustness.goodput() < 1.0);
        }
    }

    #[test]
    fn uniform_capacity_single_node_grid_still_finishes() {
        let mut cfg = GridConfig::small(1).with_seed(8);
        cfg.workflows_per_node = 2;
        cfg.capacity = CapacityModel::Uniform(4.0);
        cfg.workload.generator_mut().tasks = 2..=4;
        cfg.horizon = SimDuration::from_hours(30);
        let report = simulate(cfg, Algorithm::Dsmf).run();
        assert_eq!(report.submitted, 2);
        assert!(report.completed > 0);
    }

    #[test]
    fn all_tasks_execute_at_most_once() {
        let mut cfg = tiny_config(9);
        cfg.workflows_per_node = 2;
        let state = run_session(cfg, AlgorithmConfig::paper_default(Algorithm::Dsmf));
        let total_tasks: usize = state
            .workflows
            .iter()
            .map(|w| w.workflow.task_count())
            .sum();
        assert!(state.executed_tasks <= state.dispatched_tasks);
        assert!(state.dispatched_tasks as usize <= total_tasks);
        // Completed workflows really finished every one of their tasks.
        for w in &state.workflows {
            if w.completed {
                assert!(w.progress.is_complete());
                assert!(w.task_location.iter().all(|l| l.is_some()));
            }
        }
    }

    #[test]
    fn departures_only_fail_workflows_whose_task_was_running() {
        // Under churn, the failure count can never exceed the number of running-task losses:
        // each departure takes down at most one workflow per occupied slot, while queued tasks
        // are silently re-dispatched.  With one workflow per home node and a modest dynamic
        // factor, some workflows must still survive and complete.
        let mut cfg = tiny_config(11).with_churn(ChurnConfig::with_dynamic_factor(0.2));
        cfg.nodes = 30;
        cfg.waxman.nodes = 30;
        let report = simulate(cfg, Algorithm::Dsmf).run();
        assert_eq!(report.submitted, 15);
        assert!(report.completed > 0);
        assert!(report.completed + report.failed <= report.submitted);
    }

    #[test]
    fn churn_sweep_baseline_matches_restricted_home_population() {
        // The df = 0 baseline of the churn experiments uses the same stable home population as
        // the churned points, so throughput numbers are directly comparable.
        // tiny_config builds a 12-node grid with one workflow per home node; restricting the
        // home set to the stable half leaves 6 submissions.
        let cfg = tiny_config(16).with_churn(ChurnConfig::with_dynamic_factor(0.0));
        let report = simulate(cfg, Algorithm::Dsmf).run();
        assert_eq!(report.submitted, 6);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn second_phase_rule_is_respected_in_reports_label() {
        let report = Scenario::build(tiny_config(10))
            .unwrap()
            .simulate(AlgorithmConfig {
                algorithm: Algorithm::Dsmf,
                second_phase: SecondPhase::Fcfs,
            })
            .run();
        assert_eq!(report.algorithm, "DSMF+FCFS");
    }

    #[test]
    fn multi_core_nodes_complete_no_less_than_single_core() {
        // The ResourceModel seam: with the same workload, giving every node four slots (and
        // four times the advertised throughput) must not finish fewer workflows.
        let single = simulate(tiny_config(12), Algorithm::Dsmf).run();
        let quad = simulate(tiny_config(12).with_slots_per_node(4), Algorithm::Dsmf).run();
        assert_eq!(single.submitted, quad.submitted);
        assert!(
            quad.completed >= single.completed,
            "4 slots completed {} < 1 slot's {}",
            quad.completed,
            single.completed
        );
    }

    #[test]
    fn multi_core_nodes_run_tasks_concurrently() {
        // On a single four-slot node, several ready tasks must occupy slots at once at some
        // point: with 2 workflows of 2–4 tasks each on one node, the engine's executed count
        // matches dispatches and the run finishes far faster than serially.
        let mut cfg = GridConfig::small(1).with_seed(14).with_slots_per_node(4);
        cfg.workflows_per_node = 3;
        cfg.capacity = CapacityModel::Uniform(4.0);
        cfg.workload.generator_mut().tasks = 4..=6;
        cfg.horizon = SimDuration::from_hours(30);
        let quad = simulate(cfg.clone(), Algorithm::Dsmf).run();
        let mut single_cfg = cfg;
        single_cfg.resource = crate::config::ResourceModel::single_cpu();
        let single = simulate(single_cfg, Algorithm::Dsmf).run();
        assert!(quad.completed >= single.completed);
        if quad.completed == single.completed && quad.completed > 0 {
            assert!(
                quad.act_secs() <= single.act_secs(),
                "4 slots must not be slower: {} vs {}",
                quad.act_secs(),
                single.act_secs()
            );
        }
    }

    #[test]
    fn heterogeneous_slot_distributions_run_deterministically() {
        use crate::config::{ResourceModel, SlotClass};
        let resource = || {
            ResourceModel::heterogeneous(vec![
                SlotClass {
                    slots: 1,
                    weight: 0.8,
                },
                SlotClass {
                    slots: 16,
                    weight: 0.2,
                },
            ])
        };
        let run = || simulate(tiny_config(15).with_resource(resource()), Algorithm::Dsmf).run();
        let a = run();
        let b = run();
        assert!(a.completed > 0, "heterogeneous grid must make progress");
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.act_secs().to_bits(), b.act_secs().to_bits());

        // The slot sampling draws from its own RNG stream: capacities, workflows and gossip
        // are untouched, so a uniform single-slot run still matches the plain paper config.
        let plain = simulate(tiny_config(15), Algorithm::Dsmf).run();
        let uniform = simulate(
            tiny_config(15).with_resource(crate::config::ResourceModel::single_cpu()),
            Algorithm::Dsmf,
        )
        .run();
        assert_eq!(plain.completed, uniform.completed);
        assert_eq!(plain.act_secs().to_bits(), uniform.act_secs().to_bits());
    }

    #[test]
    fn preemptive_substrate_restarts_displaced_tasks() {
        // A contended single-slot grid under DSMF: successors of short-makespan workflows
        // arrive while long-workflow tasks hold the CPU, so the time-sliced policy must
        // preempt at least once — observable as more task starts than dispatches.
        let preempt = |seed: u64| {
            let mut cfg = tiny_config(seed);
            cfg.workflows_per_node = 2;
            cfg.resource = crate::config::ResourceModel::single_cpu().preemptive();
            run_session(cfg, AlgorithmConfig::paper_default(Algorithm::Dsmf))
        };
        let preempted_somewhere = (20..26).any(|seed| {
            let state = preempt(seed);
            state.executed_tasks > state.dispatched_tasks
        });
        assert!(
            preempted_somewhere,
            "no seed in the band ever triggered a preemption"
        );
        // Preempted-and-resumed tasks must still complete their workflows consistently.
        let state = preempt(21);
        for w in &state.workflows {
            if w.completed {
                assert!(w.progress.is_complete());
                assert!(w.task_location.iter().all(|l| l.is_some()));
            }
        }
    }

    #[test]
    fn preemptive_runs_are_deterministic_and_account_consistently() {
        let run = || {
            let cfg = tiny_config(17)
                .with_resource(crate::config::ResourceModel::multi_core(2).preemptive());
            simulate(cfg, Algorithm::Dsmf).run()
        };
        let a = run();
        let b = run();
        assert!(a.completed > 0);
        assert!(a.completed + a.failed <= a.submitted);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.act_secs().to_bits(), b.act_secs().to_bits());
    }
}
