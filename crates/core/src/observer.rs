//! The observer seam: tap the engine's event stream without touching engine state.
//!
//! An [`Observer`] registers on a [`Simulation`](crate::Simulation) session before
//! the first step and receives a callback for every externally meaningful engine event — task
//! dispatch / start / finish / displacement, workflow submit / complete / fail, node join /
//! leave, gossip cycles and the periodic metrics sample.  Observers borrow into the session
//! (`&mut`), so their recorded data stays owned by the caller and is available after
//! [`Simulation::run`](crate::Simulation::run) consumes the session:
//!
//! ```
//! use p2pgrid_core::observer::TimeSeriesProbe;
//! use p2pgrid_core::scenario::Scenario;
//! use p2pgrid_core::{Algorithm, GridConfig};
//!
//! let scenario = Scenario::build(GridConfig::small(12).with_seed(7)).unwrap();
//! let mut probe = TimeSeriesProbe::new();
//! let report = scenario
//!     .simulate_algorithm(Algorithm::Dsmf)
//!     .observe(&mut probe)
//!     .run();
//! assert_eq!(probe.samples().len(), report.metrics.throughput_series().len());
//! ```
//!
//! Observers never mutate engine state, so a run with observers attached produces a report
//! byte-identical to the same run without them.
//!
//! # Ordering
//!
//! Observers run on the driving thread, and every hook fires inline, at the transition it
//! describes, in the engine's event order: timestamps never decrease, and within one instant
//! the node events due at it come first, then the grid-wide cadences (dispatch, churn, gossip,
//! samples), then the node events those cadences scheduled for the same instant.  An exit
//! task's `on_task_finished` is followed at once by its `on_workflow_completed`.  The stream
//! is deterministic per seed and pool width.

use crate::NodeId;
use p2pgrid_sim::SimTime;
use p2pgrid_workflow::TaskId;

/// One aggregate snapshot of the grid, handed to [`Observer::on_sample`] every metrics
/// interval.
///
/// All counters come from the engine's `O(1)` per-node accessors
/// ([`ReadySet::len`](crate::engine::node::ReadySet::len) /
/// [`ReadySet::selectable_len`](crate::engine::node::ReadySet::selectable_len) /
/// [`ReadySet::queued_load_mi`](crate::engine::node::ReadySet::queued_load_mi)), so sampling is
/// `O(nodes)` per cadence tick — no heap walks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSample {
    /// Nodes currently alive.
    pub alive_nodes: usize,
    /// Queued tasks across alive nodes (transferring + data-complete).
    pub ready_tasks: usize,
    /// Data-complete (selectable) tasks across alive nodes.
    pub selectable_tasks: usize,
    /// Tasks currently occupying execution slots.
    pub running_tasks: usize,
    /// Total queued computational load across alive nodes, MI.
    pub queued_load_mi: f64,
}

/// Callbacks for the engine's event stream.  Every method has an empty default, so an observer
/// implements only the hooks it cares about.
#[allow(unused_variables)]
pub trait Observer {
    /// A workflow was submitted at its home node (fires once per workflow, at time zero).
    fn on_workflow_submitted(&mut self, now: SimTime, wf: usize, home: NodeId) {}

    /// A workflow's exit task finished; the workflow is complete.
    fn on_workflow_completed(&mut self, now: SimTime, wf: usize) {}

    /// A churn loss made the workflow unfinishable.
    fn on_workflow_failed(&mut self, now: SimTime, wf: usize) {}

    /// The first phase dispatched a task from its home node to a resource node.
    fn on_task_dispatched(&mut self, now: SimTime, wf: usize, task: TaskId, target: NodeId) {}

    /// A resource node started executing a data-complete ready task.
    fn on_task_started(&mut self, now: SimTime, wf: usize, task: TaskId, node: NodeId) {}

    /// A task finished executing.
    fn on_task_finished(&mut self, now: SimTime, wf: usize, task: TaskId, node: NodeId) {}

    /// A running task was displaced back into the ready set by a higher-priority arrival
    /// (time-sliced substrates only).
    fn on_task_displaced(&mut self, now: SimTime, wf: usize, task: TaskId, node: NodeId) {}

    /// A queued or running task was lost because its node failed or churned away.  What
    /// happens next is the [`RecoveryPolicy`](crate::config::RecoveryPolicy)'s business.
    fn on_task_lost(&mut self, now: SimTime, node: NodeId, wf: usize, task: TaskId) {}

    /// A lost task re-entered the schedule-point queue under `RecoveryPolicy::Retry`;
    /// `attempt` counts the losses so far (1 on the first retry).
    fn on_task_retried(&mut self, now: SimTime, wf: usize, task: TaskId, attempt: u32) {}

    /// A node churned away.
    fn on_node_departed(&mut self, now: SimTime, node: NodeId) {}

    /// A node (re-)joined the grid.
    fn on_node_joined(&mut self, now: SimTime, node: NodeId) {}

    /// One mixed-gossip cycle ran on every alive node; `cycle` counts from zero.
    fn on_gossip_cycle(&mut self, now: SimTime, cycle: u64) {}

    /// The periodic metrics sample fired (cadence: `GridConfig::metrics_interval`).
    fn on_sample(&mut self, now: SimTime, sample: &GridSample) {}
}

/// A built-in probe recording the [`GridSample`] time series — ready-set depth, queued load
/// and alive-node population on the metrics cadence.  This is the observer behind the
/// ROADMAP's "what does the backlog look like mid-run?" question that the one-shot report
/// could never answer.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesProbe {
    samples: Vec<(SimTime, GridSample)>,
}

impl TimeSeriesProbe {
    /// An empty probe.
    pub fn new() -> Self {
        TimeSeriesProbe::default()
    }

    /// The recorded `(time, sample)` points, in time order.
    pub fn samples(&self) -> &[(SimTime, GridSample)] {
        &self.samples
    }

    /// The deepest total ready-set backlog observed, `(time, tasks)`.
    pub fn peak_ready_tasks(&self) -> Option<(SimTime, usize)> {
        self.samples
            .iter()
            .max_by_key(|(_, s)| s.ready_tasks)
            .map(|&(t, s)| (t, s.ready_tasks))
    }

    /// The largest queued computational load observed, `(time, MI)`.
    pub fn peak_queued_load_mi(&self) -> Option<(SimTime, f64)> {
        self.samples
            .iter()
            .max_by(|(_, a), (_, b)| a.queued_load_mi.total_cmp(&b.queued_load_mi))
            .map(|&(t, s)| (t, s.queued_load_mi))
    }
}

impl Observer for TimeSeriesProbe {
    fn on_sample(&mut self, now: SimTime, sample: &GridSample) {
        self.samples.push((now, *sample));
    }
}

/// One recorded engine event (the [`TraceRecorder`]'s unit of storage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Workflow submitted at its home node.
    WorkflowSubmitted {
        /// Workflow index.
        wf: usize,
        /// Home node.
        home: NodeId,
    },
    /// Workflow completed.
    WorkflowCompleted {
        /// Workflow index.
        wf: usize,
    },
    /// Workflow failed (churn loss).
    WorkflowFailed {
        /// Workflow index.
        wf: usize,
    },
    /// Task dispatched to a resource node.
    TaskDispatched {
        /// Workflow index.
        wf: usize,
        /// Task id.
        task: TaskId,
        /// Chosen resource node.
        target: NodeId,
    },
    /// Task started executing.
    TaskStarted {
        /// Workflow index.
        wf: usize,
        /// Task id.
        task: TaskId,
        /// Executing node.
        node: NodeId,
    },
    /// Task finished executing.
    TaskFinished {
        /// Workflow index.
        wf: usize,
        /// Task id.
        task: TaskId,
        /// Executing node.
        node: NodeId,
    },
    /// Task displaced by a higher-priority arrival.
    TaskDisplaced {
        /// Workflow index.
        wf: usize,
        /// Task id.
        task: TaskId,
        /// Node whose slot was reclaimed.
        node: NodeId,
    },
    /// Task lost with its failed / departed node.
    TaskLost {
        /// Workflow index.
        wf: usize,
        /// Task id.
        task: TaskId,
        /// The node that took the task down with it.
        node: NodeId,
    },
    /// Lost task re-queued for another attempt (`RecoveryPolicy::Retry`).
    TaskRetried {
        /// Workflow index.
        wf: usize,
        /// Task id.
        task: TaskId,
        /// Loss count so far (1 on the first retry).
        attempt: u32,
    },
    /// Node departed.
    NodeDeparted {
        /// The departing node.
        node: NodeId,
    },
    /// Node joined.
    NodeJoined {
        /// The joining node.
        node: NodeId,
    },
    /// One gossip cycle completed.
    GossipCycle {
        /// Zero-based cycle counter.
        cycle: u64,
    },
}

/// A built-in observer recording the full `(time, event)` stream — the engine's execution
/// trace.  Tests use it to assert event-level invariants (every started task was dispatched
/// first, displacements only on preemptive substrates, ...) that aggregate reports erase.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<(SimTime, TraceEvent)>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// The recorded `(time, event)` stream, in delivery order.
    pub fn events(&self) -> &[(SimTime, TraceEvent)] {
        &self.events
    }

    /// Number of recorded events matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }

    fn push(&mut self, now: SimTime, event: TraceEvent) {
        self.events.push((now, event));
    }
}

impl Observer for TraceRecorder {
    fn on_workflow_submitted(&mut self, now: SimTime, wf: usize, home: NodeId) {
        self.push(now, TraceEvent::WorkflowSubmitted { wf, home });
    }
    fn on_workflow_completed(&mut self, now: SimTime, wf: usize) {
        self.push(now, TraceEvent::WorkflowCompleted { wf });
    }
    fn on_workflow_failed(&mut self, now: SimTime, wf: usize) {
        self.push(now, TraceEvent::WorkflowFailed { wf });
    }
    fn on_task_dispatched(&mut self, now: SimTime, wf: usize, task: TaskId, target: NodeId) {
        self.push(now, TraceEvent::TaskDispatched { wf, task, target });
    }
    fn on_task_started(&mut self, now: SimTime, wf: usize, task: TaskId, node: NodeId) {
        self.push(now, TraceEvent::TaskStarted { wf, task, node });
    }
    fn on_task_finished(&mut self, now: SimTime, wf: usize, task: TaskId, node: NodeId) {
        self.push(now, TraceEvent::TaskFinished { wf, task, node });
    }
    fn on_task_displaced(&mut self, now: SimTime, wf: usize, task: TaskId, node: NodeId) {
        self.push(now, TraceEvent::TaskDisplaced { wf, task, node });
    }
    fn on_task_lost(&mut self, now: SimTime, node: NodeId, wf: usize, task: TaskId) {
        self.push(now, TraceEvent::TaskLost { wf, task, node });
    }
    fn on_task_retried(&mut self, now: SimTime, wf: usize, task: TaskId, attempt: u32) {
        self.push(now, TraceEvent::TaskRetried { wf, task, attempt });
    }
    fn on_node_departed(&mut self, now: SimTime, node: NodeId) {
        self.push(now, TraceEvent::NodeDeparted { node });
    }
    fn on_node_joined(&mut self, now: SimTime, node: NodeId) {
        self.push(now, TraceEvent::NodeJoined { node });
    }
    fn on_gossip_cycle(&mut self, now: SimTime, cycle: u64) {
        self.push(now, TraceEvent::GossipCycle { cycle });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_tracks_peaks() {
        let mut probe = TimeSeriesProbe::new();
        assert!(probe.peak_ready_tasks().is_none());
        let mk = |ready, load| GridSample {
            alive_nodes: 4,
            ready_tasks: ready,
            selectable_tasks: ready,
            running_tasks: 1,
            queued_load_mi: load,
        };
        probe.on_sample(SimTime::from_secs(1), &mk(3, 10.0));
        probe.on_sample(SimTime::from_secs(2), &mk(7, 5.0));
        probe.on_sample(SimTime::from_secs(3), &mk(2, 90.0));
        assert_eq!(probe.samples().len(), 3);
        assert_eq!(probe.peak_ready_tasks(), Some((SimTime::from_secs(2), 7)));
        assert_eq!(
            probe.peak_queued_load_mi(),
            Some((SimTime::from_secs(3), 90.0))
        );
    }

    #[test]
    fn recorder_keeps_delivery_order_and_counts() {
        let mut rec = TraceRecorder::new();
        rec.on_workflow_submitted(SimTime::ZERO, 0, 2);
        rec.on_task_dispatched(SimTime::from_secs(1), 0, TaskId(0), 3);
        rec.on_task_started(SimTime::from_secs(2), 0, TaskId(0), 3);
        rec.on_task_finished(SimTime::from_secs(5), 0, TaskId(0), 3);
        rec.on_workflow_completed(SimTime::from_secs(5), 0);
        assert_eq!(rec.events().len(), 5);
        assert_eq!(
            rec.count(|e| matches!(e, TraceEvent::TaskStarted { .. })),
            1
        );
        assert!(matches!(
            rec.events()[0],
            (
                SimTime::ZERO,
                TraceEvent::WorkflowSubmitted { wf: 0, home: 2 }
            )
        ));
    }
}
