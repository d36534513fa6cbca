//! Per-workflow runtime state: progress, task locations and (for full-ahead baselines) plans.

use crate::estimate::PredecessorData;
use crate::NodeId;
use p2pgrid_sim::SimTime;
use p2pgrid_workflow::{ProgressTracker, TaskId, Workflow};
use std::sync::Arc;

/// Runtime state of one submitted workflow instance.
#[derive(Debug, Clone)]
pub(crate) struct WorkflowRuntime {
    /// The home (submission) node.
    pub home: NodeId,
    /// The workflow DAG, shared by every session on the world.
    pub workflow: Arc<Workflow>,
    /// Dispatch / completion state of every task.
    pub progress: ProgressTracker,
    /// Expected finish time under the true system-wide averages (Eq. 1) — the efficiency
    /// baseline `eft(f)`.
    pub eft_secs: f64,
    /// Execution site of every finished task (`None` until it completes).
    pub task_location: Vec<Option<NodeId>>,
    /// True once a churn loss made the workflow unfinishable.
    pub failed: bool,
    /// True once the exit task finished.
    pub completed: bool,
    /// Submission instant.  Zero for the paper's batch model; later under a staggered
    /// arrival process or a trace workload with explicit arrival times.
    pub submitted_at: SimTime,
    /// True once the workflow has entered the system.  Workflows submitted at time zero
    /// start arrived; later arrivals flip this when their `WorkflowArrival` event fires, and
    /// until then the workflow is invisible to scheduling and metrics.
    pub arrived: bool,
    /// Full-ahead plan (task index → node id), present only for HEFT / SMF.
    pub plan: Option<Vec<NodeId>>,
    /// RPM under the true averages, used with `eft_secs` as the full-ahead baselines'
    /// ready-set metadata.
    pub static_rpm: Vec<f64>,
}

impl WorkflowRuntime {
    /// True while the workflow can make progress: it has arrived in the system and is
    /// neither finished nor failed.
    pub fn is_active(&self) -> bool {
        self.arrived && !self.completed && !self.failed
    }

    /// Where a finished task's output lives: its execution site, or the home node for data
    /// that never left (e.g. the entry task's inputs).
    pub fn output_location(&self, task: TaskId) -> NodeId {
        self.task_location[task.index()].unwrap_or(self.home)
    }

    /// What `task` needs moved before it can start: where each precedent's output lives and
    /// how much of it there is, in precedent order.
    pub fn predecessor_data(&self, task: TaskId) -> impl Iterator<Item = PredecessorData> + '_ {
        self.workflow
            .precedents(task)
            .iter()
            .map(|e| PredecessorData {
                location: self.output_location(e.task),
                data_mb: e.data_mb,
            })
    }

    /// Apply one task completion: record the execution site and mark the task finished.
    /// Returns `true` when the completion was the exit task — the caller then flags the
    /// workflow completed and records the metric.  Callers check
    /// [`WorkflowRuntime::is_active`] first; completions in failed workflows are dropped.
    pub fn apply_completion(&mut self, task: TaskId, node: NodeId) -> bool {
        self.task_location[task.index()] = Some(node);
        self.progress.mark_finished(&self.workflow, task);
        task == self.workflow.exit()
    }
}
