//! The workflow DAG data structure.

use std::fmt;

/// Identifier of a task *within one workflow* (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task's index into the workflow's task vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single workflow task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Computational load in million instructions (Table I: 100–10 000 MI).
    pub load_mi: f64,
    /// Size of the program image that must be migrated to the execution node, in megabits
    /// (Table I: 10–100 Mb).
    pub image_size_mb: f64,
    /// Optional human-readable label (used by examples and the Fig. 3 worked example).
    pub name: Option<String>,
    /// Optional priority carried by the on-disk workload format (`crates/workflow/src/spec.rs`).
    /// The paper's schedulers order tasks by RPM/makespan keys, so this field is informational
    /// today; it round-trips through import/export for future priority-aware substrates.
    pub priority: Option<i32>,
}

impl Task {
    /// Create a task with the given load and image size.
    pub fn new(load_mi: f64, image_size_mb: f64) -> Self {
        Task {
            load_mi,
            image_size_mb,
            name: None,
            priority: None,
        }
    }

    /// Create a named task.
    pub fn named(name: impl Into<String>, load_mi: f64, image_size_mb: f64) -> Self {
        Task {
            load_mi,
            image_size_mb,
            name: Some(name.into()),
            priority: None,
        }
    }

    /// A zero-cost virtual task used to normalise multi-entry / multi-exit workflows.
    pub fn virtual_task(name: &str) -> Self {
        Task {
            load_mi: 0.0,
            image_size_mb: 0.0,
            name: Some(name.to_string()),
            priority: None,
        }
    }

    /// True for zero-cost virtual entry/exit tasks.
    pub fn is_virtual(&self) -> bool {
        self.load_mi == 0.0 && self.image_size_mb == 0.0
    }
}

/// A dependency edge annotated with the amount of data (Mb) the successor must receive from the
/// precedent before it can start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataEdge {
    /// The other endpoint.
    pub task: TaskId,
    /// Payload size in megabits.
    pub data_mb: f64,
}

/// Errors detected while building a workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// The dependency graph contains a cycle.
    CyclicDependency,
    /// The workflow has no tasks.
    Empty,
    /// An edge references a task id that was never added.
    UnknownTask(TaskId),
    /// The same dependency was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// An edge connects a task to itself.
    SelfDependency(TaskId),
    /// A task parameter is invalid (negative load, negative data size, ...).
    InvalidParameter(String),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::CyclicDependency => write!(f, "workflow contains a dependency cycle"),
            WorkflowError::Empty => write!(f, "workflow has no tasks"),
            WorkflowError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            WorkflowError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            WorkflowError::SelfDependency(t) => write!(f, "task {t} depends on itself"),
            WorkflowError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Builder for [`Workflow`].
#[derive(Debug, Clone, Default)]
pub struct WorkflowBuilder {
    tasks: Vec<Task>,
    edges: Vec<(TaskId, TaskId, f64)>,
}

impl WorkflowBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task and return its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        id
    }

    /// Test fixture: add an anonymous task with the given load and image size.
    #[cfg(test)]
    pub(crate) fn add_simple_task(&mut self, load_mi: f64, image_size_mb: f64) -> TaskId {
        self.add_task(Task::new(load_mi, image_size_mb))
    }

    /// Declare that `successor` depends on `precedent` and must receive `data_mb` megabits of
    /// output from it.
    pub fn add_dependency(&mut self, precedent: TaskId, successor: TaskId, data_mb: f64) {
        self.edges.push((precedent, successor, data_mb));
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Validate, normalise and freeze the workflow.
    pub fn build(self) -> Result<Workflow, WorkflowError> {
        Workflow::from_parts(self.tasks, self.edges)
    }
}

/// An immutable, validated, normalised workflow DAG.
///
/// After construction the workflow always has exactly one entry task and one exit task; if the
/// user-supplied DAG had several, zero-cost virtual tasks are prepended/appended, exactly as
/// Section II.A of the paper prescribes.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    tasks: Vec<Task>,
    succs: Vec<Vec<DataEdge>>,
    preds: Vec<Vec<DataEdge>>,
    entry: TaskId,
    exit: TaskId,
    topo_order: Vec<TaskId>,
}

impl Workflow {
    fn from_parts(
        mut tasks: Vec<Task>,
        mut edges: Vec<(TaskId, TaskId, f64)>,
    ) -> Result<Self, WorkflowError> {
        if tasks.is_empty() {
            return Err(WorkflowError::Empty);
        }
        for t in &tasks {
            if t.load_mi < 0.0
                || t.load_mi.is_nan()
                || t.image_size_mb < 0.0
                || t.image_size_mb.is_nan()
            {
                return Err(WorkflowError::InvalidParameter(format!(
                    "task load/image must be non-negative, got load={} image={}",
                    t.load_mi, t.image_size_mb
                )));
            }
        }
        let n0 = tasks.len() as u32;
        let mut seen = std::collections::HashSet::new();
        for &(a, b, d) in &edges {
            if a.0 >= n0 {
                return Err(WorkflowError::UnknownTask(a));
            }
            if b.0 >= n0 {
                return Err(WorkflowError::UnknownTask(b));
            }
            if a == b {
                return Err(WorkflowError::SelfDependency(a));
            }
            if d < 0.0 || d.is_nan() {
                return Err(WorkflowError::InvalidParameter(format!(
                    "edge data size must be non-negative, got {d}"
                )));
            }
            if !seen.insert((a, b)) {
                return Err(WorkflowError::DuplicateEdge(a, b));
            }
        }

        // Normalise: find entry tasks (no precedent) and exit tasks (no successor) of the raw
        // graph; add zero-cost virtual tasks if there is more than one of either.
        let n = tasks.len();
        let mut has_pred = vec![false; n];
        let mut has_succ = vec![false; n];
        for &(a, b, _) in &edges {
            has_succ[a.index()] = true;
            has_pred[b.index()] = true;
        }
        let entries: Vec<TaskId> = (0..n)
            .filter(|&i| !has_pred[i])
            .map(|i| TaskId(i as u32))
            .collect();
        let exits: Vec<TaskId> = (0..n)
            .filter(|&i| !has_succ[i])
            .map(|i| TaskId(i as u32))
            .collect();
        if entries.is_empty() || exits.is_empty() {
            // Every DAG has at least one source and one sink; none means a cycle covers
            // everything.
            return Err(WorkflowError::CyclicDependency);
        }
        let entry = if entries.len() == 1 {
            entries[0]
        } else {
            let id = TaskId(tasks.len() as u32);
            tasks.push(Task::virtual_task("__entry"));
            for &e in &entries {
                edges.push((id, e, 0.0));
            }
            id
        };
        let exit = if exits.len() == 1 {
            exits[0]
        } else {
            let id = TaskId(tasks.len() as u32);
            tasks.push(Task::virtual_task("__exit"));
            for &x in &exits {
                edges.push((x, id, 0.0));
            }
            id
        };

        let n = tasks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &(a, b, d) in &edges {
            succs[a.index()].push(DataEdge {
                task: b,
                data_mb: d,
            });
            preds[b.index()].push(DataEdge {
                task: a,
                data_mb: d,
            });
        }

        // Kahn topological sort; detects residual cycles.
        let mut indeg: Vec<usize> = preds.iter().map(|p| p.len()).collect();
        let mut queue: std::collections::VecDeque<TaskId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| TaskId(i as u32))
            .collect();
        let mut topo_order = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            topo_order.push(t);
            for e in &succs[t.index()] {
                indeg[e.task.index()] -= 1;
                if indeg[e.task.index()] == 0 {
                    queue.push_back(e.task);
                }
            }
        }
        if topo_order.len() != n {
            return Err(WorkflowError::CyclicDependency);
        }

        Ok(Workflow {
            tasks,
            succs,
            preds,
            entry,
            exit,
            topo_order,
        })
    }

    /// Number of tasks, including any virtual entry/exit tasks added during normalisation.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(|s| s.len()).sum()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// All task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// The unique entry task.
    pub fn entry(&self) -> TaskId {
        self.entry
    }

    /// The unique exit task.
    pub fn exit(&self) -> TaskId {
        self.exit
    }

    /// Successors of `t` (`Suc(t)` in the paper) with their edge data sizes.
    pub fn successors(&self, t: TaskId) -> &[DataEdge] {
        &self.succs[t.index()]
    }

    /// Precedents of `t` (`Pre(t)` in the paper) with their edge data sizes.
    pub fn precedents(&self, t: TaskId) -> &[DataEdge] {
        &self.preds[t.index()]
    }

    /// A topological order of all tasks (entry first, exit last).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo_order
    }

    /// Total computational load of the workflow in MI.
    pub fn total_load_mi(&self) -> f64 {
        self.tasks.iter().map(|t| t.load_mi).sum()
    }

    /// Total data volume carried on all edges, in Mb.
    pub fn total_data_mb(&self) -> f64 {
        self.succs
            .iter()
            .flat_map(|s| s.iter())
            .map(|e| e.data_mb)
            .sum()
    }

    /// Communication-to-computation ratio under the given average capacity (MIPS) and average
    /// bandwidth (Mb/s): mean edge transfer time over mean task execution time.
    ///
    /// This is the CCR knob varied in Fig. 9 / Fig. 10.
    pub fn ccr(&self, avg_capacity_mips: f64, avg_bandwidth_mbps: f64) -> f64 {
        let n_edges = self.edge_count();
        let real_tasks: Vec<&Task> = self.tasks.iter().filter(|t| !t.is_virtual()).collect();
        if n_edges == 0 || real_tasks.is_empty() {
            return 0.0;
        }
        let mean_comm = self.total_data_mb() / n_edges as f64 / avg_bandwidth_mbps;
        let mean_comp = real_tasks.iter().map(|t| t.load_mi).sum::<f64>()
            / real_tasks.len() as f64
            / avg_capacity_mips;
        if mean_comp == 0.0 {
            0.0
        } else {
            mean_comm / mean_comp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Workflow {
        // a -> b, a -> c, b -> d, c -> d
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(100.0, 10.0);
        let t_b = b.add_simple_task(200.0, 10.0);
        let c = b.add_simple_task(300.0, 10.0);
        let d = b.add_simple_task(400.0, 10.0);
        b.add_dependency(a, t_b, 50.0);
        b.add_dependency(a, c, 60.0);
        b.add_dependency(t_b, d, 70.0);
        b.add_dependency(c, d, 80.0);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_reports_structure() {
        let w = diamond();
        assert_eq!(w.task_count(), 4);
        assert_eq!(w.edge_count(), 4);
        assert_eq!(w.entry(), TaskId(0));
        assert_eq!(w.exit(), TaskId(3));
        assert_eq!(w.successors(TaskId(0)).len(), 2);
        assert_eq!(w.precedents(TaskId(3)).len(), 2);
        assert_eq!(w.precedents(TaskId(0)).len(), 0);
        assert_eq!(w.total_load_mi(), 1000.0);
        assert_eq!(w.total_data_mb(), 260.0);
        let fanout = w.task_ids().map(|t| w.successors(t).len()).max();
        assert_eq!(fanout, Some(2));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let w = diamond();
        let order = w.topological_order();
        assert_eq!(order.len(), 4);
        let pos: std::collections::HashMap<TaskId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for t in w.task_ids() {
            for e in w.successors(t) {
                assert!(pos[&t] < pos[&e.task], "{t} must precede {}", e.task);
            }
        }
        assert_eq!(order[0], w.entry());
        assert_eq!(*order.last().unwrap(), w.exit());
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        let c = b.add_simple_task(1.0, 1.0);
        let d = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, c, 0.0);
        b.add_dependency(c, d, 0.0);
        b.add_dependency(d, a, 0.0);
        assert_eq!(b.build().unwrap_err(), WorkflowError::CyclicDependency);
    }

    #[test]
    fn two_node_cycle_is_rejected() {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        let c = b.add_simple_task(1.0, 1.0);
        // `a` is a valid entry, so entry detection succeeds but the Kahn pass must still fail.
        let d = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, c, 0.0);
        b.add_dependency(c, d, 0.0);
        b.add_dependency(d, c, 0.0);
        assert_eq!(b.build().unwrap_err(), WorkflowError::CyclicDependency);
    }

    #[test]
    fn empty_workflow_rejected() {
        assert_eq!(
            WorkflowBuilder::new().build().unwrap_err(),
            WorkflowError::Empty
        );
    }

    #[test]
    fn unknown_task_self_edge_and_duplicate_rejected() {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, TaskId(99), 0.0);
        assert_eq!(
            b.build().unwrap_err(),
            WorkflowError::UnknownTask(TaskId(99))
        );

        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, a, 0.0);
        assert_eq!(b.build().unwrap_err(), WorkflowError::SelfDependency(a));

        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        let c = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, c, 1.0);
        b.add_dependency(a, c, 2.0);
        assert_eq!(b.build().unwrap_err(), WorkflowError::DuplicateEdge(a, c));
    }

    #[test]
    fn negative_parameters_rejected() {
        let mut b = WorkflowBuilder::new();
        b.add_simple_task(-5.0, 1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            WorkflowError::InvalidParameter(_)
        ));

        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        let c = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, c, -1.0);
        assert!(matches!(
            b.build().unwrap_err(),
            WorkflowError::InvalidParameter(_)
        ));
    }

    #[test]
    fn multi_entry_multi_exit_is_normalised_with_virtual_tasks() {
        // Two independent chains: a1 -> a2 and b1 -> b2.
        let mut b = WorkflowBuilder::new();
        let a1 = b.add_simple_task(10.0, 1.0);
        let a2 = b.add_simple_task(20.0, 1.0);
        let b1 = b.add_simple_task(30.0, 1.0);
        let b2 = b.add_simple_task(40.0, 1.0);
        b.add_dependency(a1, a2, 5.0);
        b.add_dependency(b1, b2, 5.0);
        let w = b.build().unwrap();
        // 4 real + virtual entry + virtual exit.
        assert_eq!(w.task_count(), 6);
        assert!(w.task(w.entry()).is_virtual());
        assert!(w.task(w.exit()).is_virtual());
        assert_eq!(w.successors(w.entry()).len(), 2);
        assert_eq!(w.precedents(w.exit()).len(), 2);
        // Virtual tasks carry no load and virtual edges carry no data.
        assert_eq!(w.total_load_mi(), 100.0);
        assert_eq!(w.total_data_mb(), 10.0);
    }

    #[test]
    fn single_task_workflow_is_its_own_entry_and_exit() {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(42.0, 1.0);
        let w = b.build().unwrap();
        assert_eq!(w.entry(), a);
        assert_eq!(w.exit(), a);
        assert_eq!(w.task_count(), 1);
    }

    #[test]
    fn ccr_scales_with_data_size() {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1000.0, 1.0);
        let c = b.add_simple_task(1000.0, 1.0);
        b.add_dependency(a, c, 1000.0);
        let w = b.build().unwrap();
        // avg comp = 1000 MI / 1 MIPS = 1000 s; avg comm = 1000 Mb / 1 Mb/s = 1000 s.
        assert!((w.ccr(1.0, 1.0) - 1.0).abs() < 1e-12);
        // Ten times the bandwidth → one tenth the CCR.
        assert!((w.ccr(1.0, 10.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn named_and_virtual_tasks() {
        let t = Task::named("stage-in", 100.0, 10.0);
        assert_eq!(t.name.as_deref(), Some("stage-in"));
        assert!(!t.is_virtual());
        assert!(Task::virtual_task("__entry").is_virtual());
    }
}
