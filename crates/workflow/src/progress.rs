//! Runtime progress tracking of a workflow's execution.
//!
//! In the just-in-time model no task is scheduled until all of its precedents have finished.
//! [`ProgressTracker`] maintains, for one workflow instance, which tasks are finished, which
//! have already been dispatched to a resource node, and which are currently **schedule points**
//! — the paper's term for the tasks whose precedents are all complete but which have not yet
//! been dispatched (`spset(f)` in Eq. 8).

use crate::dag::{TaskId, Workflow};

/// Execution progress of a single workflow instance.
#[derive(Debug, Clone)]
pub struct ProgressTracker {
    n: usize,
    remaining_preds: Vec<usize>,
    finished: Vec<bool>,
    dispatched: Vec<bool>,
    finished_count: usize,
}

impl ProgressTracker {
    /// Create a tracker for a freshly submitted workflow: nothing finished, nothing dispatched,
    /// and only the entry task a schedule point.
    pub fn new(workflow: &Workflow) -> Self {
        let n = workflow.task_count();
        let remaining_preds = workflow
            .task_ids()
            .map(|t| workflow.precedents(t).len())
            .collect();
        ProgressTracker {
            n,
            remaining_preds,
            finished: vec![false; n],
            dispatched: vec![false; n],
            finished_count: 0,
        }
    }

    /// Number of tasks in the tracked workflow.
    pub fn task_count(&self) -> usize {
        self.n
    }

    /// True once every task has finished.
    pub fn is_complete(&self) -> bool {
        self.finished_count == self.n
    }

    /// True if `t` has finished.
    #[cfg(test)]
    pub(crate) fn is_finished(&self, t: TaskId) -> bool {
        self.finished[t.index()]
    }

    /// True if `t` is currently a schedule point: not dispatched, not finished, and all of its
    /// precedents are finished.
    pub fn is_schedule_point(&self, t: TaskId) -> bool {
        !self.dispatched[t.index()]
            && !self.finished[t.index()]
            && self.remaining_preds[t.index()] == 0
    }

    /// The current schedule-point set `spset(f)`, in task-id order.
    pub fn schedule_points(&self, workflow: &Workflow) -> Vec<TaskId> {
        workflow
            .task_ids()
            .filter(|&t| self.is_schedule_point(t))
            .collect()
    }

    /// Mark `t` as dispatched to a resource node.
    ///
    /// # Panics
    /// Panics if `t` is not currently a schedule point — dispatching a task whose precedents
    /// have not finished would violate the just-in-time model.
    pub fn mark_dispatched(&mut self, t: TaskId) {
        assert!(
            self.is_schedule_point(t),
            "task {t} is not a schedule point (dispatched twice or precedents unfinished)"
        );
        self.dispatched[t.index()] = true;
    }

    /// Undo a dispatch (used when a resource node churns away before executing the task and the
    /// home node re-schedules it).
    pub fn unmark_dispatched(&mut self, t: TaskId) {
        assert!(
            self.dispatched[t.index()] && !self.finished[t.index()],
            "task {t} cannot be un-dispatched"
        );
        self.dispatched[t.index()] = false;
    }

    /// Mark `t` as finished and return the tasks that *became* schedule points as a result.
    ///
    /// # Panics
    /// Panics if `t` already finished or if any precedent of `t` has not finished.
    pub fn mark_finished(&mut self, workflow: &Workflow, t: TaskId) -> Vec<TaskId> {
        assert!(!self.finished[t.index()], "task {t} finished twice");
        assert_eq!(
            self.remaining_preds[t.index()],
            0,
            "task {t} finished before its precedents"
        );
        self.finished[t.index()] = true;
        self.finished_count += 1;
        let mut newly_ready = Vec::new();
        for e in workflow.successors(t) {
            let s = e.task;
            self.remaining_preds[s.index()] -= 1;
            if self.remaining_preds[s.index()] == 0 && !self.dispatched[s.index()] {
                newly_ready.push(s);
            }
        }
        newly_ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::WorkflowBuilder;
    use crate::generator::{WorkflowGenerator, WorkflowGeneratorConfig};
    use p2pgrid_sim::SimRng;
    use proptest::prelude::*;

    fn diamond() -> (Workflow, [TaskId; 4]) {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(1.0, 1.0);
        let t_b = b.add_simple_task(1.0, 1.0);
        let c = b.add_simple_task(1.0, 1.0);
        let d = b.add_simple_task(1.0, 1.0);
        b.add_dependency(a, t_b, 1.0);
        b.add_dependency(a, c, 1.0);
        b.add_dependency(t_b, d, 1.0);
        b.add_dependency(c, d, 1.0);
        (b.build().unwrap(), [a, t_b, c, d])
    }

    #[test]
    fn only_entry_is_initially_ready() {
        let (w, [a, ..]) = diamond();
        let p = ProgressTracker::new(&w);
        assert_eq!(p.schedule_points(&w), vec![a]);
        assert!(!p.is_complete());
    }

    #[test]
    fn finishing_entry_unlocks_both_branches() {
        let (w, [a, b, c, d]) = diamond();
        let mut p = ProgressTracker::new(&w);
        p.mark_dispatched(a);
        assert!(
            !p.is_schedule_point(a),
            "dispatched tasks are no longer schedule points"
        );
        let newly = p.mark_finished(&w, a);
        assert_eq!(newly, vec![b, c]);
        assert_eq!(p.schedule_points(&w), vec![b, c]);
        assert!(!p.is_schedule_point(d));
    }

    #[test]
    fn join_task_waits_for_all_precedents() {
        let (w, [a, b, c, d]) = diamond();
        let mut p = ProgressTracker::new(&w);
        p.mark_dispatched(a);
        p.mark_finished(&w, a);
        p.mark_dispatched(b);
        let newly = p.mark_finished(&w, b);
        assert!(newly.is_empty(), "d still waits for c");
        p.mark_dispatched(c);
        let newly = p.mark_finished(&w, c);
        assert_eq!(newly, vec![d]);
        p.mark_dispatched(d);
        p.mark_finished(&w, d);
        assert!(p.is_complete());
    }

    #[test]
    #[should_panic(expected = "not a schedule point")]
    fn cannot_dispatch_blocked_task() {
        let (w, [_, _, _, d]) = diamond();
        let mut p = ProgressTracker::new(&w);
        p.mark_dispatched(d);
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn cannot_finish_twice() {
        let (w, [a, ..]) = diamond();
        let mut p = ProgressTracker::new(&w);
        p.mark_dispatched(a);
        p.mark_finished(&w, a);
        p.mark_finished(&w, a);
    }

    #[test]
    fn undispatch_restores_schedule_point() {
        let (w, [a, ..]) = diamond();
        let mut p = ProgressTracker::new(&w);
        p.mark_dispatched(a);
        assert!(!p.is_schedule_point(a));
        p.unmark_dispatched(a);
        assert!(p.is_schedule_point(a));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Executing any generated workflow by repeatedly dispatching+finishing an arbitrary
        /// schedule point always terminates with every task finished, and never exposes a task
        /// whose precedents are unfinished.
        #[test]
        fn prop_any_greedy_execution_completes(seed in 0u64..1000) {
            let mut rng = SimRng::seed_from_u64(seed);
            let gen = WorkflowGenerator::new(WorkflowGeneratorConfig::default());
            let w = gen.generate(&mut rng);
            let mut p = ProgressTracker::new(&w);
            let mut steps = 0usize;
            while !p.is_complete() {
                let sps = p.schedule_points(&w);
                prop_assert!(!sps.is_empty(), "deadlock: unfinished workflow with no schedule points");
                // Pick a pseudo-random schedule point to model out-of-order completion.
                let pick = sps[(seed as usize + steps) % sps.len()];
                for e in w.precedents(pick) {
                    prop_assert!(p.is_finished(e.task));
                }
                p.mark_dispatched(pick);
                p.mark_finished(&w, pick);
                steps += 1;
                prop_assert!(steps <= w.task_count());
            }
            prop_assert_eq!(steps, w.task_count());
        }
    }
}
