//! Runtime progress tracking of a workflow's execution.
//!
//! In the just-in-time model no task is scheduled until all of its precedents have finished.
//! [`ProgressTracker`] maintains, for one workflow instance, which tasks are finished, which
//! have already been dispatched to a resource node, and which are currently **schedule points**
//! — the paper's term for the tasks whose precedents are all complete but which have not yet
//! been dispatched (`spset(f)` in Eq. 8).
//!
//! A home node reads `spset(f)` of every active workflow at every scheduling instant, while
//! only a dispatch, a completion or an undone dispatch changes it.  So the tracker keeps the set
//! as a bitset that those three transitions update, and reading it visits the set bits, not
//! every task.

use crate::dag::{TaskId, Workflow};

/// Execution progress of a single workflow instance: per task its state and how many
/// precedents it still waits for, and the schedule-point set those two determine, kept as a
/// bitset.
#[derive(Debug, Clone)]
pub struct ProgressTracker {
    n: usize,
    remaining_preds: Vec<usize>,
    state: Vec<TaskState>,
    finished_count: usize,
    /// The schedule points: task `t` is bit `t % 64` of word `t / 64`.
    schedule_points: Vec<u64>,
}

/// Where one task is in its lifecycle.  A finished task stays finished whether or not it was
/// dispatched first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Waiting,
    Dispatched,
    Finished,
}

impl ProgressTracker {
    /// Create a tracker for a freshly submitted workflow: nothing finished, nothing dispatched,
    /// and only the entry task a schedule point.
    pub fn new(workflow: &Workflow) -> Self {
        let n = workflow.task_count();
        let remaining_preds: Vec<usize> = workflow
            .task_ids()
            .map(|t| workflow.precedents(t).len())
            .collect();
        let mut tracker = ProgressTracker {
            n,
            remaining_preds,
            state: vec![TaskState::Waiting; n],
            finished_count: 0,
            schedule_points: vec![0; n.div_ceil(64)],
        };
        for t in workflow.task_ids() {
            if tracker.remaining_preds[t.index()] == 0 {
                tracker.set_schedule_point(t, true);
            }
        }
        tracker
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
        self.state[t.index()] == TaskState::Finished
    }

    /// True if `t` is currently a schedule point: not dispatched, not finished, and all of its
    /// precedents are finished.
    pub fn is_schedule_point(&self, t: TaskId) -> bool {
        self.state[t.index()] == TaskState::Waiting && self.remaining_preds[t.index()] == 0
    }

    /// The current schedule-point set `spset(f)`, in ascending task-id order, read off the kept
    /// bitset without allocating.
    pub fn schedule_points(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.schedule_points
            .iter()
            .enumerate()
            .flat_map(|(word_index, &word)| {
                let base = (word_index * 64) as u32;
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros();
                        rest &= rest - 1;
                        TaskId(base + bit)
                    })
                })
            })
    }

    fn set_schedule_point(&mut self, t: TaskId, on: bool) {
        let (word, bit) = (t.index() / 64, 1u64 << (t.index() % 64));
        if on {
            self.schedule_points[word] |= bit;
        } else {
            self.schedule_points[word] &= !bit;
        }
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
        self.state[t.index()] = TaskState::Dispatched;
        self.set_schedule_point(t, false);
    }

    /// Undo a dispatch (used when a resource node churns away before executing the task and the
    /// home node re-schedules it).
    pub fn unmark_dispatched(&mut self, t: TaskId) {
        assert!(
            self.state[t.index()] == TaskState::Dispatched,
            "task {t} cannot be un-dispatched"
        );
        self.state[t.index()] = TaskState::Waiting;
        // A dispatched task was a schedule point, and precedents never un-finish.
        self.set_schedule_point(t, true);
    }

    /// Mark `t` as finished; every successor whose last precedent it was, and which is not
    /// dispatched, becomes a schedule point.
    ///
    /// # Panics
    /// Panics if `t` already finished or if any precedent of `t` has not finished.
    pub fn mark_finished(&mut self, workflow: &Workflow, t: TaskId) {
        assert!(
            self.state[t.index()] != TaskState::Finished,
            "task {t} finished twice"
        );
        assert_eq!(
            self.remaining_preds[t.index()],
            0,
            "task {t} finished before its precedents"
        );
        self.state[t.index()] = TaskState::Finished;
        self.finished_count += 1;
        self.set_schedule_point(t, false);
        for e in workflow.successors(t) {
            let s = e.task;
            self.remaining_preds[s.index()] -= 1;
            if self.remaining_preds[s.index()] == 0
                && self.state[s.index()] != TaskState::Dispatched
            {
                self.set_schedule_point(s, true);
            }
        }
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
        assert_eq!(p.schedule_points().collect::<Vec<_>>(), vec![a]);
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
        p.mark_finished(&w, a);
        assert_eq!(p.schedule_points().collect::<Vec<_>>(), vec![b, c]);
        assert!(!p.is_schedule_point(d));
    }

    #[test]
    fn join_task_waits_for_all_precedents() {
        let (w, [a, b, c, d]) = diamond();
        let mut p = ProgressTracker::new(&w);
        p.mark_dispatched(a);
        p.mark_finished(&w, a);
        p.mark_dispatched(b);
        p.mark_finished(&w, b);
        assert!(!p.is_schedule_point(d), "d still waits for c");
        p.mark_dispatched(c);
        assert_eq!(p.schedule_points().count(), 0);
        p.mark_finished(&w, c);
        assert_eq!(p.schedule_points().collect::<Vec<_>>(), vec![d]);
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
        assert_eq!(p.schedule_points().count(), 0);
        p.unmark_dispatched(a);
        assert!(p.is_schedule_point(a));
        assert_eq!(p.schedule_points().collect::<Vec<_>>(), vec![a]);
    }

    /// The schedule-point set as first written: scan every task.  Kept as the oracle the kept
    /// bitset must match.
    fn scanned_schedule_points(p: &ProgressTracker, w: &Workflow) -> Vec<TaskId> {
        w.task_ids().filter(|&t| p.is_schedule_point(t)).collect()
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
                let sps: Vec<TaskId> = p.schedule_points().collect();
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

    proptest! {
        /// After every step of any sequence of dispatches, undone dispatches and completions —
        /// completions of undispatched schedule points included — the kept set is the one a
        /// scan of every task finds.  Workflows reach 150 tasks, so the set spans three words.
        #[test]
        fn kept_schedule_points_match_the_scan(
            seed in 0u64..=u64::MAX,
            ops in proptest::collection::vec(0u64..=u64::MAX, 1..400),
        ) {
            let gen = WorkflowGenerator::new(WorkflowGeneratorConfig {
                tasks: 1..=150,
                ..WorkflowGeneratorConfig::default()
            });
            let w = gen.generate(&mut SimRng::seed_from_u64(seed));
            let mut p = ProgressTracker::new(&w);
            prop_assert_eq!(p.schedule_points().collect::<Vec<_>>(), scanned_schedule_points(&p, &w));
            for op in ops {
                let pick = |tasks: Vec<TaskId>| tasks[(op >> 2) as usize % tasks.len()];
                let dispatched: Vec<TaskId> = w
                    .task_ids()
                    .filter(|&t| p.state[t.index()] == TaskState::Dispatched)
                    .collect();
                let points = scanned_schedule_points(&p, &w);
                match op % 4 {
                    0 | 1 if !points.is_empty() => p.mark_dispatched(pick(points)),
                    2 if !dispatched.is_empty() => p.unmark_dispatched(pick(dispatched)),
                    _ => {
                        let ready: Vec<TaskId> = dispatched.into_iter().chain(points).collect();
                        if ready.is_empty() {
                            prop_assert!(p.is_complete());
                            continue;
                        }
                        p.mark_finished(&w, pick(ready));
                    }
                }
                prop_assert_eq!(p.schedule_points().collect::<Vec<_>>(), scanned_schedule_points(&p, &w));
            }
        }
    }
}
