//! Static workflow analysis under system-wide average costs.
//!
//! The paper estimates every quantity that concerns *not-yet-scheduled* tasks (the "offspring"
//! of a schedule point) with the **system-wide average node capacity** and **average network
//! bandwidth**, both of which each peer learns through the aggregation gossip protocol:
//!
//! * expected execution time       `eet(t) = load(t) / avg_capacity`
//! * expected transmission time    `ett(e) = data(e) / avg_bandwidth`
//! * rest path makespan (RPM)      `RPM(t) = eet(t) + max over successors s of (ett(t→s) + RPM(s))`
//! * workflow expected finish time `eft(f) = RPM(entry)` — the length of the critical path
//!   (Eq. 1), which is also what the full-ahead SMF baseline sorts by.
//!
//! `RPM` is exactly HEFT's *upward rank* computed with averages, which is why the paper can
//! reuse the same recursion for both its own heuristic and the HEFT baseline.

use crate::dag::{TaskId, Workflow};

/// The system-wide average costs used for estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedCosts {
    /// Average node capacity in MIPS.
    pub avg_capacity_mips: f64,
    /// Average effective bandwidth in Mb/s.
    pub avg_bandwidth_mbps: f64,
}

impl ExpectedCosts {
    /// Create a cost model, validating that both averages are positive.
    pub fn new(avg_capacity_mips: f64, avg_bandwidth_mbps: f64) -> Self {
        assert!(avg_capacity_mips > 0.0, "average capacity must be positive");
        assert!(
            avg_bandwidth_mbps > 0.0,
            "average bandwidth must be positive"
        );
        ExpectedCosts {
            avg_capacity_mips,
            avg_bandwidth_mbps,
        }
    }

    /// Expected execution time (seconds) of a task with the given load.
    pub fn eet_secs(&self, load_mi: f64) -> f64 {
        load_mi / self.avg_capacity_mips
    }

    /// Expected transmission time (seconds) of an edge carrying the given data volume.
    pub fn ett_secs(&self, data_mb: f64) -> f64 {
        data_mb / self.avg_bandwidth_mbps
    }
}

/// The rest path makespan (upward rank) of every task of `workflow`, in seconds, indexed by
/// task id: `RPM(t) = eet(t) + max over successors s of (ett(t→s) + RPM(s))`.
///
/// This is the one recursion behind [`WorkflowAnalysis::rpm_secs`], for callers that need
/// nothing else of the analysis.
pub fn rest_path_makespans(workflow: &Workflow, costs: ExpectedCosts) -> Vec<f64> {
    let mut rpm = Vec::new();
    rest_path_makespans_into(workflow, costs, &mut rpm);
    rpm
}

/// [`rest_path_makespans`] written into `rpm`, which it resizes to the task count, for a
/// caller that recomputes it often (the first phase does at every scheduling instant, under
/// the home node's current averages) and keeps one buffer for it.
pub fn rest_path_makespans_into(workflow: &Workflow, costs: ExpectedCosts, rpm: &mut Vec<f64>) {
    rpm.clear();
    rpm.resize(workflow.task_count(), 0.0);
    // Walk the reverse topological order so successors are finished first; every edge is
    // visited exactly once, giving the O(edges) complexity claimed in Section III.E.
    for &t in workflow.topological_order().iter().rev() {
        let eet = costs.eet_secs(workflow.task(t).load_mi);
        let tail = workflow
            .successors(t)
            .iter()
            .map(|e| costs.ett_secs(e.data_mb) + rpm[e.task.index()])
            .fold(0.0f64, f64::max);
        rpm[t.index()] = eet + tail;
    }
}

/// Precomputed per-task analysis of one workflow under an [`ExpectedCosts`] model.
#[derive(Debug, Clone)]
pub struct WorkflowAnalysis {
    /// `rpm[t]` = rest path makespan (upward rank) of task `t`, in seconds.
    rpm: Vec<f64>,
    critical_path: Vec<TaskId>,
}

impl WorkflowAnalysis {
    /// Analyse `workflow` under the given average costs.
    pub fn new(workflow: &Workflow, costs: ExpectedCosts) -> Self {
        let rpm = rest_path_makespans(workflow, costs);

        // Extract one critical path by greedily following, from the entry, the successor that
        // preserves the total path length rpm[entry].
        let mut critical_path = Vec::new();
        let mut cur = workflow.entry();
        critical_path.push(cur);
        while cur != workflow.exit() {
            let next = workflow
                .successors(cur)
                .iter()
                .max_by(|a, b| {
                    let ka = costs.ett_secs(a.data_mb) + rpm[a.task.index()];
                    let kb = costs.ett_secs(b.data_mb) + rpm[b.task.index()];
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|e| e.task);
            match next {
                Some(t) => {
                    critical_path.push(t);
                    cur = t;
                }
                None => break,
            }
        }

        WorkflowAnalysis { rpm, critical_path }
    }

    /// Rest path makespan (upward rank) of a task, in seconds.
    pub fn rpm_secs(&self, t: TaskId) -> f64 {
        self.rpm[t.index()]
    }

    /// Expected finish time of the whole workflow, `eft(f)` of Eq. (1): the critical-path
    /// length under average costs, in seconds.
    pub fn expected_finish_time_secs(&self) -> f64 {
        self.rpm
            .first()
            .map(|_| self.rpm[self.critical_path[0].index()])
            .unwrap_or(0.0)
    }

    /// One critical path from the entry to the exit task.
    pub fn critical_path(&self) -> &[TaskId] {
        &self.critical_path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Task, WorkflowBuilder};

    /// A chain a(100 MI) -data 50Mb-> b(200 MI) -data 100Mb-> c(300 MI) under unit averages.
    fn chain() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(100.0, 10.0);
        let t_b = b.add_simple_task(200.0, 10.0);
        let c = b.add_simple_task(300.0, 10.0);
        b.add_dependency(a, t_b, 50.0);
        b.add_dependency(t_b, c, 100.0);
        b.build().unwrap()
    }

    #[test]
    fn expected_costs_convert_load_and_data() {
        let c = ExpectedCosts::new(4.0, 2.0);
        assert_eq!(c.eet_secs(100.0), 25.0);
        assert_eq!(c.ett_secs(100.0), 50.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        ExpectedCosts::new(0.0, 1.0);
    }

    #[test]
    fn chain_rpm_is_remaining_path_length() {
        let w = chain();
        let a = WorkflowAnalysis::new(&w, ExpectedCosts::new(1.0, 1.0));
        // rpm(c) = 300; rpm(b) = 200 + 100 + 300 = 600; rpm(a) = 100 + 50 + 600 = 750.
        assert_eq!(a.rpm_secs(TaskId(2)), 300.0);
        assert_eq!(a.rpm_secs(TaskId(1)), 600.0);
        assert_eq!(a.rpm_secs(TaskId(0)), 750.0);
        assert_eq!(a.expected_finish_time_secs(), 750.0);
        assert_eq!(a.critical_path(), &[TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn diamond_critical_path_picks_heavier_branch() {
        // entry -> {light, heavy} -> exit, heavy branch dominates.
        let mut b = WorkflowBuilder::new();
        let entry = b.add_task(Task::named("entry", 10.0, 1.0));
        let light = b.add_task(Task::named("light", 20.0, 1.0));
        let heavy = b.add_task(Task::named("heavy", 500.0, 1.0));
        let exit = b.add_task(Task::named("exit", 10.0, 1.0));
        b.add_dependency(entry, light, 5.0);
        b.add_dependency(entry, heavy, 5.0);
        b.add_dependency(light, exit, 5.0);
        b.add_dependency(heavy, exit, 5.0);
        let w = b.build().unwrap();
        let a = WorkflowAnalysis::new(&w, ExpectedCosts::new(1.0, 1.0));
        assert_eq!(a.critical_path(), &[entry, heavy, exit]);
        // eft = 10 + 5 + 500 + 5 + 10 = 530.
        assert_eq!(a.expected_finish_time_secs(), 530.0);
        // The heavy branch has the larger RPM.
        assert!(a.rpm_secs(heavy) > a.rpm_secs(light));
        // The entry task has the largest RPM and the exit task the smallest.
        for t in w.task_ids() {
            assert!(a.rpm_secs(entry) >= a.rpm_secs(t) && a.rpm_secs(t) >= a.rpm_secs(exit));
        }
    }

    #[test]
    fn averages_scale_rpm_linearly() {
        let w = chain();
        let slow = WorkflowAnalysis::new(&w, ExpectedCosts::new(1.0, 1.0));
        let fast = WorkflowAnalysis::new(&w, ExpectedCosts::new(2.0, 2.0));
        for t in w.task_ids() {
            assert!((slow.rpm_secs(t) / 2.0 - fast.rpm_secs(t)).abs() < 1e-9);
        }
    }

    #[test]
    fn single_task_workflow() {
        let mut b = WorkflowBuilder::new();
        let only = b.add_simple_task(500.0, 1.0);
        let w = b.build().unwrap();
        let a = WorkflowAnalysis::new(&w, ExpectedCosts::new(5.0, 1.0));
        assert_eq!(a.rpm_secs(only), 100.0);
        assert_eq!(a.expected_finish_time_secs(), 100.0);
        assert_eq!(a.critical_path(), &[only]);
    }

    #[test]
    fn virtual_entry_exit_do_not_add_cost() {
        // Two parallel chains that get a virtual entry and exit during normalisation.
        let mut b = WorkflowBuilder::new();
        let a1 = b.add_simple_task(100.0, 1.0);
        let a2 = b.add_simple_task(100.0, 1.0);
        let b1 = b.add_simple_task(300.0, 1.0);
        let b2 = b.add_simple_task(300.0, 1.0);
        b.add_dependency(a1, a2, 10.0);
        b.add_dependency(b1, b2, 10.0);
        let w = b.build().unwrap();
        let a = WorkflowAnalysis::new(&w, ExpectedCosts::new(1.0, 1.0));
        // Critical path = virtual entry + b1 + 10 + b2 + virtual exit = 610.
        assert_eq!(a.expected_finish_time_secs(), 610.0);
        assert!(w.task(w.entry()).is_virtual());
        let cp = a.critical_path();
        assert_eq!(cp.first().copied(), Some(w.entry()));
        assert_eq!(cp.last().copied(), Some(w.exit()));
        assert!(cp.contains(&b1) && cp.contains(&b2));
    }
}
