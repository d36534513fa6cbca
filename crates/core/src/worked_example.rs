//! The paper's worked example (Fig. 3): two workflows on one scheduler node.
//!
//! Fig. 3 shows two workflows, A and B, whose entry tasks (A1, B1) have already finished.  The
//! four schedule-point tasks have rest path makespans RPM(A2) = 80, RPM(A3) = 115,
//! RPM(B2) = 65 and RPM(B3) = 60, so the workflows' remaining makespans are 115 and 65 and the
//! DSMF dispatch order is B2, B3, A3, A2 (while plain decreasing-RPM HEFT ordering gives
//! A3, A2, B2, B3).
//!
//! The figure in the paper only prints the per-vertex execution times and per-edge transmission
//! times, not the full adjacency; this module reconstructs a pair of DAGs with the same
//! structure (a 6-task workflow A and a 5-task workflow B, two schedule points each) whose
//! estimated costs reproduce the quoted RPM values exactly under unit average capacity and
//! bandwidth.  Tests in this module and the `examples/paper_example.rs` binary check every
//! quoted number.

use p2pgrid_workflow::{Task, TaskId, Workflow, WorkflowBuilder};

/// Build workflow A of Fig. 3.
///
/// Structure: `A1 → {A2, A3}`, `A2 → A4 → A6`, `A3 → A5 → A6`.  Under unit averages the
/// estimated execution times are the task loads and the estimated transmission times are the
/// edge data sizes, giving RPM(A2) = 80 and RPM(A3) = 115.
pub fn workflow_a() -> Workflow {
    let mut b = WorkflowBuilder::new();
    let a1 = b.add_task(Task::named("A1", 5.0, 0.0));
    let a2 = b.add_task(Task::named("A2", 20.0, 0.0));
    let a3 = b.add_task(Task::named("A3", 40.0, 0.0));
    let a4 = b.add_task(Task::named("A4", 30.0, 0.0));
    let a5 = b.add_task(Task::named("A5", 20.0, 0.0));
    let a6 = b.add_task(Task::named("A6", 10.0, 0.0));
    b.add_dependency(a1, a2, 5.0);
    b.add_dependency(a1, a3, 10.0);
    b.add_dependency(a2, a4, 10.0);
    b.add_dependency(a3, a5, 40.0);
    b.add_dependency(a4, a6, 10.0);
    b.add_dependency(a5, a6, 5.0);
    b.build().expect("workflow A is a valid DAG")
}

/// Build workflow B of Fig. 3.
///
/// Structure: `B1 → {B2, B3}`, `B2 → B4 → B5`, `B3 → B5`, giving RPM(B2) = 65 and
/// RPM(B3) = 60.
pub fn workflow_b() -> Workflow {
    let mut b = WorkflowBuilder::new();
    let b1 = b.add_task(Task::named("B1", 20.0, 0.0));
    let b2 = b.add_task(Task::named("B2", 20.0, 0.0));
    let b3 = b.add_task(Task::named("B3", 30.0, 0.0));
    let b4 = b.add_task(Task::named("B4", 20.0, 0.0));
    let b5 = b.add_task(Task::named("B5", 10.0, 0.0));
    b.add_dependency(b1, b2, 20.0);
    b.add_dependency(b1, b3, 10.0);
    b.add_dependency(b2, b4, 10.0);
    b.add_dependency(b3, b5, 20.0);
    b.add_dependency(b4, b5, 5.0);
    b.build().expect("workflow B is a valid DAG")
}

/// Task ids of the four schedule points, in the order `(A2, A3, B2, B3)`.
pub fn schedule_points() -> (TaskId, TaskId, TaskId, TaskId) {
    (TaskId(1), TaskId(2), TaskId(1), TaskId(2))
}

/// The estimated finish-time matrix of Fig. 3: rows are the schedule points `A2, A3, B2, B3`,
/// columns are the three idle resource nodes `X, Y, Z`.
pub fn finish_time_matrix() -> Vec<Vec<f64>> {
    vec![
        vec![15.0, 10.0, 30.0],
        vec![30.0, 50.0, 40.0],
        vec![50.0, 60.0, 40.0],
        vec![40.0, 20.0, 30.0],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use crate::estimate::{CandidateNode, FinishTimeEstimator};
    use crate::policy::first_phase::{plan_dispatch, DispatchCandidateTask};
    use p2pgrid_workflow::{ExpectedCosts, ProgressTracker, WorkflowAnalysis};

    /// Unit averages: estimated execution times equal the task loads, transmission times equal
    /// the edge data sizes — exactly how Fig. 3 annotates its DAGs.
    fn unit_costs() -> ExpectedCosts {
        ExpectedCosts::new(1.0, 1.0)
    }

    #[test]
    fn rpm_values_match_the_paper() {
        let wa = workflow_a();
        let wb = workflow_b();
        let aa = WorkflowAnalysis::new(&wa, unit_costs());
        let ab = WorkflowAnalysis::new(&wb, unit_costs());
        let (a2, a3, b2, b3) = schedule_points();
        assert_eq!(aa.rpm_secs(a2), 80.0, "RPM(A2)");
        assert_eq!(aa.rpm_secs(a3), 115.0, "RPM(A3)");
        assert_eq!(ab.rpm_secs(b2), 65.0, "RPM(B2)");
        assert_eq!(ab.rpm_secs(b3), 60.0, "RPM(B3)");
    }

    #[test]
    fn remaining_makespans_are_115_and_65_after_the_entries_finish() {
        let wa = workflow_a();
        let wb = workflow_b();
        let aa = WorkflowAnalysis::new(&wa, unit_costs());
        let ab = WorkflowAnalysis::new(&wb, unit_costs());

        let mut pa = ProgressTracker::new(&wa);
        pa.mark_dispatched(wa.entry());
        pa.mark_finished(&wa, wa.entry());
        let mut pb = ProgressTracker::new(&wb);
        pb.mark_dispatched(wb.entry());
        pb.mark_finished(&wb, wb.entry());

        let ms_a = pa
            .schedule_points(&wa)
            .iter()
            .map(|&t| aa.rpm_secs(t))
            .fold(0.0f64, f64::max);
        let ms_b = pb
            .schedule_points(&wb)
            .iter()
            .map(|&t| ab.rpm_secs(t))
            .fold(0.0f64, f64::max);
        assert_eq!(ms_a, 115.0);
        assert_eq!(ms_b, 65.0);
        // The schedule points are exactly {A2, A3} and {B2, B3}.
        assert_eq!(pa.schedule_points(&wa), vec![TaskId(1), TaskId(2)]);
        assert_eq!(pb.schedule_points(&wb), vec![TaskId(1), TaskId(2)]);
    }

    #[test]
    fn dsmf_dispatch_order_is_b2_b3_a3_a2_end_to_end() {
        // Build the dispatch view exactly as a home node would after A1 and B1 finished.
        let wa = workflow_a();
        let wb = workflow_b();
        let aa = WorkflowAnalysis::new(&wa, unit_costs());
        let ab = WorkflowAnalysis::new(&wb, unit_costs());
        let (a2, a3, b2, b3) = schedule_points();
        let ms_a = aa.rpm_secs(a3).max(aa.rpm_secs(a2));
        let ms_b = ab.rpm_secs(b2).max(ab.rpm_secs(b3));
        let view = |wf: usize, w: &Workflow, analysis: &WorkflowAnalysis, t: TaskId, ms: f64| {
            DispatchCandidateTask {
                workflow: wf,
                task: t,
                load_mi: w.task(t).load_mi,
                image_size_mb: w.task(t).image_size_mb,
                rpm_secs: analysis.rpm_secs(t),
                workflow_ms_secs: ms,
                predecessors: vec![],
            }
        };
        let tasks = vec![
            view(0, &wa, &aa, a2, ms_a),
            view(0, &wa, &aa, a3, ms_a),
            view(1, &wb, &ab, b2, ms_b),
            view(1, &wb, &ab, b3, ms_b),
        ];
        let bw = |a: usize, b: usize| if a == b { f64::INFINITY } else { 1.0 };
        let est = FinishTimeEstimator::new(0, &bw);
        let mut candidates: Vec<CandidateNode> = (1..=3)
            .map(|i| CandidateNode::single_slot(i, 1.0, 0.0))
            .collect();
        let order: Vec<(usize, TaskId)> =
            plan_dispatch(Algorithm::Dsmf, &tasks, &mut candidates, &est)
                .iter()
                .map(|d| (d.workflow, d.task))
                .collect();
        assert_eq!(order, vec![(1, b2), (1, b3), (0, a3), (0, a2)]);

        // And the decreasing-RPM (HEFT-style) ordering is A3, A2, B2, B3.
        let mut candidates2: Vec<CandidateNode> = candidates
            .iter()
            .map(|c| CandidateNode {
                total_load_mi: 0.0,
                ..*c
            })
            .collect();
        let heft_order: Vec<(usize, TaskId)> =
            plan_dispatch(Algorithm::Dheft, &tasks, &mut candidates2, &est)
                .iter()
                .map(|d| (d.workflow, d.task))
                .collect();
        assert_eq!(heft_order, vec![(0, a3), (0, a2), (1, b2), (1, b3)]);
    }

    #[test]
    fn workflows_have_single_entry_and_exit_without_virtual_tasks() {
        let wa = workflow_a();
        let wb = workflow_b();
        assert_eq!(wa.task_count(), 6);
        assert_eq!(wb.task_count(), 5);
        assert!(!wa.task(wa.entry()).is_virtual());
        assert!(!wb.task(wb.exit()).is_virtual());
        assert_eq!(wa.task(wa.entry()).name.as_deref(), Some("A1"));
        assert_eq!(wb.task(wb.exit()).name.as_deref(), Some("B5"));
    }

    #[test]
    fn finish_time_matrix_shape() {
        let m = finish_time_matrix();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|row| row.len() == 3));
    }
}
