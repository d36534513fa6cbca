//! The pluggable scheduler seam.
//!
//! The grid engine drives every scheduling decision through this trait, so algorithms beyond
//! the paper's built-in eight can be plugged in without touching the engine or editing enum
//! match arms: implement [`Scheduler`] and hand it to
//! [`Scenario::simulate`](crate::scenario::Scenario::simulate).
//!
//! A scheduler owns both halves of the dual-phase model:
//!
//! * **first phase** — [`Scheduler::plan_dispatch`] orders and places this cycle's
//!   schedule-point tasks at one home node (Algorithm 1 for DSMF);
//! * **second phase** — [`Scheduler::ready_key`] assigns every migrated task a static priority
//!   key; each resource node executes its data-complete ready task with the *smallest* key
//!   whenever a slot frees up (Formula 10 for DSMF), with arrival order as the tie-break.
//!
//! Full-ahead baselines (HEFT, SMF) additionally return complete plans from
//! [`Scheduler::plan_full_ahead`]; just-in-time schedulers keep the default `None`.
//!
//! [`AlgorithmConfig`] — the paper's eight algorithms with configurable phase pairings — is the
//! built-in implementor.

use crate::algorithm::AlgorithmConfig;
use crate::estimate::{CandidateNode, FinishTimeEstimator};
use crate::fullahead::{plan_full_ahead, PlanInput, WorkflowPlan};
use crate::policy::first_phase::{plan_dispatch, DispatchCandidateTask, DispatchDecision};
use crate::policy::second_phase::{ready_key, ReadyKey, ReadyTaskView};
use crate::NodeId;
use p2pgrid_workflow::ExpectedCosts;

/// A complete dual-phase scheduling policy, pluggable into the grid engine.
///
/// `Send + Sync` is a supertrait so schedulers, and the sessions that own them, may cross
/// and be shared between threads, such as the worker pool that sweeps run sessions on.  The
/// engine only consults a scheduler, never mutates it, so any stateless policy (like the
/// built-in [`AlgorithmConfig`]) satisfies the bound for free.
pub trait Scheduler: Send + Sync {
    /// Label used in reports and figure legends (e.g. `"DSMF"`, `"min-min+FCFS"`).
    fn label(&self) -> String;

    /// Centralized full-ahead planning before execution starts (HEFT / SMF style).
    ///
    /// Return one plan (task index → node id) per input workflow to make the engine dispatch
    /// every schedule point to its pre-planned node; return `None` (the default) for
    /// just-in-time schedulers, which plan each cycle through [`Scheduler::plan_dispatch`].
    fn plan_full_ahead(
        &self,
        _inputs: &[PlanInput<'_>],
        _nodes: &[CandidateNode],
        _costs: ExpectedCosts,
        _bandwidth_mbps: &dyn Fn(NodeId, NodeId) -> f64,
    ) -> Option<Vec<WorkflowPlan>> {
        None
    }

    /// First phase: order this cycle's schedule-point tasks and choose a resource node for
    /// each, updating `candidates` loads as tasks are placed (Algorithm 1, line 15).
    fn plan_dispatch(
        &self,
        tasks: &[DispatchCandidateTask],
        candidates: &mut [CandidateNode],
        estimator: &FinishTimeEstimator<'_>,
    ) -> Vec<DispatchDecision>;

    /// Second phase: the static priority key of one migrated task.  Each resource node runs
    /// the data-complete ready task with the smallest key first (ties: arrival order).
    fn ready_key(&self, task: &ReadyTaskView) -> ReadyKey;
}

impl Scheduler for AlgorithmConfig {
    fn label(&self) -> String {
        AlgorithmConfig::label(self)
    }

    fn plan_full_ahead(
        &self,
        inputs: &[PlanInput<'_>],
        nodes: &[CandidateNode],
        costs: ExpectedCosts,
        bandwidth_mbps: &dyn Fn(NodeId, NodeId) -> f64,
    ) -> Option<Vec<WorkflowPlan>> {
        self.algorithm
            .is_full_ahead()
            .then(|| plan_full_ahead(self.algorithm, inputs, nodes, costs, bandwidth_mbps))
    }

    fn plan_dispatch(
        &self,
        tasks: &[DispatchCandidateTask],
        candidates: &mut [CandidateNode],
        estimator: &FinishTimeEstimator<'_>,
    ) -> Vec<DispatchDecision> {
        plan_dispatch(self.algorithm, tasks, candidates, estimator)
    }

    fn ready_key(&self, task: &ReadyTaskView) -> ReadyKey {
        ready_key(self.second_phase, task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Algorithm, SecondPhase};
    use crate::policy::second_phase::select_next;

    #[test]
    fn algorithm_config_implements_the_trait_faithfully() {
        let dsmf = AlgorithmConfig::paper_default(Algorithm::Dsmf);
        let scheduler: &dyn Scheduler = &dsmf;
        assert_eq!(scheduler.label(), "DSMF");

        // The trait's ready_key must rank exactly like the reference select_next.
        let views = [
            ReadyTaskView {
                workflow_ms_secs: 300.0,
                rpm_secs: 120.0,
                exec_secs: 10.0,
                sufferage_secs: 0.0,
                enqueued_seq: 0,
            },
            ReadyTaskView {
                workflow_ms_secs: 100.0,
                rpm_secs: 50.0,
                exec_secs: 10.0,
                sufferage_secs: 0.0,
                enqueued_seq: 1,
            },
        ];
        let by_key = (0..views.len())
            .min_by_key(|&i| (scheduler.ready_key(&views[i]), views[i].enqueued_seq))
            .unwrap();
        assert_eq!(
            Some(by_key),
            select_next(SecondPhase::ShortestWorkflowMakespan, &views)
        );
    }

    #[test]
    fn only_full_ahead_algorithms_return_plans() {
        use crate::worked_example;
        let w = worked_example::workflow_a();
        let inputs = [PlanInput {
            home: 0,
            workflow: &w,
        }];
        let nodes = [CandidateNode::single_slot(0, 4.0, 0.0)];
        let bw = |_a: NodeId, _b: NodeId| 10.0;
        let costs = ExpectedCosts::new(1.0, 1.0);
        let jit = AlgorithmConfig::paper_default(Algorithm::Dsmf);
        assert!(Scheduler::plan_full_ahead(&jit, &inputs, &nodes, costs, &bw).is_none());
        let heft = AlgorithmConfig::paper_default(Algorithm::Heft);
        let plans = Scheduler::plan_full_ahead(&heft, &inputs, &nodes, costs, &bw).unwrap();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].len(), w.task_count());
    }
}
