//! The centralized full-ahead planner behind the HEFT and SMF baselines.
//!
//! The paper uses two full-ahead algorithms as upper-bound style baselines: the classic HEFT
//! list scheduler and the self-implemented SMF ("shortest makespan first").  Both are "centrally
//! performed before the execution starts" with *global* information, and the resource nodes
//! then simply execute ready tasks FCFS.  This module implements that planner:
//!
//! * every workflow gets an upward-rank analysis under the true system-wide averages;
//! * **HEFT** merges all tasks of all workflows into one list ordered by decreasing rank;
//! * **SMF** first orders whole workflows by ascending expected makespan and then their tasks by
//!   decreasing rank;
//! * every task is assigned to the node with the earliest estimated finish time given the
//!   already-planned tasks (non-insertion HEFT processor selection), accounting for dependent
//!   data transfers from the planned locations of its precedents and the program-image transfer
//!   from its home node.
//!
//! ## Scoring only the nodes that can win
//!
//! A node's finish time is `max(available, data ready) + exec`, and the data are ready no
//! earlier than the latest planned finish among the task's precedents (a transfer takes no
//! negative time).  The planner gathers each task's precedents — planned node, planned finish,
//! data volume — once, and skips a node whose bound `max(available, latest) + exec` exceeds the
//! best finish time found so far by more than the 1e-12 tie tolerance, before computing any of
//! its transfers.  The skip is exact: IEEE rounding is monotone, so the node's finish time is
//! at least the bound, hence more than 1e-12 above the best, and the unchanged comparison would
//! have rejected it.  The plans are the ones scoring every node gives.  This needs bandwidths
//! that are never NaN: `f64::max` would drop a NaN arrival time and could leave the data-ready
//! time below the latest precedent finish.  A node's per-slot rate never changes during
//! planning, so the planner reads it once per node, not once per (task, node).

use crate::algorithm::Algorithm;
use crate::estimate::{transfer_secs_over, CandidateNode, CandidateRates};
use crate::NodeId;
use p2pgrid_workflow::{rest_path_makespans, ExpectedCosts, TaskId, Workflow};
use std::cmp::Ordering;

/// A workflow to plan: its home node and DAG.
#[derive(Debug, Clone)]
pub struct PlanInput<'a> {
    /// The home (submission) node.
    pub home: NodeId,
    /// The workflow DAG.
    pub workflow: &'a Workflow,
}

/// The plan for one workflow: the chosen execution node for every task (indexed by task id).
pub type WorkflowPlan = Vec<NodeId>;

/// Plan every workflow on the given nodes.
///
/// `algorithm` must be one of the two full-ahead baselines.  `nodes` is the global view of all
/// (alive) resource nodes; `costs` are the true system-wide averages used for rank computation;
/// `bandwidth_mbps` is the true pairwise bandwidth.
pub fn plan_full_ahead(
    algorithm: Algorithm,
    inputs: &[PlanInput<'_>],
    nodes: &[CandidateNode],
    costs: ExpectedCosts,
    bandwidth_mbps: &dyn Fn(NodeId, NodeId) -> f64,
) -> Vec<WorkflowPlan> {
    assert!(
        algorithm.is_full_ahead(),
        "plan_full_ahead only supports the HEFT and SMF baselines, got {algorithm}"
    );
    assert!(!nodes.is_empty(), "cannot plan on an empty node set");

    // Upward ranks under the true averages; a workflow's expected makespan is its entry's.
    let rpm: Vec<Vec<f64>> = inputs
        .iter()
        .map(|inp| rest_path_makespans(inp.workflow, costs))
        .collect();

    // Build the global task order as (workflow index, task id) pairs.
    let mut order: Vec<(usize, TaskId)> = Vec::new();
    match algorithm {
        Algorithm::Heft => {
            for (w, inp) in inputs.iter().enumerate() {
                for t in inp.workflow.task_ids() {
                    order.push((w, t));
                }
            }
            order.sort_by(|&(wa, ta), &(wb, tb)| {
                rpm[wb][tb.index()]
                    .partial_cmp(&rpm[wa][ta.index()])
                    .unwrap_or(Ordering::Equal)
                    .then(wa.cmp(&wb))
                    .then(ta.cmp(&tb))
            });
        }
        Algorithm::Smf => {
            let makespan = |w: usize| rpm[w][inputs[w].workflow.entry().index()];
            let mut wf_order: Vec<usize> = (0..inputs.len()).collect();
            wf_order.sort_by(|&a, &b| {
                makespan(a)
                    .partial_cmp(&makespan(b))
                    .unwrap_or(Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for w in wf_order {
                let mut tasks: Vec<TaskId> = inputs[w].workflow.task_ids().collect();
                tasks.sort_by(|&ta, &tb| {
                    rpm[w][tb.index()]
                        .partial_cmp(&rpm[w][ta.index()])
                        .unwrap_or(Ordering::Equal)
                        .then(ta.cmp(&tb))
                });
                for t in tasks {
                    order.push((w, t));
                }
            }
        }
        _ => unreachable!("guarded above"),
    }

    // Greedy earliest-finish-time processor selection.  A node's per-slot rate never changes,
    // and its queue is `node_available`, so both are read once.
    let rates: Vec<CandidateRates> = nodes.iter().map(CandidateRates::of).collect();
    let mut node_available: Vec<f64> = rates.iter().map(|r| r.queue_secs).collect();
    let mut plans: Vec<WorkflowPlan> = inputs
        .iter()
        .map(|inp| vec![0usize; inp.workflow.task_count()])
        .collect();
    let mut planned_finish: Vec<Vec<f64>> = inputs
        .iter()
        .map(|inp| vec![0.0f64; inp.workflow.task_count()])
        .collect();

    let transfer = |from: NodeId, to: NodeId, mb: f64| {
        transfer_secs_over(from, to, mb, || bandwidth_mbps(from, to))
    };

    // (planned node id, planned finish, data volume) of the current task's precedents.
    let mut precedents: Vec<(NodeId, f64, f64)> = Vec::new();
    for (w, t) in order {
        let inp = &inputs[w];
        let task = inp.workflow.task(t);
        precedents.clear();
        precedents.extend(inp.workflow.precedents(t).iter().map(|e| {
            let p = e.task.index();
            (nodes[plans[w][p]].node, planned_finish[w][p], e.data_mb)
        }));
        let latest = precedents.iter().fold(0.0f64, |m, &(_, f, _)| m.max(f));
        let mut best: Option<(usize, f64)> = None;
        for (h, node) in nodes.iter().enumerate() {
            let exec = rates[h].execution_secs(task.load_mi);
            if let Some((_, bft)) = best {
                if node_available[h].max(latest) + exec - bft > 1e-12 {
                    continue;
                }
            }
            let mut data_ready = transfer(inp.home, node.node, task.image_size_mb);
            for &(pred_node, pred_finish, data_mb) in &precedents {
                let arrival = pred_finish + transfer(pred_node, node.node, data_mb);
                data_ready = data_ready.max(arrival);
            }
            let start = node_available[h].max(data_ready);
            let finish = start + exec;
            let better = match best {
                None => true,
                Some((bh, bft)) => {
                    finish < bft - 1e-12
                        || ((finish - bft).abs() <= 1e-12 && nodes[h].node < nodes[bh].node)
                }
            };
            if better {
                best = Some((h, finish));
            }
        }
        let (h, finish) = best.expect("nodes is non-empty");
        plans[w][t.index()] = h;
        planned_finish[w][t.index()] = finish;
        node_available[h] = finish;
    }

    // Translate node indices to node ids.
    plans
        .into_iter()
        .map(|p| p.into_iter().map(|h| nodes[h].node).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::tests::{load_jitter, tiered_bw};
    use crate::worked_example;
    use p2pgrid_sim::SimRng;
    use p2pgrid_workflow::{shapes, WorkflowAnalysis, WorkflowGenerator, WorkflowGeneratorConfig};

    fn uniform_bw(a: NodeId, b: NodeId) -> f64 {
        if a == b {
            f64::INFINITY
        } else {
            10.0
        }
    }

    fn idle_nodes(capacities: &[f64]) -> Vec<CandidateNode> {
        capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| CandidateNode::single_slot(i, c, 0.0))
            .collect()
    }

    #[test]
    #[should_panic(expected = "only supports")]
    fn rejects_just_in_time_algorithms() {
        let w = shapes::chain(3, 100.0, 10.0);
        let inputs = [PlanInput {
            home: 0,
            workflow: &w,
        }];
        plan_full_ahead(
            Algorithm::Dsmf,
            &inputs,
            &idle_nodes(&[1.0]),
            ExpectedCosts::new(1.0, 1.0),
            &uniform_bw,
        );
    }

    #[test]
    fn every_task_gets_an_assignment() {
        let w1 = worked_example::workflow_a();
        let w2 = worked_example::workflow_b();
        let inputs = [
            PlanInput {
                home: 0,
                workflow: &w1,
            },
            PlanInput {
                home: 1,
                workflow: &w2,
            },
        ];
        let nodes = idle_nodes(&[1.0, 2.0, 4.0]);
        for alg in [Algorithm::Heft, Algorithm::Smf] {
            let plans = plan_full_ahead(
                alg,
                &inputs,
                &nodes,
                ExpectedCosts::new(1.0, 1.0),
                &uniform_bw,
            );
            assert_eq!(plans.len(), 2);
            assert_eq!(plans[0].len(), w1.task_count());
            assert_eq!(plans[1].len(), w2.task_count());
            for plan in &plans {
                for &n in plan {
                    assert!(n < 3, "assignment to unknown node {n}");
                }
            }
        }
    }

    #[test]
    fn a_chain_lands_on_the_fastest_node_when_communication_is_cheap() {
        // With cheap communication and a single dominant node, every task of a chain should be
        // planned on the fastest node (no benefit from spreading a purely sequential DAG).
        let w = shapes::chain(6, 1000.0, 1.0);
        let inputs = [PlanInput {
            home: 0,
            workflow: &w,
        }];
        let nodes = idle_nodes(&[1.0, 2.0, 16.0]);
        let plans = plan_full_ahead(
            Algorithm::Heft,
            &inputs,
            &nodes,
            ExpectedCosts::new(6.2, 10.0),
            &uniform_bw,
        );
        assert!(plans[0].iter().all(|&n| n == 2), "plan: {:?}", plans[0]);
    }

    #[test]
    fn parallel_branches_are_spread_across_nodes() {
        // A wide fork-join with heavy tasks and negligible data: parallel branches should not
        // all be serialised onto one node.
        let w = shapes::fork_join(6, 5000.0, 1.0);
        let inputs = [PlanInput {
            home: 0,
            workflow: &w,
        }];
        let nodes = idle_nodes(&[8.0, 8.0, 8.0, 8.0]);
        let plans = plan_full_ahead(
            Algorithm::Heft,
            &inputs,
            &nodes,
            ExpectedCosts::new(8.0, 10.0),
            &uniform_bw,
        );
        let distinct: std::collections::HashSet<_> = plans[0].iter().collect();
        assert!(
            distinct.len() >= 3,
            "fork-join should use several nodes, got {:?}",
            plans[0]
        );
    }

    #[test]
    fn busy_nodes_are_avoided() {
        let w = shapes::chain(2, 1000.0, 1.0);
        let inputs = [PlanInput {
            home: 0,
            workflow: &w,
        }];
        let nodes = vec![
            CandidateNode::single_slot(0, 8.0, 1_000_000.0),
            CandidateNode::single_slot(1, 8.0, 0.0),
        ];
        let plans = plan_full_ahead(
            Algorithm::Smf,
            &inputs,
            &nodes,
            ExpectedCosts::new(8.0, 10.0),
            &uniform_bw,
        );
        assert!(plans[0].iter().all(|&n| n == 1));
    }

    /// The planner as first written: every task scores every node in full.  Kept as the
    /// oracle the bound-pruned scan must match.
    fn exhaustive_reference(
        algorithm: Algorithm,
        inputs: &[PlanInput<'_>],
        nodes: &[CandidateNode],
        costs: ExpectedCosts,
        bandwidth_mbps: &dyn Fn(NodeId, NodeId) -> f64,
    ) -> Vec<WorkflowPlan> {
        let analyses: Vec<WorkflowAnalysis> = inputs
            .iter()
            .map(|inp| WorkflowAnalysis::new(inp.workflow, costs))
            .collect();
        let mut order: Vec<(usize, TaskId)> = Vec::new();
        match algorithm {
            Algorithm::Heft => {
                for (w, inp) in inputs.iter().enumerate() {
                    for t in inp.workflow.task_ids() {
                        order.push((w, t));
                    }
                }
                order.sort_by(|&(wa, ta), &(wb, tb)| {
                    analyses[wb]
                        .rpm_secs(tb)
                        .partial_cmp(&analyses[wa].rpm_secs(ta))
                        .unwrap_or(Ordering::Equal)
                        .then(wa.cmp(&wb))
                        .then(ta.cmp(&tb))
                });
            }
            _ => {
                let mut wf_order: Vec<usize> = (0..inputs.len()).collect();
                wf_order.sort_by(|&a, &b| {
                    analyses[a]
                        .expected_finish_time_secs()
                        .partial_cmp(&analyses[b].expected_finish_time_secs())
                        .unwrap_or(Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for w in wf_order {
                    let mut tasks: Vec<TaskId> = inputs[w].workflow.task_ids().collect();
                    tasks.sort_by(|&ta, &tb| {
                        analyses[w]
                            .rpm_secs(tb)
                            .partial_cmp(&analyses[w].rpm_secs(ta))
                            .unwrap_or(Ordering::Equal)
                            .then(ta.cmp(&tb))
                    });
                    for t in tasks {
                        order.push((w, t));
                    }
                }
            }
        }
        let mut node_available: Vec<f64> = nodes.iter().map(|n| n.queuing_delay_secs()).collect();
        let mut plans: Vec<WorkflowPlan> = inputs
            .iter()
            .map(|inp| vec![0usize; inp.workflow.task_count()])
            .collect();
        let mut planned_finish: Vec<Vec<f64>> = inputs
            .iter()
            .map(|inp| vec![0.0f64; inp.workflow.task_count()])
            .collect();
        let transfer = |from: NodeId, to: NodeId, mb: f64| -> f64 {
            if from == to || mb <= 0.0 {
                return 0.0;
            }
            let bw = bandwidth_mbps(from, to);
            if bw <= 0.0 {
                f64::INFINITY
            } else {
                mb / bw
            }
        };
        for (w, t) in order {
            let inp = &inputs[w];
            let task = inp.workflow.task(t);
            let mut best: Option<(usize, f64)> = None;
            for (h, node) in nodes.iter().enumerate() {
                let mut data_ready = transfer(inp.home, node.node, task.image_size_mb);
                for e in inp.workflow.precedents(t) {
                    let pred_node = nodes[plans[w][e.task.index()]].node;
                    let arrival = planned_finish[w][e.task.index()]
                        + transfer(pred_node, node.node, e.data_mb);
                    data_ready = data_ready.max(arrival);
                }
                let start = node_available[h].max(data_ready);
                let finish = start + node.execution_secs(task.load_mi);
                let better = match best {
                    None => true,
                    Some((bh, bft)) => {
                        finish < bft - 1e-12
                            || ((finish - bft).abs() <= 1e-12 && nodes[h].node < nodes[bh].node)
                    }
                };
                if better {
                    best = Some((h, finish));
                }
            }
            let (h, finish) = best.expect("nodes is non-empty");
            plans[w][t.index()] = h;
            planned_finish[w][t.index()] = finish;
            node_available[h] = finish;
        }
        plans
            .into_iter()
            .map(|p| p.into_iter().map(|h| nodes[h].node).collect())
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn full_ahead_plan_matches_the_exhaustive_reference(
            node_codes in proptest::collection::vec(0u64..=u64::MAX, 1..17),
            dag_seed in 0u64..=u64::MAX,
            workflow_count in 1usize..5,
        ) {
            // Node ids are a stride through 0..48, so a later node often has a lower id and
            // wins a tie.  Capacities include 0 (the node never finishes anything) and repeat;
            // about one node in two is the one before it plus a load jitter on either side of
            // the 1e-12 tie tolerance, a jitter of 0 making an exact twin.  Small loads keep
            // finish times small enough that such jitters survive rounding.
            let mut nodes: Vec<CandidateNode> = Vec::new();
            for (i, &code) in node_codes.iter().enumerate() {
                let node = (i * 29 + 11) % 48;
                let candidate = match nodes.last() {
                    Some(prev) if code >> 63 == 0 => CandidateNode {
                        node,
                        total_load_mi: prev.total_load_mi + load_jitter(code >> 7),
                        ..*prev
                    },
                    _ => CandidateNode {
                        node,
                        capacity_mips: [0.0, 1.0, 2.0, 4.0, 1.0][(code % 5) as usize],
                        slots: 1 + ((code >> 3) % 4) as usize,
                        total_load_mi: [0.0, 10.0, 40.0][((code >> 5) % 3) as usize]
                            + load_jitter(code >> 7),
                    },
                };
                nodes.push(candidate);
            }
            let generator = WorkflowGenerator::new(WorkflowGeneratorConfig {
                tasks: 1..=8,
                fanout: 1..=3,
                load_mi: 1.0..=50.0,
                image_size_mb: 0.0..=10.0,
                data_mb: 0.0..=40.0,
            });
            let mut rng = SimRng::seed_from_u64(dag_seed);
            let workflows = generator.generate_batch(workflow_count, &mut rng);
            let inputs: Vec<PlanInput<'_>> = workflows
                .iter()
                .enumerate()
                .map(|(w, workflow)| PlanInput {
                    home: (dag_seed as usize >> (6 * w)) % 48,
                    workflow,
                })
                .collect();
            let costs = ExpectedCosts::new(2.0, 2.0);
            for algorithm in [Algorithm::Heft, Algorithm::Smf] {
                proptest::prop_assert_eq!(
                    plan_full_ahead(algorithm, &inputs, &nodes, costs, &tiered_bw),
                    exhaustive_reference(algorithm, &inputs, &nodes, costs, &tiered_bw),
                    "{}",
                    algorithm
                );
            }
        }
    }

    #[test]
    fn heft_and_smf_respect_precedence_in_their_plans() {
        // The planned finish time of a successor must not precede that of its precedents; we
        // verify indirectly by checking that the greedy pass assigned precedents before
        // successors (rank ordering guarantees it within a DAG).
        let w = worked_example::workflow_a();
        let analysis = WorkflowAnalysis::new(&w, ExpectedCosts::new(1.0, 1.0));
        for t in w.task_ids() {
            for e in w.successors(t) {
                assert!(
                    analysis.rpm_secs(t) > analysis.rpm_secs(e.task),
                    "upward rank must strictly decrease along edges"
                );
            }
        }
    }
}
