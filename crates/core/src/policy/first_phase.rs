//! First-phase (home-node) dispatch planning — Algorithm 1 and its competitor heuristics.
//!
//! DSMF, DHEFT and DSDF order the schedule points once and place each with Formula 9
//! ([`FinishTimeEstimator::best_candidate`], which skips every candidate its queue-plus-execution
//! bound rules out).  They read every candidate's queuing delay and per-slot rate once, and
//! after each assignment re-read only the candidate that took the task.  Min-min, max-min and
//! sufferage instead pick against the completion-time matrix of the *current* candidate loads
//! after every assignment.
//!
//! ## The incremental completion-time matrix
//!
//! A cell is `max(queue_h, LTD_th) + exec_th`.  The transfer delay and the execution time depend
//! only on the task and the candidate, so the planner computes them once, in flat `T × H`
//! storage; an assignment changes only its candidate's queue, so only that column is
//! refreshed, from the stored terms, bit for bit what a full rebuild would compute.
//!
//! The transfer delays take one bandwidth estimate per (source, candidate), read before the
//! first cell: the sources are the home node, where every program image comes from, and each
//! distinct node holding a precedent's output.  A cell folds Eq. 4 over that table in the order
//! [`FinishTimeEstimator::longest_transmission_delay_secs`] folds it, so it is the same value,
//! from one read per pair instead of one per cell and transfer.
//!
//! Every row keeps a summary — its best candidate (the first index holding the row minimum),
//! the minimum, and the second-smallest value — equal at all times to what scanning the row
//! would give ([`matrix_pick_next`]'s scan).  A pick reads the summaries, O(T).  Refreshing a
//! cell from `old` to `new` leaves the summary exact without a rescan in two cases.  Either the
//! cell did not change (`new == old`), so neither did the row.  Or `old` was above the
//! second-best and `new ≥ old`: a value that was not among the two smallest (so not the best
//! either, which is at most the second-best) only grew, so the two smallest and the first index
//! of the minimum stand.  Otherwise — the cell held the best or the second-best and changed, or
//! it fell — the row is rescanned, O(H).  Queues only grow as loads are added, so most
//! refreshes take an O(1) path and a pick costs O(T) instead of the O(T·H) of rescanning every
//! row.  Both tests are written as "keep the summary only if this holds", so a NaN on either
//! side fails them and forces a rescan.
//!
//! ## One workspace per session
//!
//! A home node re-plans at every scheduling instant, so the engine keeps one `PlanWorkspace`
//! for the whole session — the greedy order and candidate rates, and the matrix's sources,
//! bandwidth table, `T × H` terms, row summaries and remaining rows — and plans every home at
//! every instant through it with `plan_dispatch_into`, which also writes its decisions into a
//! kept buffer.  Each call clears a buffer before it fills it, so a call reads nothing an
//! earlier one left, and once the buffers have grown to the largest plan, planning allocates
//! nothing.  [`plan_dispatch`] runs the same code over a fresh workspace.

use crate::algorithm::Algorithm;
use crate::estimate::{
    transfer_secs_over, CandidateNode, CandidateRates, FinishTimeEstimator, PredecessorData,
};
use crate::NodeId;
use p2pgrid_workflow::TaskId;
use std::cmp::Ordering;

/// One schedule-point task as presented to the first-phase planner.
#[derive(Debug, Clone)]
pub struct DispatchCandidateTask {
    /// Home-node-local workflow index this task belongs to.
    pub workflow: usize,
    /// Task id within its workflow.
    pub task: TaskId,
    /// Computational load in MI.
    pub load_mi: f64,
    /// Program image size in Mb.
    pub image_size_mb: f64,
    /// Rest path makespan RPM of this task under the current average-cost estimates, seconds.
    pub rpm_secs: f64,
    /// Remaining makespan `ms(f)` of its workflow (Eq. 8), seconds.
    pub workflow_ms_secs: f64,
    /// Finished precedents: where their data lives and how much must be moved.
    pub predecessors: Vec<PredecessorData>,
}

/// A dispatch decision produced by the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchDecision {
    /// Home-node-local workflow index.
    pub workflow: usize,
    /// Task id within that workflow.
    pub task: TaskId,
    /// Chosen resource node.
    pub target: NodeId,
    /// Estimated finish time (seconds from the scheduling instant) on the chosen node.
    pub estimated_finish_secs: f64,
    /// The chosen completion-time row's second-best minus best value at decision time, as the
    /// matrix heuristics (min-min, max-min and sufferage) compute it; zero for the Formula 9
    /// planners (DSMF, DHEFT, DSDF and the full-ahead orderings), which keep no matrix.
    pub sufferage_secs: f64,
}

/// The three classical matrix heuristics used as decentralized first-phase competitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixHeuristic {
    /// Earliest-completion-time task first.
    MinMin,
    /// The task whose best completion time is largest goes first.
    MaxMin,
    /// The task that would "suffer" most from losing its best node goes first.
    Sufferage,
}

/// Pick the next `(task, node, sufferage)` from a completion-time matrix restricted to the
/// still-unassigned `remaining` task rows.
///
/// `ct[t][h]` is the estimated completion time of task `t` on candidate `h`.  Ties break toward
/// the lower task index and lower candidate index so decisions are deterministic.  Returns
/// `None` if `remaining` is empty or the matrix has no candidates.
pub fn matrix_pick_next(
    heuristic: MatrixHeuristic,
    ct: &[Vec<f64>],
    remaining: &[usize],
) -> Option<(usize, usize, f64)> {
    if remaining.is_empty() || ct.is_empty() || ct[0].is_empty() {
        return None;
    }
    pick_row(
        heuristic,
        remaining.iter().map(|&t| (t, RowSummary::scan(&ct[t]))),
    )
}

/// What a pick reads of one completion-time row.
#[derive(Debug, Clone, Copy)]
struct RowSummary {
    /// The first candidate index holding the row minimum (0 when no cell is below infinity).
    best_h: usize,
    /// The row minimum over its non-NaN cells (infinity if there is none).
    best: f64,
    /// The second-smallest non-NaN cell, a tie with `best` included (infinity if none).
    second: f64,
}

impl RowSummary {
    fn scan(row: &[f64]) -> Self {
        let mut summary = RowSummary {
            best_h: 0,
            best: f64::INFINITY,
            second: f64::INFINITY,
        };
        for (h, &v) in row.iter().enumerate() {
            if v < summary.best {
                summary.second = summary.best;
                summary.best = v;
                summary.best_h = h;
            } else if v < summary.second {
                summary.second = v;
            }
        }
        summary
    }
}

/// The heuristic's choice among `(task, summary)` rows, in the order given: `(task, node,
/// sufferage)`.  A row without a finite second-best has sufferage zero.
fn pick_row(
    heuristic: MatrixHeuristic,
    rows: impl Iterator<Item = (usize, RowSummary)>,
) -> Option<(usize, usize, f64)> {
    let per_task = rows.map(|(t, s)| {
        let second = if s.second.is_infinite() {
            s.best
        } else {
            s.second
        };
        (t, s.best_h, s.best, second)
    });
    let chosen = match heuristic {
        MatrixHeuristic::MinMin => per_task.min_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        }),
        MatrixHeuristic::MaxMin => per_task.max_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .unwrap_or(Ordering::Equal)
                .then(b.0.cmp(&a.0))
        }),
        MatrixHeuristic::Sufferage => per_task.max_by(|a, b| {
            (a.3 - a.2)
                .partial_cmp(&(b.3 - b.2))
                .unwrap_or(Ordering::Equal)
                .then(b.0.cmp(&a.0))
        }),
    };
    chosen.map(|(t, h, best, second)| (t, h, second - best))
}

/// Plan this cycle's dispatches at one home node (Algorithm 1 for DSMF; the corresponding
/// orderings for the other heuristics).
///
/// `candidates` is the home node's current view of its `RSS`; the planner updates the candidate
/// loads as it assigns tasks (Algorithm 1, line 15), so the caller sees the post-dispatch view.
/// The returned decisions are in dispatch order.
pub fn plan_dispatch(
    algorithm: Algorithm,
    tasks: &[DispatchCandidateTask],
    candidates: &mut [CandidateNode],
    estimator: &FinishTimeEstimator<'_>,
) -> Vec<DispatchDecision> {
    let mut planned = Vec::new();
    plan_dispatch_into(
        algorithm,
        tasks,
        candidates,
        estimator,
        &mut PlanWorkspace::default(),
        &mut planned,
    );
    planned.into_iter().map(|(_, d)| d).collect()
}

/// The buffers one planning call fills, kept between calls (module docs).  Every call clears a
/// buffer before it fills it.
#[derive(Debug, Default)]
pub(crate) struct PlanWorkspace {
    /// The greedy planners' task indices, in planning order.
    order: Vec<usize>,
    /// `CandidateRates::of` each candidate, re-read after the candidate takes a task.
    rates: Vec<CandidateRates>,
    /// The matrix's source nodes — the home node and each node holding a precedent's output —
    /// ascending and distinct.
    sources: Vec<NodeId>,
    /// `bandwidth[row(source) + h]`: the bandwidth from each source to candidate `h`.
    bandwidth: Vec<f64>,
    /// The matrix's transfer delays, execution times and completion times, flat `T × H`.
    ltd: Vec<f64>,
    exec: Vec<f64>,
    ct: Vec<f64>,
    /// Each matrix row's summary.
    summaries: Vec<RowSummary>,
    /// The matrix rows still unassigned, ascending.
    remaining: Vec<usize>,
    /// `(row, node, data)` of the current task's precedents.
    inputs: Vec<(usize, NodeId, f64)>,
}

/// [`plan_dispatch`] through a kept workspace: `planned` is cleared, then receives each
/// decision in dispatch order with the index in `tasks` of the task it places.
pub(crate) fn plan_dispatch_into(
    algorithm: Algorithm,
    tasks: &[DispatchCandidateTask],
    candidates: &mut [CandidateNode],
    estimator: &FinishTimeEstimator<'_>,
    workspace: &mut PlanWorkspace,
    planned: &mut Vec<(usize, DispatchDecision)>,
) {
    planned.clear();
    if tasks.is_empty() || candidates.is_empty() {
        return;
    }
    match algorithm {
        Algorithm::Dsmf | Algorithm::Smf => {
            // Workflows in ascending remaining makespan, tasks within a workflow in descending
            // RPM.  (SMF shares the ordering; it only differs by being planned full-ahead,
            // which the simulation handles elsewhere.)
            greedy_assign(
                tasks,
                candidates,
                estimator,
                workspace,
                planned,
                |ta, tb| {
                    ta.workflow_ms_secs
                        .partial_cmp(&tb.workflow_ms_secs)
                        .unwrap_or(Ordering::Equal)
                        .then(ta.workflow.cmp(&tb.workflow))
                        .then(
                            tb.rpm_secs
                                .partial_cmp(&ta.rpm_secs)
                                .unwrap_or(Ordering::Equal),
                        )
                        .then(ta.task.cmp(&tb.task))
                },
            );
        }
        Algorithm::Dheft | Algorithm::Heft => {
            // Longest RPM first, across all workflows.
            greedy_assign(
                tasks,
                candidates,
                estimator,
                workspace,
                planned,
                |ta, tb| {
                    tb.rpm_secs
                        .partial_cmp(&ta.rpm_secs)
                        .unwrap_or(Ordering::Equal)
                        .then(ta.workflow.cmp(&tb.workflow))
                        .then(ta.task.cmp(&tb.task))
                },
            );
        }
        Algorithm::Dsdf => {
            // Shortest deadline (slack between the workflow's remaining makespan and the task's
            // own rest path makespan) first.
            greedy_assign(
                tasks,
                candidates,
                estimator,
                workspace,
                planned,
                |ta, tb| {
                    let slack_a = ta.workflow_ms_secs - ta.rpm_secs;
                    let slack_b = tb.workflow_ms_secs - tb.rpm_secs;
                    slack_a
                        .partial_cmp(&slack_b)
                        .unwrap_or(Ordering::Equal)
                        .then(ta.workflow.cmp(&tb.workflow))
                        .then(ta.task.cmp(&tb.task))
                },
            );
        }
        Algorithm::MinMin | Algorithm::MaxMin | Algorithm::Sufferage => {
            let heuristic = match algorithm {
                Algorithm::MinMin => MatrixHeuristic::MinMin,
                Algorithm::MaxMin => MatrixHeuristic::MaxMin,
                _ => MatrixHeuristic::Sufferage,
            };
            matrix_assign(heuristic, tasks, candidates, estimator, workspace, planned);
        }
    }
}

/// Min-min, max-min or sufferage over the incremental completion-time matrix (module docs).
fn matrix_assign(
    heuristic: MatrixHeuristic,
    tasks: &[DispatchCandidateTask],
    candidates: &mut [CandidateNode],
    estimator: &FinishTimeEstimator<'_>,
    workspace: &mut PlanWorkspace,
    planned: &mut Vec<(usize, DispatchDecision)>,
) {
    let PlanWorkspace {
        rates,
        sources,
        bandwidth,
        ltd,
        exec,
        ct,
        summaries,
        remaining,
        inputs,
        ..
    } = workspace;
    let width = candidates.len();
    // The bandwidth from every source — the home node and each node holding a precedent's
    // output — to every candidate, read once: `bandwidth[row(source) + h]`.  A transfer
    // within one node reads no link, so neither does the table.
    let home = estimator.home();
    sources.clear();
    sources.extend(
        tasks
            .iter()
            .flat_map(|t| t.predecessors.iter().map(|p| p.location))
            .chain([home]),
    );
    sources.sort_unstable();
    sources.dedup();
    bandwidth.clear();
    bandwidth.extend(sources.iter().flat_map(|&s| {
        candidates.iter().map(move |c| {
            if s == c.node {
                f64::INFINITY
            } else {
                estimator.bandwidth_mbps(s, c.node)
            }
        })
    }));
    let sources = &*sources;
    let row = |node: NodeId| width * sources.binary_search(&node).expect("a listed source");
    let home_row = row(home);
    rates.clear();
    rates.extend(candidates.iter().map(CandidateRates::of));
    ltd.clear();
    exec.clear();
    ct.clear();
    for t in tasks {
        inputs.clear();
        inputs.extend(
            t.predecessors
                .iter()
                .map(|p| (row(p.location), p.location, p.data_mb)),
        );
        for (h, (c, r)) in candidates.iter().zip(rates.iter()).enumerate() {
            // Eq. 4, exactly as `longest_transmission_delay_secs` folds it.
            let transfer = |row: usize, from: NodeId, data_mb: f64| {
                transfer_secs_over(from, c.node, data_mb, || bandwidth[row + h])
            };
            let l = inputs
                .iter()
                .map(|&(row, from, data_mb)| transfer(row, from, data_mb))
                .fold(transfer(home_row, home, t.image_size_mb), f64::max);
            let e = r.execution_secs(t.load_mi);
            ltd.push(l);
            exec.push(e);
            ct.push(r.queue_secs.max(l) + e);
        }
    }
    summaries.clear();
    summaries.extend(ct.chunks_exact(width).map(RowSummary::scan));
    remaining.clear();
    remaining.extend(0..tasks.len());
    while let Some((t_idx, h, sufferage)) =
        pick_row(heuristic, remaining.iter().map(|&t| (t, summaries[t])))
    {
        let t = &tasks[t_idx];
        planned.push((
            t_idx,
            DispatchDecision {
                workflow: t.workflow,
                task: t.task,
                target: candidates[h].node,
                estimated_finish_secs: ct[t_idx * width + h],
                sufferage_secs: sufferage,
            },
        ));
        candidates[h].add_load(t.load_mi);
        remaining.retain(|&x| x != t_idx);
        let queue = candidates[h].queuing_delay_secs();
        for &r in remaining.iter() {
            let cell = r * width + h;
            let old = ct[cell];
            let new = queue.max(ltd[cell]) + exec[cell];
            ct[cell] = new;
            let s = &mut summaries[r];
            let summary_stands = new == old || (old > s.second && new >= old);
            if !summary_stands {
                *s = RowSummary::scan(&ct[r * width..(r + 1) * width]);
            }
        }
    }
}

/// Formula 9 for each task, taken in the stable sort by `planning_order`, re-reading only the
/// rates of the candidate that took the last task.
fn greedy_assign(
    tasks: &[DispatchCandidateTask],
    candidates: &mut [CandidateNode],
    estimator: &FinishTimeEstimator<'_>,
    workspace: &mut PlanWorkspace,
    planned: &mut Vec<(usize, DispatchDecision)>,
    planning_order: impl Fn(&DispatchCandidateTask, &DispatchCandidateTask) -> Ordering,
) {
    let PlanWorkspace { order, rates, .. } = workspace;
    order.clear();
    order.extend(0..tasks.len());
    order.sort_by(|&a, &b| planning_order(&tasks[a], &tasks[b]));
    rates.clear();
    rates.extend(candidates.iter().map(CandidateRates::of));
    for &i in order.iter() {
        let t = &tasks[i];
        let Some((idx, ft)) = estimator.best_of(
            candidates,
            rates,
            t.load_mi,
            t.image_size_mb,
            &t.predecessors,
        ) else {
            continue;
        };
        planned.push((
            i,
            DispatchDecision {
                workflow: t.workflow,
                task: t.task,
                target: candidates[idx].node,
                estimated_finish_secs: ft,
                sufferage_secs: 0.0,
            },
        ));
        candidates[idx].add_load(t.load_mi);
        rates[idx] = CandidateRates::of(&candidates[idx]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::tests::tiered_bw;

    fn uniform_bw(a: NodeId, b: NodeId) -> f64 {
        if a == b {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// The four schedule-point tasks of the Fig. 3 worked example with their paper RPM values
    /// and workflow makespans (workflow 0 = A with ms 115, workflow 1 = B with ms 65).
    fn fig3_tasks() -> Vec<DispatchCandidateTask> {
        let mk = |workflow, task, rpm, ms| DispatchCandidateTask {
            workflow,
            task: TaskId(task),
            load_mi: 10.0,
            image_size_mb: 0.0,
            rpm_secs: rpm,
            workflow_ms_secs: ms,
            predecessors: vec![],
        };
        vec![
            mk(0, 1, 80.0, 115.0),  // A2
            mk(0, 2, 115.0, 115.0), // A3
            mk(1, 1, 65.0, 65.0),   // B2
            mk(1, 2, 60.0, 65.0),   // B3
        ]
    }

    fn idle_candidates(n: usize) -> Vec<CandidateNode> {
        (0..n)
            .map(|i| CandidateNode::single_slot(100 + i, 1.0, 0.0))
            .collect()
    }

    fn dispatch_order(decisions: &[DispatchDecision]) -> Vec<(usize, u32)> {
        decisions.iter().map(|d| (d.workflow, d.task.0)).collect()
    }

    #[test]
    fn dsmf_orders_b2_b3_a3_a2_as_in_fig3() {
        let tasks = fig3_tasks();
        let mut candidates = idle_candidates(3);
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        let decisions = plan_dispatch(Algorithm::Dsmf, &tasks, &mut candidates, &est);
        // The paper: "According to DSMF, the scheduling order is thus B2, B3, A3, A2."
        assert_eq!(
            dispatch_order(&decisions),
            vec![(1, 1), (1, 2), (0, 2), (0, 1)]
        );
    }

    #[test]
    fn dheft_orders_by_decreasing_rpm_as_in_fig3() {
        let tasks = fig3_tasks();
        let mut candidates = idle_candidates(3);
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        let decisions = plan_dispatch(Algorithm::Dheft, &tasks, &mut candidates, &est);
        // The paper: "The HEFT algorithm will choose A3, A2, B2, and B3 one by one."
        assert_eq!(
            dispatch_order(&decisions),
            vec![(0, 2), (0, 1), (1, 1), (1, 2)]
        );
    }

    #[test]
    fn dsdf_prefers_critical_tasks_of_each_workflow() {
        let tasks = fig3_tasks();
        let mut candidates = idle_candidates(3);
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        let decisions = plan_dispatch(Algorithm::Dsdf, &tasks, &mut candidates, &est);
        let order = dispatch_order(&decisions);
        // Slacks: A3 = 0, B2 = 0, B3 = 5, A2 = 35 — so both critical tasks come first and A2
        // (the largest slack) comes last.
        assert_eq!(order[3], (0, 1));
        assert!(order[..2].contains(&(0, 2)));
        assert!(order[..2].contains(&(1, 1)));
    }

    #[test]
    fn fig3_matrix_min_min_and_max_min_first_picks() {
        // The estimated finish-time matrix of Fig. 3 (rows A2, A3, B2, B3; columns X, Y, Z).
        let ct = vec![
            vec![15.0, 10.0, 30.0],
            vec![30.0, 50.0, 40.0],
            vec![50.0, 60.0, 40.0],
            vec![40.0, 20.0, 30.0],
        ];
        let remaining = vec![0, 1, 2, 3];
        // min-min selects A2 (its best completion time, 10 on Y, is the global minimum).
        let (t, h, _) = matrix_pick_next(MatrixHeuristic::MinMin, &ct, &remaining).unwrap();
        assert_eq!((t, h), (0, 1));
        // max-min selects B2 (its best completion time, 40 on Z, is the largest best).
        let (t, h, _) = matrix_pick_next(MatrixHeuristic::MaxMin, &ct, &remaining).unwrap();
        assert_eq!((t, h), (2, 2));
        // sufferage: differences between second-best and best are 5 (A2), 10 (A3), 10 (B2),
        // 10 (B3); the first task index with the maximum (A3) wins deterministically.
        let (t, _, s) = matrix_pick_next(MatrixHeuristic::Sufferage, &ct, &remaining).unwrap();
        assert_eq!(t, 1);
        assert_eq!(s, 10.0);
    }

    #[test]
    fn matrix_pick_respects_remaining_set_and_empty_inputs() {
        let ct = vec![vec![5.0, 1.0], vec![2.0, 9.0]];
        let (t, h, _) = matrix_pick_next(MatrixHeuristic::MinMin, &ct, &[1]).unwrap();
        assert_eq!((t, h), (1, 0));
        assert!(matrix_pick_next(MatrixHeuristic::MinMin, &ct, &[]).is_none());
        assert!(matrix_pick_next(MatrixHeuristic::MinMin, &[], &[0]).is_none());
    }

    #[test]
    fn single_candidate_sufferage_is_zero() {
        let ct = vec![vec![5.0], vec![2.0]];
        let (_, _, s) = matrix_pick_next(MatrixHeuristic::Sufferage, &ct, &[0, 1]).unwrap();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn min_min_greedy_assignment_spreads_load() {
        // Two identical tasks, two identical idle nodes: after the first assignment the first
        // node is loaded, so the second task must go to the other node.
        let tasks: Vec<DispatchCandidateTask> = (0..2)
            .map(|i| DispatchCandidateTask {
                workflow: 0,
                task: TaskId(i),
                load_mi: 1000.0,
                image_size_mb: 0.0,
                rpm_secs: 10.0,
                workflow_ms_secs: 10.0,
                predecessors: vec![],
            })
            .collect();
        let mut candidates = idle_candidates(2);
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        let decisions = plan_dispatch(Algorithm::MinMin, &tasks, &mut candidates, &est);
        assert_eq!(decisions.len(), 2);
        assert_ne!(decisions[0].target, decisions[1].target);
        // Both candidates now carry exactly one task's load.
        assert!(candidates.iter().all(|c| c.total_load_mi == 1000.0));
    }

    #[test]
    fn greedy_heuristics_also_balance_when_queues_grow() {
        // DSMF dispatching four equal tasks over two equal idle nodes must alternate targets,
        // because each dispatch updates the local copy of the RSS record.
        let tasks: Vec<DispatchCandidateTask> = (0..4)
            .map(|i| DispatchCandidateTask {
                workflow: i as usize,
                task: TaskId(0),
                load_mi: 500.0,
                image_size_mb: 0.0,
                rpm_secs: 100.0,
                workflow_ms_secs: 100.0,
                predecessors: vec![],
            })
            .collect();
        let mut candidates = idle_candidates(2);
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        let decisions = plan_dispatch(Algorithm::Dsmf, &tasks, &mut candidates, &est);
        let to_first = decisions.iter().filter(|d| d.target == 100).count();
        let to_second = decisions.iter().filter(|d| d.target == 101).count();
        assert_eq!(to_first, 2);
        assert_eq!(to_second, 2);
    }

    #[test]
    fn equal_aggregate_slot_farm_does_not_attract_a_single_long_task() {
        // The capacity-illusion regression at planner level: a 16-slot node advertising the
        // same 16 MIPS aggregate as a single-core node must lose the placement of one long
        // task under every heuristic — one task only ever runs on one 1 MIPS slot there.
        let tasks = vec![DispatchCandidateTask {
            workflow: 0,
            task: TaskId(0),
            load_mi: 8000.0,
            image_size_mb: 0.0,
            rpm_secs: 1.0,
            workflow_ms_secs: 1.0,
            predecessors: vec![],
        }];
        let slot_farm = CandidateNode {
            node: 1,
            capacity_mips: 16.0,
            slots: 16,
            total_load_mi: 0.0,
        };
        let single_core = CandidateNode::single_slot(2, 16.0, 0.0);
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        for alg in [
            Algorithm::Dsmf,
            Algorithm::Dheft,
            Algorithm::Dsdf,
            Algorithm::MinMin,
            Algorithm::MaxMin,
            Algorithm::Sufferage,
        ] {
            let mut cands = vec![slot_farm, single_core];
            let d = plan_dispatch(alg, &tasks, &mut cands, &est);
            assert_eq!(
                d[0].target, 2,
                "{alg}: the long task belongs on the fast single core"
            );
        }
    }

    #[test]
    fn empty_inputs_produce_no_decisions() {
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        let mut candidates = idle_candidates(2);
        assert!(plan_dispatch(Algorithm::Dsmf, &[], &mut candidates, &est).is_empty());
        let tasks = fig3_tasks();
        let mut no_candidates: Vec<CandidateNode> = Vec::new();
        assert!(plan_dispatch(Algorithm::Dsmf, &tasks, &mut no_candidates, &est).is_empty());
    }

    #[test]
    fn planners_never_read_a_link_within_one_node() {
        // The home node and every precedent's output sit on candidates, so each planner meets
        // transfers within one node, which take no time and read no link.
        let bw = |a: NodeId, b: NodeId| {
            assert_ne!(a, b, "read the link from node {a} to itself");
            1.0
        };
        let est = FinishTimeEstimator::new(100, &bw);
        let tasks: Vec<DispatchCandidateTask> = (0..3)
            .map(|i| DispatchCandidateTask {
                workflow: 0,
                task: TaskId(i),
                load_mi: 100.0,
                image_size_mb: 10.0,
                rpm_secs: 1.0,
                workflow_ms_secs: 1.0,
                predecessors: vec![PredecessorData {
                    location: 100 + i as NodeId,
                    data_mb: 50.0,
                }],
            })
            .collect();
        for alg in [
            Algorithm::Dsmf,
            Algorithm::Dheft,
            Algorithm::Dsdf,
            Algorithm::MinMin,
            Algorithm::MaxMin,
            Algorithm::Sufferage,
        ] {
            let mut candidates = idle_candidates(3);
            assert_eq!(plan_dispatch(alg, &tasks, &mut candidates, &est).len(), 3);
        }
    }

    #[test]
    fn faster_node_attracts_the_long_task() {
        // One powerful node and one weak node: the long task must land on the 16 MIPS node.
        let tasks = vec![DispatchCandidateTask {
            workflow: 0,
            task: TaskId(0),
            load_mi: 8000.0,
            image_size_mb: 0.0,
            rpm_secs: 1.0,
            workflow_ms_secs: 1.0,
            predecessors: vec![],
        }];
        let mut candidates = vec![
            CandidateNode::single_slot(1, 1.0, 0.0),
            CandidateNode::single_slot(2, 16.0, 0.0),
        ];
        let est = FinishTimeEstimator::new(0, &uniform_bw);
        for alg in [
            Algorithm::Dsmf,
            Algorithm::Dheft,
            Algorithm::Dsdf,
            Algorithm::MinMin,
            Algorithm::MaxMin,
            Algorithm::Sufferage,
        ] {
            let mut cands = candidates.clone();
            let d = plan_dispatch(alg, &tasks, &mut cands, &est);
            assert_eq!(d.len(), 1, "{alg}: task not dispatched");
            assert_eq!(
                d[0].target, 2,
                "{alg}: long task should go to the fast node"
            );
        }
        let _ = &mut candidates;
    }

    /// The matrix heuristics as first written: rebuild the whole completion-time matrix
    /// against the current candidate loads before every pick.  Kept as the oracle the
    /// column-refreshing planner must match.
    fn rebuild_after_every_assignment(
        heuristic: MatrixHeuristic,
        tasks: &[DispatchCandidateTask],
        candidates: &mut [CandidateNode],
        estimator: &FinishTimeEstimator<'_>,
    ) -> Vec<DispatchDecision> {
        let mut decisions = Vec::new();
        let mut remaining: Vec<usize> = (0..tasks.len()).collect();
        while !remaining.is_empty() {
            let ct: Vec<Vec<f64>> = tasks
                .iter()
                .map(|t| {
                    candidates
                        .iter()
                        .map(|c| {
                            estimator.finish_time_secs(
                                c,
                                t.load_mi,
                                t.image_size_mb,
                                &t.predecessors,
                            )
                        })
                        .collect()
                })
                .collect();
            let Some((t_idx, h_idx, sufferage)) = matrix_pick_next(heuristic, &ct, &remaining)
            else {
                break;
            };
            let t = &tasks[t_idx];
            decisions.push(DispatchDecision {
                workflow: t.workflow,
                task: t.task,
                target: candidates[h_idx].node,
                estimated_finish_secs: ct[t_idx][h_idx],
                sufferage_secs: sufferage,
            });
            candidates[h_idx].add_load(t.load_mi);
            remaining.retain(|&x| x != t_idx);
        }
        decisions
    }

    /// Candidate `i` is node `2 i`; odd nodes never are candidates.  Capacities, slots and
    /// loads come from small sets, so equal candidates — and tied completion times — are
    /// common.  Capacity 0 (infinite queue and execution) fills whole columns with infinity.
    fn decode_candidate(i: usize, code: u64) -> CandidateNode {
        CandidateNode {
            node: 2 * i,
            capacity_mips: [0.0, 1.0, 2.0, 4.0, 1.0][(code % 5) as usize],
            slots: [1, 1, 2, 4][((code >> 2) % 4) as usize],
            total_load_mi: [0.0, 0.0, 100.0, 400.0][((code >> 4) % 4) as usize],
        }
    }

    /// A task with up to three predecessors on any of nodes 0–47, candidate or not.  One task
    /// in eight weighs 1e-9 or 3e-14 MI, so placing it moves its candidate's cells by less than
    /// a part in a billion, or by a few units in the last place.
    fn decode_task(i: usize, code: u64) -> DispatchCandidateTask {
        let predecessors = (0..(code >> 6) % 4)
            .map(|p| {
                let bits = code >> (8 + 8 * p);
                PredecessorData {
                    location: (bits % 48) as NodeId,
                    data_mb: [0.0, 10.0, 50.0, 200.0][((bits >> 6) % 4) as usize],
                }
            })
            .collect();
        DispatchCandidateTask {
            workflow: i / 4,
            task: TaskId((i % 4) as u32),
            load_mi: if (code >> 56).is_multiple_of(8) {
                [1e-9, 3e-14][((code >> 59) % 2) as usize]
            } else {
                [100.0, 100.0, 200.0, 800.0][(code % 4) as usize]
            },
            image_size_mb: [0.0, 10.0][((code >> 2) % 2) as usize],
            rpm_secs: 0.0,
            workflow_ms_secs: 0.0,
            predecessors,
        }
    }

    proptest::proptest! {
        #[test]
        fn matrix_heuristics_match_the_full_rebuild_oracle(
            task_codes in proptest::collection::vec(0u64..=u64::MAX, 1..65),
            candidate_codes in proptest::collection::vec(0u64..=u64::MAX, 1..25),
            home in 0usize..48,
        ) {
            // About one task and one candidate in four is a twin of the one before it, which
            // forces exact ties in completion time across rows and across columns.
            let mut tasks: Vec<DispatchCandidateTask> = Vec::new();
            for (i, &code) in task_codes.iter().enumerate() {
                let task = match tasks.last() {
                    Some(prev) if code >> 62 == 0 => DispatchCandidateTask {
                        task: TaskId((i % 4) as u32),
                        workflow: i / 4,
                        ..prev.clone()
                    },
                    _ => decode_task(i, code),
                };
                tasks.push(task);
            }
            let mut candidates: Vec<CandidateNode> = Vec::new();
            for (i, &code) in candidate_codes.iter().enumerate() {
                let candidate = match candidates.last() {
                    Some(prev) if code >> 62 == 0 => CandidateNode {
                        node: 2 * i,
                        ..*prev
                    },
                    _ => decode_candidate(i, code),
                };
                candidates.push(candidate);
            }
            let est = FinishTimeEstimator::new(home, &tiered_bw);
            for (algorithm, heuristic) in [
                (Algorithm::MinMin, MatrixHeuristic::MinMin),
                (Algorithm::MaxMin, MatrixHeuristic::MaxMin),
                (Algorithm::Sufferage, MatrixHeuristic::Sufferage),
            ] {
                let mut planned_view = candidates.clone();
                let planned = plan_dispatch(algorithm, &tasks, &mut planned_view, &est);
                let mut oracle_view = candidates.clone();
                let oracle =
                    rebuild_after_every_assignment(heuristic, &tasks, &mut oracle_view, &est);
                let bits = |d: &[DispatchDecision]| {
                    d.iter()
                        .map(|d| {
                            (
                                d.workflow,
                                d.task,
                                d.target,
                                d.estimated_finish_secs.to_bits(),
                                d.sufferage_secs.to_bits(),
                            )
                        })
                        .collect::<Vec<_>>()
                };
                proptest::prop_assert_eq!(bits(&planned), bits(&oracle), "{}", algorithm);
                proptest::prop_assert_eq!(planned.len(), tasks.len());
                proptest::prop_assert_eq!(planned_view, oracle_view);
            }
        }

        /// One workspace carried through a random sequence of plans — every just-in-time
        /// algorithm, 0–40 tasks, 0–24 candidates, precedents on candidate and other nodes,
        /// homes varying call to call — plans each call exactly as a fresh workspace does: the
        /// same decisions to the bit, each naming the index of the task it places, the same
        /// post-plan candidate view and the same links read, in the same order.
        #[test]
        fn a_kept_workspace_plans_every_call_like_a_fresh_one(
            calls in proptest::collection::vec(
                proptest::collection::vec(0u64..=u64::MAX, 65..66),
                1..8,
            ),
        ) {
            let mut workspace = PlanWorkspace::default();
            let mut planned = Vec::new();
            for codes in &calls {
                // A header code, then forty task codes and twenty-four candidate codes.
                let header = codes[0];
                let algorithm = Algorithm::DECENTRALIZED[(header % 6) as usize];
                let home = ((header >> 8) % 48) as NodeId;
                let tasks: Vec<DispatchCandidateTask> = codes[1..=((header >> 16) % 41) as usize]
                    .iter()
                    .enumerate()
                    .map(|(i, &code)| DispatchCandidateTask {
                        rpm_secs: [0.0, 10.0, 50.0, 120.0][((code >> 40) % 4) as usize],
                        workflow_ms_secs: [0.0, 60.0, 120.0][((code >> 42) % 3) as usize],
                        ..decode_task(i, code)
                    })
                    .collect();
                let candidates: Vec<CandidateNode> = codes[41..41 + ((header >> 24) % 25) as usize]
                    .iter()
                    .enumerate()
                    .map(|(i, &code)| decode_candidate(i, code))
                    .collect();
                let reads = std::cell::RefCell::new(Vec::new());
                let bw = |a: NodeId, b: NodeId| {
                    reads.borrow_mut().push((a, b));
                    tiered_bw(a, b)
                };
                let est = FinishTimeEstimator::new(home, &bw);
                let mut fresh_view = candidates.clone();
                let fresh = plan_dispatch(algorithm, &tasks, &mut fresh_view, &est);
                let fresh_reads = reads.take();
                let mut kept_view = candidates.clone();
                plan_dispatch_into(
                    algorithm,
                    &tasks,
                    &mut kept_view,
                    &est,
                    &mut workspace,
                    &mut planned,
                );
                let kept_reads = reads.take();
                let bits = |i: usize, d: &DispatchDecision| {
                    (
                        i,
                        d.workflow,
                        d.task,
                        d.target,
                        d.estimated_finish_secs.to_bits(),
                        d.sufferage_secs.to_bits(),
                    )
                };
                let fresh_bits: Vec<_> = fresh
                    .iter()
                    .map(|d| {
                        let i = tasks
                            .iter()
                            .position(|t| (t.workflow, t.task) == (d.workflow, d.task))
                            .expect("a decision places a listed task");
                        bits(i, d)
                    })
                    .collect();
                let kept_bits: Vec<_> = planned.iter().map(|(i, d)| bits(*i, d)).collect();
                proptest::prop_assert_eq!(kept_bits, fresh_bits, "{}", algorithm);
                proptest::prop_assert_eq!(&kept_view, &fresh_view);
                proptest::prop_assert_eq!(kept_reads, fresh_reads);
            }
        }
    }
}
