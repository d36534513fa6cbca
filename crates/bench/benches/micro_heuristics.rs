//! Micro-benchmarks of the scheduling decisions themselves (independent of the simulator):
//! the first-phase planning of Algorithm 1 and its competitors over realistic batch sizes, the
//! second-phase ready-set selection of Algorithm 2, the RPM recursion, and the full-ahead
//! planner — the kernels whose complexity Section III.E analyses.
//!
//! Both planning groups estimate bandwidth the way sessions do, on one 48-node Waxman
//! topology: the first phase through the landmark estimate, the full-ahead planner through the
//! exact pairwise bottleneck bandwidths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2pgrid_bench::bench_criterion_config;
use p2pgrid_core::estimate::{CandidateNode, FinishTimeEstimator, PredecessorData};
use p2pgrid_core::fullahead::{plan_full_ahead, PlanInput};
use p2pgrid_core::policy::first_phase::{plan_dispatch, DispatchCandidateTask};
use p2pgrid_core::policy::second_phase::{select_next, ReadyTaskView};
use p2pgrid_core::{Algorithm, SecondPhase};
use p2pgrid_sim::SimRng;
use p2pgrid_topology::{LandmarkEstimator, PairwiseMetrics, WaxmanConfig, WaxmanGenerator};
use p2pgrid_workflow::{
    ExpectedCosts, TaskId, Workflow, WorkflowAnalysis, WorkflowGenerator, WorkflowGeneratorConfig,
};
use std::hint::black_box;

/// Node count of the benches' topology: the science-trace grid.
const TOPOLOGY_NODES: usize = 48;

/// Ground-truth metrics of the one topology both planning groups run on.
fn topology_metrics() -> PairwiseMetrics {
    let mut rng = SimRng::seed_from_u64(5);
    let topology =
        WaxmanGenerator::new(WaxmanConfig::with_nodes(TOPOLOGY_NODES)).generate(&mut rng);
    PairwiseMetrics::compute(&topology)
}

fn synthetic_tasks(count: usize, rng: &mut SimRng) -> Vec<DispatchCandidateTask> {
    (0..count)
        .map(|i| DispatchCandidateTask {
            workflow: i / 5,
            task: TaskId((i % 5) as u32),
            load_mi: rng.gen_range(100.0..=10_000.0),
            image_size_mb: rng.gen_range(10.0..=100.0),
            rpm_secs: rng.gen_range(100.0..=5000.0),
            workflow_ms_secs: rng.gen_range(100.0..=5000.0),
            predecessors: vec![PredecessorData {
                location: rng.gen_range(0..32),
                data_mb: rng.gen_range(100.0..=10_000.0),
            }],
        })
        .collect()
}

fn synthetic_candidates(count: usize, rng: &mut SimRng) -> Vec<CandidateNode> {
    (0..count)
        .map(|i| CandidateNode {
            node: i,
            capacity_mips: *rng.choose(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap(),
            slots: 1,
            total_load_mi: rng.gen_range(0.0..=50_000.0),
        })
        .collect()
}

fn bench_first_phase(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(1);
    // 30 schedule points over ~ log2(1000) = 10 candidate nodes: the per-cycle workload of one
    // busy home node at paper scale.
    let tasks = synthetic_tasks(30, &mut rng);
    let candidates = synthetic_candidates(10, &mut rng);
    let landmarks = LandmarkEstimator::build_default(&topology_metrics(), &mut rng);
    let bw = |a: usize, b: usize| landmarks.estimate_bandwidth_mbps(a, b);
    let estimator = FinishTimeEstimator::new(0, &bw);

    let mut group = c.benchmark_group("first_phase_plan_dispatch");
    for alg in [
        Algorithm::Dsmf,
        Algorithm::Dheft,
        Algorithm::Dsdf,
        Algorithm::MinMin,
        Algorithm::MaxMin,
        Algorithm::Sufferage,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(alg), &alg, |bencher, &alg| {
            bencher.iter(|| {
                let mut cands = candidates.clone();
                black_box(plan_dispatch(
                    alg,
                    black_box(&tasks),
                    &mut cands,
                    &estimator,
                ))
            })
        });
    }
    group.finish();
}

fn bench_second_phase(c: &mut Criterion) {
    let mut rng = SimRng::seed_from_u64(2);
    let ready: Vec<ReadyTaskView> = (0..64)
        .map(|i| ReadyTaskView {
            workflow_ms_secs: rng.gen_range(100.0..=5000.0),
            rpm_secs: rng.gen_range(100.0..=5000.0),
            exec_secs: rng.gen_range(10.0..=1000.0),
            sufferage_secs: rng.gen_range(0.0..=100.0),
            enqueued_seq: i,
        })
        .collect();
    let mut group = c.benchmark_group("second_phase_select_next");
    for rule in [
        SecondPhase::ShortestWorkflowMakespan,
        SecondPhase::LongestRpmFirst,
        SecondPhase::ShortestTaskFirst,
        SecondPhase::Fcfs,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(rule),
            &rule,
            |bencher, &rule| bencher.iter(|| black_box(select_next(rule, black_box(&ready)))),
        );
    }
    group.finish();
}

fn bench_rpm_and_fullahead(c: &mut Criterion) {
    let gen = WorkflowGenerator::new(WorkflowGeneratorConfig::default());
    let mut rng = SimRng::seed_from_u64(3);
    let workflows: Vec<Workflow> = gen.generate_batch(50, &mut rng);
    let costs = ExpectedCosts::new(6.2, 5.0);

    let mut group = c.benchmark_group("workflow_analysis");
    group.bench_function("rpm_recursion_50_workflows", |bencher| {
        bencher.iter(|| {
            let total: f64 = workflows
                .iter()
                .map(|w| WorkflowAnalysis::new(black_box(w), costs).expected_finish_time_secs())
                .sum();
            black_box(total)
        })
    });

    let mut cand_rng = SimRng::seed_from_u64(4);
    let nodes = synthetic_candidates(TOPOLOGY_NODES, &mut cand_rng);
    let metrics = topology_metrics();
    let bw = |a: usize, b: usize| metrics.bandwidth_mbps(a, b);
    for alg in [Algorithm::Heft, Algorithm::Smf] {
        group.bench_function(format!("full_ahead_plan_50_workflows/{alg}"), |bencher| {
            let inputs: Vec<PlanInput<'_>> = workflows
                .iter()
                .map(|w| PlanInput {
                    home: 0,
                    workflow: w,
                })
                .collect();
            bencher.iter(|| black_box(plan_full_ahead(alg, black_box(&inputs), &nodes, costs, &bw)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_criterion_config();
    targets = bench_first_phase, bench_second_phase, bench_rpm_and_fullahead
}
criterion_main!(benches);
