//! Copy-on-write scenario derivation pins.
//!
//! Every `Scenario::with_*` method promises two things at once:
//!
//! 1. **Byte identity** — the derived world behaves exactly like `Scenario::build` of the
//!    equivalent `GridConfig`.  Sharing the `Arc`'d topology/metrics/landmark tables is an
//!    optimisation, never a semantic change: a DSMF run on the derived world must produce a
//!    byte-identical `SimulationReport` to a run on the from-scratch rebuild.
//! 2. **Actual sharing** — the expensive tables really are shared (`Arc` identity, checked
//!    through `shares_topology_with` / `shares_workflows_with`), so a whole sweep pays for
//!    one topology + all-pairs-metrics + landmark computation.
//!
//! A third pin covers the execution layer: running a campaign through the work-stealing pool
//! must not perturb any report — pool sizes 1 and 8 and the sequential path all agree bit
//! for bit.
//!
//! The last pins cover the lazily built gossip trace: the first session on a world builds
//! it, however many start at once; only `with_recovery` shares its parent's trace; and a
//! world derived after its parent's trace exists still runs like a fresh build.

use p2pgrid::experiments::campaign;
use p2pgrid::prelude::*;
use std::str::FromStr;

const MONTAGE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/montage.json");

fn config(seed: u64) -> GridConfig {
    let mut cfg = GridConfig::small(20).with_seed(seed);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=10;
    cfg
}

/// DSMF's report on `scenario`; reports are compared through [`SimulationReport::digest`].
fn dsmf(scenario: &Scenario) -> SimulationReport {
    scenario.simulate_algorithm(Algorithm::Dsmf).run()
}

/// The derived world must be byte-identical to `Scenario::build` of its own config — the
/// config each `with_*` method constructed internally, including any pinned stream seeds.
fn assert_matches_fresh_build(derived: &Scenario, derivation: &str) {
    let rebuilt = Scenario::build(derived.config().clone()).unwrap();
    let d = dsmf(derived);
    assert!(d.completed > 0, "run must make progress to pin anything");
    assert_eq!(
        d.digest(),
        dsmf(&rebuilt).digest(),
        "DSMF after {derivation}: diverged from a fresh build"
    );
}

#[test]
fn with_seed_matches_fresh_build_and_shares_topology() {
    let base = Scenario::build(config(91)).unwrap();
    let derived = base.with_seed(4242).unwrap();
    assert!(derived.shares_topology_with(&base));
    // The workload re-samples from the new master seed, so it must differ...
    assert!(!derived.shares_workflows_with(&base));
    assert_ne!(
        dsmf(&base).digest(),
        dsmf(&derived).digest(),
        "DSMF: with_seed(4242) left the run unchanged"
    );
    // ...while still matching a from-scratch build of the equivalent config.
    assert_matches_fresh_build(&derived, "with_seed(4242)");
}

#[test]
fn with_resource_matches_fresh_build_and_shares_workflows() {
    let base = Scenario::build(config(92)).unwrap();
    let derived = base.with_resource(ResourceModel::multi_core(4)).unwrap();
    assert!(derived.shares_topology_with(&base));
    assert!(derived.shares_workflows_with(&base));
    assert_matches_fresh_build(&derived, "with_resource(multi_core(4))");
}

#[test]
fn with_workflows_matches_fresh_build() {
    let base = Scenario::build(config(93)).unwrap();
    let mut workflow = base.config().workload.generator().unwrap().clone();
    workflow.load_mi = 100.0..=10_000.0;
    workflow.data_mb = 100.0..=10_000.0;
    let derived = base.with_workflows(workflow).unwrap();
    assert!(derived.shares_topology_with(&base));
    assert!(!derived.shares_workflows_with(&base));
    assert_matches_fresh_build(&derived, "with_workflows");
}

#[test]
fn with_load_factor_matches_fresh_build() {
    let base = Scenario::build(config(94)).unwrap();
    let derived = base.with_load_factor(4).unwrap();
    assert!(derived.shares_topology_with(&base));
    assert_matches_fresh_build(&derived, "with_load_factor(4)");
}

#[test]
fn with_churn_matches_fresh_build() {
    let base = Scenario::build(config(95)).unwrap();
    let derived = base
        .with_churn(ChurnConfig::with_dynamic_factor(0.2))
        .unwrap();
    assert!(derived.shares_topology_with(&base));
    assert_matches_fresh_build(&derived, "with_churn(0.2)");
}

#[test]
fn with_algorithm_streams_matches_fresh_build_and_keeps_the_workload() {
    let base = Scenario::build(config(96)).unwrap();
    let derived = base.with_algorithm_streams(777).unwrap();
    // The static substrate is untouched: same topology tables, same workflow set.
    assert!(derived.shares_topology_with(&base));
    assert!(derived.shares_workflows_with(&base));
    assert_matches_fresh_build(&derived, "with_algorithm_streams(777)");
}

#[test]
fn derivations_chain_without_rebuilding_the_topology() {
    let base = Scenario::build(config(97)).unwrap();
    let step1 = base.with_load_factor(3).unwrap();
    let step2 = step1
        .with_churn(ChurnConfig::with_dynamic_factor(0.1))
        .unwrap();
    let step3 = step2.with_seed(1234).unwrap();
    for derived in [&step1, &step2, &step3] {
        assert!(derived.shares_topology_with(&base));
    }
    assert_matches_fresh_build(&step3, "a load-factor, churn and seed chain");
}

#[test]
fn a_32_point_sweep_pays_for_exactly_one_topology_build() {
    // The acceptance criterion: a single-parameter sweep built via `with_seed` performs one
    // topology/PairwiseMetrics/landmark computation total — every derived world points at
    // the base's tables (`Arc` identity), no matter the sweep size.
    let base = Scenario::build(config(98)).unwrap();
    let points: Vec<Scenario> = (0..32)
        .map(|s| base.with_seed(10_000 + s).unwrap())
        .collect();
    for (i, derived) in points.iter().enumerate() {
        assert!(
            derived.shares_topology_with(&base),
            "sweep point {i} rebuilt the topology tables"
        );
    }
    // And the sweep points are genuinely different worlds, not 32 copies of one.
    assert_ne!(
        dsmf(&points[0]).digest(),
        dsmf(&points[31]).digest(),
        "DSMF: sweep points 0 and 31 ran identically"
    );
}

#[test]
fn pooled_campaign_matches_sequential_and_any_pool_size() {
    // Scheduling across threads must never leak into the simulation: the same job list run
    // sequentially, on a 1-worker pool and on an 8-worker pool produces byte-identical
    // reports in the same order.  (CI additionally runs the whole suite under
    // P2PGRID_POOL_THREADS=1 and =8 to pin the global pool path.)
    let campaign_base = Campaign::from_config(config(99)).unwrap();
    let points = [1usize, 2, 3];
    let scenarios = campaign_base
        .derive(&points, |base, &lf| base.with_load_factor(lf))
        .unwrap();
    let jobs = campaign::cross(
        &scenarios,
        &[
            AlgorithmConfig::paper_default(Algorithm::Dsmf),
            AlgorithmConfig::paper_default(Algorithm::MinMin),
        ],
    );
    let sequential: Vec<u64> = campaign::run_sequential(jobs.clone())
        .iter()
        .map(SimulationReport::digest)
        .collect();
    for workers in [1usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap();
        let pooled: Vec<u64> = pool.install(|| {
            campaign::run(jobs.clone())
                .iter()
                .map(SimulationReport::digest)
                .collect()
        });
        assert_eq!(
            pooled, sequential,
            "{workers}-worker pool diverged from the sequential reference"
        );
    }
}

/// One world per `Scenario::with_*` method, each changing something about `base`.
fn derivations(base: &Scenario) -> Vec<(&'static str, Scenario)> {
    let mut workflow = base.config().workload.generator().unwrap().clone();
    workflow.tasks = 3..=6;
    let montage = WorkloadSpec::from_str(&std::fs::read_to_string(MONTAGE).unwrap()).unwrap();
    let faults = StochasticFaults::new(SimDuration::from_hours(2), SimDuration::from_mins(20));
    vec![
        (
            "with_recovery",
            base.with_recovery(RecoveryPolicy::unlimited_retry())
                .unwrap(),
        ),
        ("with_seed", base.with_seed(4343).unwrap()),
        (
            "with_resource",
            base.with_resource(ResourceModel::multi_core(2)).unwrap(),
        ),
        ("with_workflows", base.with_workflows(workflow).unwrap()),
        ("with_workload", base.with_workload(montage).unwrap()),
        (
            "with_arrivals",
            base.with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 4.0 })
                .unwrap(),
        ),
        ("with_load_factor", base.with_load_factor(3).unwrap()),
        (
            "with_churn",
            base.with_churn(ChurnConfig::with_dynamic_factor(0.1))
                .unwrap(),
        ),
        (
            "with_faults",
            base.with_faults(FaultModel::Stochastic(faults)).unwrap(),
        ),
        (
            "with_algorithm_streams",
            base.with_algorithm_streams(888).unwrap(),
        ),
    ]
}

fn churned(seed: u64) -> GridConfig {
    config(seed).with_churn(ChurnConfig::with_dynamic_factor(0.2))
}

#[test]
fn eight_sessions_started_at_once_on_a_fresh_world_share_one_trace() {
    // The first session on a world builds its gossip trace; sessions that start while the
    // build runs wait for it instead of building their own.  Eight algorithms started on an
    // 8-worker pool must finish exactly like eight sessions run one by one on another fresh
    // world of the same config.
    let algorithms: Vec<AlgorithmConfig> = Algorithm::ALL
        .iter()
        .map(|&a| AlgorithmConfig::paper_default(a))
        .collect();
    let reference = Scenario::build(churned(103)).unwrap();
    let sequential: Vec<u64> = campaign::run_sequential(campaign::cross(&[reference], &algorithms))
        .iter()
        .map(SimulationReport::digest)
        .collect();
    let world = Scenario::build(churned(103)).unwrap();
    assert_eq!(
        world.gossip_trace_bytes(),
        None,
        "building a world must not run the gossip protocol"
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap();
    let jobs = campaign::cross(std::slice::from_ref(&world), &algorithms);
    let pooled: Vec<u64> = pool.install(|| {
        campaign::run(jobs)
            .iter()
            .map(SimulationReport::digest)
            .collect()
    });
    for ((algorithm, pooled), sequential) in algorithms.iter().zip(&pooled).zip(&sequential) {
        assert_eq!(
            pooled,
            sequential,
            "{}: a session started alongside seven others diverged from a sequential run",
            algorithm.label()
        );
    }
    let bytes = world
        .gossip_trace_bytes()
        .expect("the sessions built a trace");
    assert!(bytes > 0);
}

#[test]
fn only_with_recovery_shares_its_parents_gossip_trace() {
    // Recovery acts on tasks, never on liveness or gossip, so a recovery-derived world reads
    // its parent's trace — built or not.  Every other derivation changes what the trace
    // holds and starts with none.
    let base = Scenario::build(churned(104)).unwrap();
    let early = base
        .with_recovery(RecoveryPolicy::unlimited_retry())
        .unwrap();
    assert!(early.shares_gossip_trace_with(&base));
    assert_eq!(early.gossip_trace_bytes(), None);
    dsmf(&early);
    assert!(
        base.gossip_trace_bytes().is_some(),
        "a session on the recovery-derived world built the parent's trace"
    );
    for (derivation, derived) in derivations(&base) {
        if derivation == "with_recovery" {
            assert!(derived.shares_gossip_trace_with(&base));
            assert_eq!(derived.gossip_trace_bytes(), base.gossip_trace_bytes());
        } else {
            assert!(
                !derived.shares_gossip_trace_with(&base),
                "{derivation} shares its parent's gossip trace"
            );
            assert_eq!(
                derived.gossip_trace_bytes(),
                None,
                "{derivation} started with a built gossip trace"
            );
        }
    }
}

#[test]
fn worlds_derived_after_their_parent_built_its_trace_match_fresh_builds() {
    let base = Scenario::build(churned(105)).unwrap();
    dsmf(&base);
    assert!(base.gossip_trace_bytes().is_some());
    for (derivation, derived) in derivations(&base) {
        assert_matches_fresh_build(&derived, derivation);
    }
}
