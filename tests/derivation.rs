//! Scenario derivation pins.
//!
//! `Scenario::derive` (and `Scenario::with_seed`, built on it) promises two things at once:
//!
//! 1. **Byte identity** — the derived world behaves exactly like `Scenario::build` of the
//!    edited `GridConfig`.  Sharing the `Arc`'d topology/metrics/landmark tables, workflow set
//!    and gossip trace is an optimisation, never a semantic change: a DSMF run on the derived
//!    world must produce a byte-identical `SimulationReport` to a run on a fresh build, for
//!    every edit and chain of edits, whether or not the parent has built its trace yet.
//! 2. **Actual sharing** — the expensive tables really are shared (`Arc` identity, checked
//!    through `shares_topology_with` / `shares_workflows_with` / `shares_gossip_trace_with`),
//!    so a whole sweep pays for one topology + all-pairs-metrics + landmark computation, and
//!    a sweep over a knob the gossip protocol does not read pays for one protocol run.
//!
//! A third pin covers the execution layer: running a campaign through the parallel map must
//! not perturb any report — pool widths 1 and 8 and the sequential path all agree bit for
//! bit.

use p2pgrid::experiments::campaign;
use p2pgrid::prelude::*;
use proptest::prelude::*;
use std::str::FromStr;

const MONTAGE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/montage.json");

fn config(seed: u64) -> GridConfig {
    let mut cfg = GridConfig::small(20).with_seed(seed);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=10;
    cfg
}

fn montage() -> WorkloadSpec {
    WorkloadSpec::from_str(&std::fs::read_to_string(MONTAGE).unwrap()).unwrap()
}

/// DSMF's report on `scenario`; reports are compared through [`SimulationReport::digest`].
fn dsmf(scenario: &Scenario) -> SimulationReport {
    scenario.simulate_algorithm(Algorithm::Dsmf).run()
}

/// The derived world must be byte-identical to `Scenario::build` of its own config — the
/// edited config, including its pinned network seed.
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
    let derived = base
        .derive(|c| c.with_resource(ResourceModel::multi_core(4)))
        .unwrap();
    assert!(derived.shares_topology_with(&base));
    assert!(derived.shares_workflows_with(&base));
    assert_matches_fresh_build(&derived, "with_resource(multi_core(4))");
}

#[test]
fn with_load_and_data_matches_fresh_build() {
    let base = Scenario::build(config(93)).unwrap();
    let derived = base
        .derive(|c| c.with_load_and_data(100.0..=10_000.0, 100.0..=10_000.0))
        .unwrap();
    assert!(derived.shares_topology_with(&base));
    assert!(!derived.shares_workflows_with(&base));
    assert_matches_fresh_build(&derived, "with_load_and_data");
}

#[test]
fn with_load_factor_matches_fresh_build() {
    let base = Scenario::build(config(94)).unwrap();
    let derived = base.derive(|c| c.with_load_factor(4)).unwrap();
    assert!(derived.shares_topology_with(&base));
    assert_matches_fresh_build(&derived, "with_load_factor(4)");
}

#[test]
fn with_churn_matches_fresh_build() {
    let base = Scenario::build(config(95)).unwrap();
    let derived = base
        .derive(|c| c.with_churn(ChurnConfig::with_dynamic_factor(0.2)))
        .unwrap();
    assert!(derived.shares_topology_with(&base));
    assert_matches_fresh_build(&derived, "with_churn(0.2)");
}

/// A gossip-config edit: records travel one hop fewer (ttl 4 → 3).
fn shorter_gossip_ttl(mut config: GridConfig) -> GridConfig {
    config.gossip.ttl -= 1;
    config
}

#[test]
fn gossip_config_edits_match_fresh_build_and_keep_the_workload() {
    let base = Scenario::build(config(96)).unwrap();
    let derived = base.derive(shorter_gossip_ttl).unwrap();
    // The static substrate is untouched: same topology tables, same workflow set.
    assert!(derived.shares_topology_with(&base));
    assert!(derived.shares_workflows_with(&base));
    assert!(!derived.shares_gossip_trace_with(&base));
    assert_matches_fresh_build(&derived, "a shorter gossip ttl");
}

#[test]
fn derivations_chain_without_rebuilding_the_topology() {
    let base = Scenario::build(config(97)).unwrap();
    let step1 = base.derive(|c| c.with_load_factor(3)).unwrap();
    let step2 = step1
        .derive(|c| c.with_churn(ChurnConfig::with_dynamic_factor(0.1)))
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
    let base = Scenario::build(config(99)).unwrap();
    let scenarios: Vec<Scenario> = [1usize, 2, 3]
        .iter()
        .map(|&lf| base.derive(|c| c.with_load_factor(lf)).unwrap())
        .collect();
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

/// One world per kind of edit the sweeps make, each changing something about `base`, with
/// whether the edit leaves every input of the gossip trace unchanged.
fn derivations(base: &Scenario) -> Vec<(&'static str, Scenario, bool)> {
    let faults = StochasticFaults::new(SimDuration::from_hours(2), SimDuration::from_mins(20));
    let derive = |edit: &dyn Fn(GridConfig) -> GridConfig| base.derive(edit).unwrap();
    vec![
        (
            "recovery",
            derive(&|c| c.with_recovery(RecoveryPolicy::unlimited_retry())),
            true,
        ),
        ("load factor", derive(&|c| c.with_load_factor(3)), true),
        (
            "generator (CCR)",
            derive(&|c| c.with_load_and_data(100.0..=10_000.0, 10.0..=1000.0)),
            true,
        ),
        (
            "arrivals",
            derive(&|c| c.with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 4.0 })),
            true,
        ),
        ("seed", base.with_seed(4343).unwrap(), false),
        (
            "resource",
            derive(&|c| c.with_resource(ResourceModel::multi_core(2))),
            false,
        ),
        (
            "churn",
            derive(&|c| c.with_churn(ChurnConfig::with_dynamic_factor(0.1))),
            false,
        ),
        (
            "faults",
            derive(&|c| c.with_faults(FaultModel::Stochastic(faults))),
            false,
        ),
        ("gossip config", derive(&shorter_gossip_ttl), false),
        (
            "Montage workload",
            derive(&|c| c.with_workload(montage())),
            false,
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
fn derived_worlds_share_the_gossip_trace_exactly_when_its_inputs_match() {
    // The protocol reads neither the DAGs, nor the load factor, nor the arrival times, nor
    // the recovery policy, so those derivations read their parent's trace — built or not.
    // Every other derivation changes what the trace holds and starts with none.
    let base = Scenario::build(churned(104)).unwrap();
    let early = base.derive(|c| c.with_load_factor(3)).unwrap();
    assert!(early.shares_gossip_trace_with(&base));
    assert_eq!(early.gossip_trace_bytes(), None);
    dsmf(&early);
    assert!(
        base.gossip_trace_bytes().is_some(),
        "a session on the load-factor world built the parent's trace"
    );
    // Sharing follows a chain of such derivations.
    let chained = early
        .derive(|c| c.with_recovery(RecoveryPolicy::unlimited_retry()))
        .unwrap();
    assert!(chained.shares_gossip_trace_with(&base));
    for (derivation, derived, shares) in derivations(&base) {
        assert_eq!(
            derived.shares_gossip_trace_with(&base),
            shares,
            "{derivation}: shares its parent's gossip trace"
        );
        let expected = if shares {
            base.gossip_trace_bytes()
        } else {
            None
        };
        assert_eq!(
            derived.gossip_trace_bytes(),
            expected,
            "{derivation}: the trace it starts with"
        );
    }
}

#[test]
fn worlds_derived_after_their_parent_built_its_trace_match_fresh_builds() {
    let base = Scenario::build(churned(105)).unwrap();
    dsmf(&base);
    assert!(base.gossip_trace_bytes().is_some());
    for (derivation, derived, _) in derivations(&base) {
        assert_matches_fresh_build(&derived, derivation);
    }
}

/// The kinds of config edit the property draws from, one per field family.
const EDITS: usize = 16;

/// Edit `kind` of [`EDITS`], with its parameters drawn from `p`.  Every edit keeps the
/// config valid.
fn edit(config: GridConfig, kind: usize, p: u64) -> GridConfig {
    let mins = SimDuration::from_mins;
    let pick = |n: u64| (p % n) as usize;
    match kind {
        0 => config.with_seed(p % 1000),
        // Pin the network where it is and re-seed everything else, as `with_seed` does.
        1 => {
            let mut config = config;
            config.network_seed = Some(config.stream_seed(StreamKind::Topology));
            config.with_seed(p % 1000)
        }
        // Re-seed the network alone.
        2 => {
            let mut config = config;
            config.network_seed = Some((p >> 8) % 1000);
            config
        }
        3 => config.with_load_factor(1 + pick(3)),
        4 => {
            let mut config = config;
            config.workload = WorkloadSource::Synthetic(WorkflowGeneratorConfig {
                tasks: 2..=2 + (p % 6) as u32,
                ..WorkflowGeneratorConfig::with_load_and_data(
                    10.0..=100.0 * (1 + (p >> 4) % 100) as f64,
                    10.0..=100.0 * (1 + (p >> 12) % 100) as f64,
                )
            });
            config
        }
        5 => config.with_workload(montage()),
        6 => config.with_arrivals(match pick(3) {
            0 => ArrivalProcess::Batch,
            _ => ArrivalProcess::Poisson {
                rate_per_hour: 1.0 + ((p >> 4) % 20) as f64,
            },
        }),
        7 => config.with_resource(match pick(3) {
            0 => ResourceModel::single_cpu(),
            1 => ResourceModel::multi_core(2),
            _ => ResourceModel::multi_core(2).preemptive(),
        }),
        8 => {
            let mut config = config;
            config.capacity = match pick(2) {
                0 => CapacityModel::default(),
                _ => CapacityModel::Uniform(1.0 + ((p >> 4) % 8) as f64),
            };
            config
        }
        9 => config.with_churn(ChurnConfig::with_dynamic_factor([0.0, 0.2][pick(2)])),
        10 => config.with_faults(match pick(3) {
            0 => FaultModel::Off,
            _ => FaultModel::Stochastic(StochasticFaults::new(
                SimDuration::from_hours(1 + (p >> 4) % 4),
                mins(10 + (p >> 8) % 30),
            )),
        }),
        11 => config.with_recovery(match pick(4) {
            0 => RecoveryPolicy::FailWorkflow,
            1 => RecoveryPolicy::unlimited_retry(),
            2 => RecoveryPolicy::Checkpoint { interval: mins(10) },
            _ => RecoveryPolicy::Replicate { copies: 2 },
        }),
        12 => {
            let mut config = config;
            config.gossip.ttl = pick(6) as u32;
            config.gossip.staleness_limit = mins(5 + (p >> 4) % 120);
            config
        }
        13 => {
            let mut config = config;
            if p & 1 == 1 {
                config.gossip_interval = mins(2 + (p >> 8) % 10);
            }
            if p & 2 == 2 {
                config.scheduling_interval = mins(5 + (p >> 16) % 20);
            }
            if p & 4 == 4 {
                config.metrics_interval = mins(20 + (p >> 24) % 60);
            }
            config
        }
        14 => {
            let mut config = config;
            config.horizon = SimDuration::from_hours(1 + p % 5);
            config
        }
        _ => config.with_nodes(6 + pick(14)),
    }
}

proptest! {
    /// A chain of one to three random edits, each derived from the world before it, gives a
    /// world whose DSMF report equals that of a fresh build of its config — whether the
    /// last derivation happens before or after its parent has built its gossip trace.
    #[test]
    fn derive_matches_a_fresh_build_for_any_chain_of_edits(
        seed in 0u64..1000,
        churned in proptest::bool::ANY,
        traced in proptest::bool::ANY,
        kinds in proptest::collection::vec(0usize..EDITS, 1..4),
        params in proptest::collection::vec(0u64..=u64::MAX, 3..4),
    ) {
        let mut base = GridConfig::small(10).with_seed(seed);
        base.workflows_per_node = 1;
        base.workload.generator_mut().tasks = 2..=5;
        base.horizon = SimDuration::from_hours(4);
        // Bases that churn or replay a trace's fixed home set let a single edit reach the
        // inputs that matter only there: the churn stream and each node's churn role.
        if churned {
            base = base.with_churn(ChurnConfig::with_dynamic_factor(0.2));
        }
        if traced {
            base = base.with_workload(montage());
        }
        let edits: Vec<(usize, u64)> = kinds.into_iter().zip(params).collect();
        let (&(kind, p), chain) = edits.split_last().unwrap();
        let mut parent = Scenario::build(base).unwrap();
        for &(kind, p) in chain {
            parent = parent.derive(|c| edit(c, kind, p)).unwrap();
        }
        let early = parent.derive(|c| edit(c, kind, p)).unwrap();
        let fresh = dsmf(&Scenario::build(early.config().clone()).unwrap()).digest();
        prop_assert_eq!(dsmf(&early).digest(), fresh, "edits {:?}, before", edits);
        dsmf(&parent);
        let late = parent.derive(|c| edit(c, kind, p)).unwrap();
        prop_assert_eq!(dsmf(&late).digest(), fresh, "edits {:?}, after", edits);
    }
}
