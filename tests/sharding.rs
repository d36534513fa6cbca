//! Shard-count independence: the sharded conservative time-window event loop is a pure
//! performance knob.  For any shard count `S` (and any worker-pool width — see the CI matrix,
//! which re-runs this suite under `P2PGRID_POOL_THREADS` ∈ {1, 8} × `P2PGRID_SHARDS` ∈ {1, 4}),
//! every pinned scenario must produce a report — and an observer event stream — byte-identical
//! to the single-shard run.  On top of the exact-equality pins, a property sweep checks the
//! conservative-PDES soundness invariants on random configurations: windows are never wider
//! than the engine lookahead, and no cross-shard event is ever delivered with less than one
//! lookahead of delay.
//!
//! Shard counts are pinned per run via [`ShardSpec::Fixed`] / `with_shards` rather than the
//! `P2PGRID_SHARDS` env override, so the tests stay parallel-safe.

use p2pgrid::prelude::*;
use proptest::prelude::*;

fn config(seed: u64) -> GridConfig {
    let mut cfg = GridConfig::small(20).with_seed(seed);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=10;
    cfg
}

fn het_preemptive(seed: u64) -> GridConfig {
    config(seed).with_resource(
        ResourceModel::heterogeneous(vec![
            SlotClass {
                slots: 1,
                weight: 0.8,
            },
            SlotClass {
                slots: 16,
                weight: 0.2,
            },
        ])
        .preemptive(),
    )
}

fn run_sharded(cfg: &GridConfig, alg: Algorithm, shards: usize) -> SimulationReport {
    Scenario::build(cfg.clone().with_shards(shards))
        .unwrap()
        .simulate_algorithm(alg)
        .run()
}

/// Assert that S ∈ {2, 4, 8} all match the single-shard run of the same config, compared
/// through [`SimulationReport::digest`].
fn assert_shard_independent(cfg: GridConfig, alg: Algorithm) {
    let base = run_sharded(&cfg, alg, 1);
    assert!(
        base.completed > 0,
        "{alg}: run must make progress for the pin to mean anything"
    );
    for shards in [2, 4, 8] {
        assert_eq!(
            run_sharded(&cfg, alg, shards).digest(),
            base.digest(),
            "{alg}: {shards} shards diverged from the single-shard run"
        );
    }
}

#[test]
fn static_grid_reports_are_shard_count_independent() {
    assert_shard_independent(config(91), Algorithm::Dsmf);
}

#[test]
fn full_ahead_baseline_is_shard_count_independent() {
    assert_shard_independent(config(92), Algorithm::Heft);
}

#[test]
fn churned_runs_are_shard_count_independent() {
    assert_shard_independent(
        config(93).with_churn(ChurnConfig::with_dynamic_factor(0.2)),
        Algorithm::Dsmf,
    );
}

#[test]
fn rescheduling_churn_runs_are_shard_count_independent() {
    assert_shard_independent(
        config(94)
            .with_churn(ChurnConfig::with_dynamic_factor(0.3))
            .with_recovery(RecoveryPolicy::unlimited_retry()),
        Algorithm::Dsmf,
    );
}

#[test]
fn heterogeneous_preemptive_runs_are_shard_count_independent() {
    assert_shard_independent(het_preemptive(95), Algorithm::Dsmf);
}

#[test]
fn multicore_runs_are_shard_count_independent() {
    assert_shard_independent(config(96).with_slots_per_node(4), Algorithm::Dsmf);
}

#[test]
fn observer_event_streams_are_shard_count_independent() {
    // Not just the report: the *full ordered observer stream* — every dispatch, start, finish,
    // displacement, churn event and sample, with timestamps — must replay identically for
    // every partition.  This pins the barrier's canonical merge order.
    let cfg = config(97).with_churn(ChurnConfig::with_dynamic_factor(0.15));
    let record = |shards: usize| {
        let mut trace = TraceRecorder::new();
        let report = Scenario::build(cfg.clone().with_shards(shards))
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .observe(&mut trace)
            .run();
        (report.digest(), trace.events().to_vec())
    };
    let (base_digest, base_events) = record(1);
    assert!(!base_events.is_empty());
    for shards in [2, 4, 8] {
        let (digest, events) = record(shards);
        assert_eq!(
            digest, base_digest,
            "DSMF under churn: {shards} shards: report diverged"
        );
        assert_eq!(
            events.len(),
            base_events.len(),
            "{shards} shards: event count diverged"
        );
        let first_diff = base_events.iter().zip(&events).position(|(a, b)| a != b);
        assert_eq!(
            first_diff, None,
            "{shards} shards: observer stream diverged at index {first_diff:?}"
        );
    }
}

#[test]
fn shard_spec_resolution_clamps_to_the_population() {
    // Asking for more shards than nodes degenerates gracefully to one node per shard.
    let cfg = config(98).with_shards(64);
    let session = Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf);
    assert_eq!(session.shard_count(), 20);

    let auto = Scenario::build(config(98))
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf);
    assert!(auto.shard_count() >= 1);
}

#[test]
fn zero_shards_is_rejected_at_validation() {
    let mut cfg = config(99);
    cfg.shards = ShardSpec::Fixed(0);
    let err = Scenario::build(cfg).unwrap_err();
    assert!(err.to_string().contains("shard"), "unexpected error: {err}");
}

#[test]
fn shard_stats_expose_the_window_structure() {
    let scenario = Scenario::build(config(91).with_shards(4)).unwrap();
    let lookahead = scenario.lookahead();
    let mut session = scenario.simulate_algorithm(Algorithm::Dsmf);
    while session.step().is_some() {}
    let stats = session.shard_stats();
    assert_eq!(stats.shards, 4);
    assert!(stats.windows > 0);
    assert!(stats.events > 0);
    assert!(stats.max_window_width <= lookahead);
    // 20 nodes over 4 shards with cross-node data dependencies: some dispatch must have
    // crossed a shard boundary, and conservatively so.
    assert!(stats.cross_shard_events > 0);
    let min_delay = stats
        .min_cross_shard_delay
        .expect("cross-shard traffic implies a recorded minimum delay");
    assert!(
        min_delay >= lookahead,
        "cross-shard event delivered after {min_delay}, below the lookahead {lookahead}"
    );
}

proptest! {
    // Each case is a pair of full end-to-end runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any seed, population, shard count and churn level: the sharded run matches the
    /// single-shard run exactly, and the conservative-window soundness invariants hold —
    /// the barrier never delivers a cross-shard event with less than one lookahead of delay,
    /// and no window is ever wider than the lookahead.
    #[test]
    fn prop_windows_are_conservative_and_shard_invariant(
        seed in 0u64..10_000,
        nodes in 8usize..24,
        shards in 2usize..9,
        df in 0.0f64..0.3,
    ) {
        let mut cfg = GridConfig::small(nodes).with_seed(seed);
        cfg.workflows_per_node = 1;
        cfg.workload.generator_mut().tasks = 2..=8;
        cfg.horizon = SimDuration::from_hours(10);
        let cfg = cfg.with_churn(ChurnConfig::with_dynamic_factor(df));

        let base = run_sharded(&cfg, Algorithm::Dsmf, 1);

        let scenario = Scenario::build(cfg.clone().with_shards(shards)).unwrap();
        let lookahead = scenario.lookahead();
        let mut session = scenario.simulate_algorithm(Algorithm::Dsmf);
        while session.step().is_some() {}
        let stats = session.shard_stats();
        prop_assert!(stats.windows > 0);
        prop_assert!(stats.max_window_width <= lookahead);
        if let Some(d) = stats.min_cross_shard_delay {
            prop_assert!(
                d >= lookahead,
                "cross-shard event delivered after {}, below the lookahead {}",
                d,
                lookahead
            );
        }
        let report = session.finish();
        prop_assert_eq!(
            report.digest(),
            base.digest(),
            "DSMF, seed {}, {} nodes, df {}: {} shards diverged",
            seed,
            nodes,
            df,
            shards
        );
    }
}
