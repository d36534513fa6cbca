//! Determinism regression tests: the same `GridConfig` seed must reproduce a byte-identical
//! `SimulationReport` run after run.  Reports are compared through
//! [`SimulationReport::digest`], which hashes the counts, ACT/AE bits, average RSS size,
//! gossip and robustness counters, every per-workflow record and the three sampled series.  This is what makes the engine refactors provably
//! behaviour-preserving: any accidental nondeterminism (hash-map iteration order leaking into
//! scheduling, float accumulation order changing between runs, heap tie-breaks depending on
//! allocation addresses) breaks these assertions immediately.
//!
//! Since the Scenario/Session split, the same property also pins the *setup/run separation*:
//! a session started from a pre-built shared [`Scenario`] must be byte-identical to a session
//! on a world freshly built for it.

use p2pgrid::prelude::*;

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

fn scenario_run(cfg: GridConfig, alg: Algorithm) -> SimulationReport {
    Scenario::build(cfg).unwrap().simulate_algorithm(alg).run()
}

#[test]
fn dsmf_reports_are_byte_identical_across_runs() {
    let a = scenario_run(config(71), Algorithm::Dsmf);
    let b = scenario_run(config(71), Algorithm::Dsmf);
    assert!(
        a.completed > 0,
        "run must make progress for the check to mean anything"
    );
    assert_eq!(a.digest(), b.digest(), "DSMF: two runs of one seed differ");
}

#[test]
fn heft_full_ahead_reports_are_byte_identical_across_runs() {
    let a = scenario_run(config(72), Algorithm::Heft);
    let b = scenario_run(config(72), Algorithm::Heft);
    assert!(a.completed > 0);
    assert_eq!(a.digest(), b.digest(), "HEFT: two runs of one seed differ");
}

#[test]
fn churned_runs_are_byte_identical_across_runs() {
    let cfg = || config(73).with_churn(ChurnConfig::with_dynamic_factor(0.2));
    let a = scenario_run(cfg(), Algorithm::Dsmf);
    let b = scenario_run(cfg(), Algorithm::Dsmf);
    assert_eq!(a.digest(), b.digest(), "DSMF under churn: two runs differ");
}

#[test]
fn multicore_runs_are_byte_identical_across_runs() {
    let cfg = || config(74).with_slots_per_node(4);
    let a = scenario_run(cfg(), Algorithm::Dsmf);
    let b = scenario_run(cfg(), Algorithm::Dsmf);
    assert!(a.completed > 0);
    assert_eq!(
        a.digest(),
        b.digest(),
        "DSMF on 4-slot nodes: two runs differ"
    );
}

#[test]
fn heterogeneous_preemptive_runs_are_byte_identical_across_runs() {
    // The PR-3 substrate extensions: a weighted 80% single-core / 20% 16-core population with
    // the time-sliced preemptive policy must be exactly as reproducible as the paper model.
    let a = scenario_run(het_preemptive(77), Algorithm::Dsmf);
    let b = scenario_run(het_preemptive(77), Algorithm::Dsmf);
    assert!(a.completed > 0);
    assert_eq!(
        a.digest(),
        b.digest(),
        "DSMF on heterogeneous preemptive nodes: two runs differ"
    );
}

#[test]
fn single_slot_runs_reproduce_the_paper_model_exactly() {
    // The multi-core estimator fix must leave slots_per_node = 1 untouched: an explicit
    // uniform single-slot resource model is byte-identical to the plain paper configuration.
    let plain = scenario_run(config(78), Algorithm::Dsmf);
    let uniform = scenario_run(
        config(78).with_resource(ResourceModel::single_cpu()),
        Algorithm::Dsmf,
    );
    assert!(plain.completed > 0);
    assert_eq!(
        plain.digest(),
        uniform.digest(),
        "DSMF: an explicit single-CPU model diverged from the paper default"
    );
}

#[test]
fn different_seeds_change_the_fingerprint() {
    // Guards against the digest being trivially constant.
    let a = scenario_run(config(75), Algorithm::Dsmf);
    let b = scenario_run(config(76), Algorithm::Dsmf);
    assert_ne!(a.digest(), b.digest(), "DSMF: seeds 75 and 76 collide");
}

// ----- the Scenario/Session split ------------------------------------------------------------

#[test]
fn one_scenario_run_twice_matches_two_fresh_builds() {
    // The headline reuse guarantee: build the world once, run DSMF twice — both sessions must
    // be byte-identical to sessions on two fresh `Scenario::build`s of the seed.  Covers
    // the plain static grid, a churned grid and the heterogeneous+preemptive substrate, since
    // each exercises a different sampled/replayed RNG stream.
    let configs = [
        ("static", config(81)),
        (
            "churn",
            config(82).with_churn(ChurnConfig::with_dynamic_factor(0.2)),
        ),
        ("heterogeneous preemptive", het_preemptive(83)),
    ];
    for (grid, cfg) in configs {
        let scenario = Scenario::build(cfg.clone()).unwrap();
        let first = scenario.simulate_algorithm(Algorithm::Dsmf).run();
        let second = scenario.simulate_algorithm(Algorithm::Dsmf).run();
        let fresh_a = scenario_run(cfg.clone(), Algorithm::Dsmf);
        let fresh_b = scenario_run(cfg, Algorithm::Dsmf);
        assert!(first.completed > 0, "run must make progress");
        assert_eq!(
            first.digest(),
            second.digest(),
            "DSMF, {grid}: second session differs"
        );
        assert_eq!(
            first.digest(),
            fresh_a.digest(),
            "DSMF, {grid}: shared-scenario run differs from a fresh build's"
        );
        assert_eq!(
            fresh_a.digest(),
            fresh_b.digest(),
            "DSMF, {grid}: two fresh builds differ"
        );
    }
}

#[test]
fn shared_scenario_eight_algorithm_sweep_matches_per_run_rebuilds() {
    // The acceptance criterion of the Scenario split: one shared world across the full
    // eight-algorithm sweep produces byte-identical reports to rebuilding the world for every
    // algorithm.
    let scenario = Scenario::build(config(84)).unwrap();
    for alg in Algorithm::ALL {
        let shared = scenario.simulate_algorithm(alg).run();
        let rebuilt = scenario_run(config(84), alg);
        assert_eq!(
            shared.digest(),
            rebuilt.digest(),
            "{alg}: shared-scenario run diverged from a fresh build's"
        );
    }
}

#[test]
fn observers_and_stepping_do_not_perturb_the_run() {
    // Observer callbacks only copy event data out, and stepping delivers the same events in
    // the same order as the one-shot run: both must leave the report digest untouched.
    let scenario = Scenario::build(config(85)).unwrap();
    let baseline = scenario.simulate_algorithm(Algorithm::Dsmf).run();

    let mut probe = TimeSeriesProbe::new();
    let mut trace = TraceRecorder::new();
    let observed = scenario
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut probe)
        .observe(&mut trace)
        .run();
    assert_eq!(
        baseline.digest(),
        observed.digest(),
        "DSMF: observers perturbed the run"
    );
    assert!(!probe.samples().is_empty());
    assert!(!trace.events().is_empty());

    let mut stepped_session = scenario.simulate_algorithm(Algorithm::Dsmf);
    let mut delivered = 0u64;
    while stepped_session.step().is_some() {
        delivered += 1;
    }
    assert!(delivered > 0);
    let stepped = stepped_session.finish();
    assert_eq!(
        baseline.digest(),
        stepped.digest(),
        "DSMF: stepping perturbed the run"
    );
}
