//! Cross-crate integration tests of the full grid simulation through the public facade.

use p2pgrid::prelude::*;

fn small_config(nodes: usize, seed: u64) -> GridConfig {
    let mut cfg = GridConfig::small(nodes).with_seed(seed);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=10;
    cfg
}

fn scenario(nodes: usize, seed: u64) -> Scenario {
    Scenario::build(small_config(nodes, seed)).expect("small configs are valid")
}

#[test]
fn dsmf_end_to_end_on_a_small_grid() {
    let report = scenario(20, 1).simulate_algorithm(Algorithm::Dsmf).run();
    assert_eq!(report.submitted, 40);
    assert!(report.completed > 0);
    assert!(report.completed <= report.submitted);
    assert_eq!(report.failed, 0, "a static grid loses no workflows");
    assert!(report.act_secs() > 0.0);
    assert!(report.average_efficiency() > 0.0);
    assert!(
        report.average_efficiency() <= 2.0,
        "efficiency is eft/ct and should not wildly exceed 1"
    );
    // Gossip ran and stayed within its O(log n) space bound.
    assert!(report.gossip_stats.cycles >= 100);
    assert!(report.avg_rss_size >= 1.0);
    assert!(report.avg_rss_size <= 40.0);
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let a = scenario(16, 9).simulate_algorithm(Algorithm::Dsmf).run();
    let b = scenario(16, 9).simulate_algorithm(Algorithm::Dsmf).run();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.failed, b.failed);
    assert_eq!(a.act_secs(), b.act_secs());
    assert_eq!(a.average_efficiency(), b.average_efficiency());
    assert_eq!(
        a.metrics.throughput_series().points(),
        b.metrics.throughput_series().points()
    );
}

#[test]
fn all_eight_algorithms_complete_the_same_workload() {
    // One shared world across the whole sweep — the Scenario API's reason to exist.
    let shared = scenario(16, 5);
    for alg in Algorithm::ALL {
        let report = shared.simulate_algorithm(alg).run();
        assert!(report.completed > 0, "{alg} finished nothing");
        assert_eq!(report.submitted, 32, "{alg} saw the wrong workload");
        assert!(
            report.average_efficiency() > 0.0,
            "{alg} reported zero efficiency"
        );
    }
}

#[test]
fn churned_grid_still_makes_progress_and_reports_failures() {
    let cfg = small_config(24, 3).with_churn(ChurnConfig::with_dynamic_factor(0.3));
    let report = Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .run();
    // Half the nodes are stable home nodes, so 12 * 2 workflows are submitted.
    assert_eq!(report.submitted, 24);
    assert!(
        report.completed > 0,
        "heavy churn must not stall the grid completely"
    );
    assert!(report.completed + report.failed <= report.submitted);
}

#[test]
fn rescheduling_extension_eliminates_churn_failures() {
    let cfg = small_config(24, 3)
        .with_churn(ChurnConfig::with_dynamic_factor(0.3))
        .with_recovery(RecoveryPolicy::unlimited_retry());
    let report = Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .run();
    assert_eq!(report.failed, 0);
    assert!(report.completed > 0);
}

#[test]
fn fcfs_ablation_is_wired_through_the_facade() {
    let shared = scenario(16, 7);
    let paper = shared
        .simulate(AlgorithmConfig::paper_default(Algorithm::Sufferage))
        .run();
    let fcfs = shared
        .simulate(AlgorithmConfig::with_fcfs_second_phase(
            Algorithm::Sufferage,
        ))
        .run();
    assert_eq!(paper.algorithm, "sufferage");
    assert_eq!(fcfs.algorithm, "sufferage+FCFS");
    assert_eq!(paper.submitted, fcfs.submitted);
    assert!(paper.completed > 0 && fcfs.completed > 0);
}

#[test]
fn hourly_sampling_produces_monotone_throughput_series() {
    let report = scenario(16, 13).simulate_algorithm(Algorithm::MinMin).run();
    let points = report.metrics.throughput_series().points();
    // 12-hour small horizon: one sample per hour plus the initial and final samples.
    assert!(points.len() >= 13);
    let mut last = -1.0;
    for &(t, v) in points {
        assert!(v >= last, "throughput series must be non-decreasing");
        assert!(t.as_hours_f64() <= 12.0 + 1e-9);
        last = v;
    }
    assert_eq!(last, report.completed as f64);
}

#[test]
fn stepping_and_run_until_walk_the_same_virtual_clock() {
    let shared = scenario(16, 21);
    let horizon = SimTime::ZERO + SimDuration::from_hours(12);

    let mut session = shared.simulate_algorithm(Algorithm::Dsmf);
    assert_eq!(session.now(), SimTime::ZERO);
    assert_eq!(session.peek_time(), Some(SimTime::ZERO));
    assert_eq!(session.horizon(), horizon);
    assert_eq!(session.algorithm(), "DSMF");

    // Advance to the 6-hour mark: time never runs backwards or past the bound.
    let mid = SimTime::ZERO + SimDuration::from_hours(6);
    let delivered = session.run_until(mid);
    assert!(delivered > 0);
    assert!(session.now() <= mid);
    assert!(session.peek_time().is_none_or(|t| t > mid));
    let mid_sample = session.sample();
    assert!(mid_sample.alive_nodes == 16);

    // Single-stepping from here stays monotone...
    let mut last = session.now();
    for _ in 0..32 {
        let Some(t) = session.step() else { break };
        assert!(t >= last);
        last = t;
    }
    // ...and the remainder of the run drains every event within the horizon.
    session.run_until(horizon);
    assert!(session.peek_time().is_none());
    let report = session.finish();
    assert_eq!(report.submitted, 32);
    assert_eq!(report.end_time, horizon);
}
