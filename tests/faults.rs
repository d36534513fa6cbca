//! The fault-injection substrate end to end: conservation invariants under arbitrary fault
//! schedules × every recovery policy, faulty runs that replay byte-identically, observer
//! streams in time order, and replica twins that finish a task at most once.  Every fault is
//! an independent per-node lifetime; the stable half of the grid (`STABLE_FRACTION`) never
//! fails and hosts every workflow.
//!
//! The CI matrix re-runs this suite under `P2PGRID_POOL_THREADS` ∈ {1, 8}, so each pin here
//! also covers pool widths.

use p2pgrid::prelude::*;
use proptest::prelude::*;

fn faulty_config(nodes: usize, seed: u64, mtbf_hours: f64, recovery: RecoveryPolicy) -> GridConfig {
    let faults = StochasticFaults::new(
        SimDuration::from_secs_f64(mtbf_hours * 3600.0),
        SimDuration::from_secs(20 * 60),
    );
    let mut cfg = GridConfig::small(nodes)
        .with_seed(seed)
        .with_faults(FaultModel::Stochastic(faults))
        .with_recovery(recovery);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=8;
    cfg
}

fn every_policy() -> [RecoveryPolicy; 5] {
    [
        RecoveryPolicy::FailWorkflow,
        RecoveryPolicy::Retry {
            budget: 2,
            backoff: SimDuration::from_secs(120),
        },
        RecoveryPolicy::unlimited_retry(),
        RecoveryPolicy::Checkpoint {
            interval: SimDuration::from_secs(10 * 60),
        },
        RecoveryPolicy::Replicate { copies: 2 },
    ]
}

fn run(cfg: &GridConfig) -> SimulationReport {
    Scenario::build(cfg.clone())
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .run()
}

#[test]
fn stochastic_runs_fail_nodes_and_replay_identically_for_every_policy() {
    for (i, policy) in every_policy().into_iter().enumerate() {
        let cfg = faulty_config(20, 700 + i as u64, 2.0, policy);
        let base = run(&cfg);
        assert!(
            base.robustness.node_failures > 0,
            "{policy:?}: the pin is vacuous unless nodes actually fail"
        );
        assert_eq!(
            run(&cfg).digest(),
            base.digest(),
            "{policy:?}: a rerun diverged"
        );
    }
}

#[test]
fn fault_trace_records_losses_and_retries_in_time_order_without_perturbing_the_run() {
    let cfg = faulty_config(20, 811, 2.0, RecoveryPolicy::unlimited_retry());
    let mut trace = TraceRecorder::new();
    let observed = Scenario::build(cfg.clone())
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut trace)
        .run();
    let events = trace.events();
    let lost = events
        .iter()
        .filter(|e| matches!(e.1, TraceEvent::TaskLost { .. }))
        .count();
    let retried = events
        .iter()
        .filter(|e| matches!(e.1, TraceEvent::TaskRetried { .. }))
        .count();
    assert!(lost > 0, "a 2h-MTBF run must lose some task");
    assert!(
        retried > 0,
        "unlimited retry must re-queue some lost running task"
    );
    assert!(
        events.windows(2).all(|pair| pair[0].0 <= pair[1].0),
        "observer timestamps must never decrease"
    );
    assert_eq!(
        observed.digest(),
        run(&cfg).digest(),
        "unlimited retry: observing the run changed its report"
    );
}

#[test]
fn fault_model_off_is_byte_identical_to_the_default_config() {
    let mut plain = GridConfig::small(16).with_seed(900);
    plain.workflows_per_node = 2;
    let explicit = plain
        .clone()
        .with_faults(FaultModel::Off)
        .with_recovery(RecoveryPolicy::FailWorkflow);
    let a = run(&plain);
    let b = run(&explicit);
    assert_eq!(
        a.digest(),
        b.digest(),
        "FaultModel::Off with FailWorkflow diverged from the default config"
    );
    assert_eq!(a.robustness.node_failures, 0);
    assert_eq!(a.robustness.tasks_lost, 0);
    assert_eq!(a.robustness.wasted_mi, 0.0);
}

#[test]
fn replicated_tasks_finish_at_most_once() {
    // The first copy to complete cancels its twins at its own instant, so no twin can
    // finish the task again, not even one finishing within the same millisecond.
    let cfg = faulty_config(20, 3, 2.0, RecoveryPolicy::Replicate { copies: 2 });
    let mut trace = TraceRecorder::new();
    let report = Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut trace)
        .run();
    assert!(
        report.completed > 0,
        "the pin is vacuous unless tasks finish"
    );
    let mut finished: Vec<(usize, TaskId)> = trace
        .events()
        .iter()
        .filter_map(|&(_, e)| match e {
            TraceEvent::TaskFinished { wf, task, .. } => Some((wf, task)),
            _ => None,
        })
        .collect();
    finished.sort_unstable();
    let repeated: Vec<&(usize, TaskId)> = finished
        .windows(2)
        .filter(|pair| pair[0] == pair[1])
        .map(|pair| &pair[1])
        .collect();
    assert!(
        repeated.is_empty(),
        "tasks finished more than once under Replicate {{ copies: 2 }}: {repeated:?}"
    );
}

proptest! {
    // Each case is a full end-to-end run; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Workflow conservation holds for any fault schedule × any recovery policy: every
    /// submitted workflow is either completed, failed, or still active at the horizon —
    /// never double-counted, never dropped.  The robustness ledger stays consistent with
    /// the event counts, and metric records are in bijection with completions.
    #[test]
    fn prop_fault_schedules_conserve_workflows(
        seed in 0u64..10_000,
        mtbf_hours in 1.0f64..12.0,
        policy_idx in 0usize..5,
        budget in 1u32..4,
        backoff_secs in 0u64..600,
        interval_secs in 300u64..3600,
        copies in 2usize..4,
    ) {
        let policy = match policy_idx {
            0 => RecoveryPolicy::FailWorkflow,
            1 => RecoveryPolicy::Retry {
                budget,
                backoff: SimDuration::from_secs(backoff_secs),
            },
            2 => RecoveryPolicy::unlimited_retry(),
            3 => RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(interval_secs),
            },
            _ => RecoveryPolicy::Replicate { copies },
        };
        let mut cfg = faulty_config(16, seed, mtbf_hours, policy);
        cfg.workflows_per_node = 1;
        cfg.horizon = SimDuration::from_hours(10);
        let report = Scenario::build(cfg)
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run();
        let s = &report.robustness;

        // submitted == completed + failed + still-active: the still-active remainder is
        // whatever the horizon cut off, so the two accounted buckets can never overshoot.
        prop_assert_eq!(report.submitted, 8); // 50% stable nodes host the workflows
        prop_assert!(report.completed + report.failed <= report.submitted);
        prop_assert!(report.metrics.records().len() as u64 == report.completed);

        // Repairs trail failures by at most the nodes still down at the horizon.
        prop_assert!(s.node_repairs <= s.node_failures);
        // Every recovery and every retry traces back to a distinct loss event.
        prop_assert!(s.recoveries <= s.tasks_lost);
        prop_assert!(s.retries <= s.tasks_lost);
        // The work ledger is non-negative and goodput is a proper fraction.
        prop_assert!(s.useful_mi >= 0.0);
        prop_assert!(s.wasted_mi >= 0.0);
        prop_assert!((0.0..=1.0).contains(&s.goodput()));
        prop_assert!(s.recovery_latency_secs_sum >= 0.0);
        if s.recoveries == 0 {
            prop_assert_eq!(s.recovery_latency_secs_sum, 0.0);
        }
        // Under the paper policy a lost running task fails its workflow, so nothing is
        // ever retried; with an unlimited retry budget nothing ever fails.
        match policy {
            RecoveryPolicy::FailWorkflow => prop_assert_eq!(s.retries, 0),
            RecoveryPolicy::Retry { budget, .. } if budget == u32::MAX => {
                prop_assert_eq!(report.failed, 0);
            }
            _ => {}
        }
    }
}
