//! Integration tests of the observer seam: event-level invariants that aggregate reports
//! erase, asserted through the built-in [`TraceRecorder`] and [`TimeSeriesProbe`].

use p2pgrid::prelude::*;
use std::collections::HashSet;

fn config(nodes: usize, seed: u64) -> GridConfig {
    let mut cfg = GridConfig::small(nodes).with_seed(seed);
    cfg.workflows_per_node = 2;
    cfg.workload.generator_mut().tasks = 2..=8;
    cfg
}

fn traced(cfg: GridConfig, alg: Algorithm) -> (SimulationReport, TraceRecorder) {
    let mut trace = TraceRecorder::new();
    let report = Scenario::build(cfg)
        .unwrap()
        .simulate_algorithm(alg)
        .observe(&mut trace)
        .run();
    (report, trace)
}

#[test]
fn trace_respects_the_task_lifecycle_order() {
    let (report, trace) = traced(config(16, 1), Algorithm::Dsmf);
    assert!(report.completed > 0);

    // Submissions fire once per workflow, at time zero, before anything else.
    let submissions = trace.count(|e| matches!(e, TraceEvent::WorkflowSubmitted { .. }));
    assert_eq!(submissions as u64, report.submitted);
    for (i, &(t, e)) in trace.events().iter().enumerate() {
        if matches!(e, TraceEvent::WorkflowSubmitted { .. }) {
            assert_eq!(t, SimTime::ZERO);
            assert!(i < submissions, "submissions must lead the trace");
        }
    }

    // Every start follows a dispatch of the same task; every finish follows a start.
    let mut dispatched: HashSet<(usize, TaskId)> = HashSet::new();
    let mut started: HashSet<(usize, TaskId)> = HashSet::new();
    let mut finished = 0u64;
    let mut last_time = SimTime::ZERO;
    for &(t, event) in trace.events() {
        assert!(t >= last_time, "trace must be in delivery order");
        last_time = t;
        match event {
            TraceEvent::TaskDispatched { wf, task, .. } => {
                dispatched.insert((wf, task));
            }
            TraceEvent::TaskStarted { wf, task, .. } => {
                assert!(
                    dispatched.contains(&(wf, task)),
                    "task ({wf}, {task:?}) started without a dispatch"
                );
                started.insert((wf, task));
            }
            TraceEvent::TaskFinished { wf, task, .. } => {
                assert!(
                    started.contains(&(wf, task)),
                    "task ({wf}, {task:?}) finished without a start"
                );
                finished += 1;
            }
            _ => {}
        }
    }
    assert!(finished > 0);

    // Completions match the report, and a static grid never fails or churns.
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::WorkflowCompleted { .. })) as u64,
        report.completed
    );
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::WorkflowFailed { .. })),
        0
    );
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::NodeDeparted { .. })),
        0
    );
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::NodeJoined { .. })),
        0
    );
    // Non-preemptive substrate: no displacements, ever.
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::TaskDisplaced { .. })),
        0
    );
    // Gossip ran every 5 minutes over 12 hours.
    assert!(trace.count(|e| matches!(e, TraceEvent::GossipCycle { .. })) >= 100);
}

#[test]
fn churn_events_and_failures_show_up_in_the_trace() {
    let cfg = config(24, 5).with_churn(ChurnConfig::with_dynamic_factor(0.3));
    let (report, trace) = traced(cfg, Algorithm::Dsmf);
    let departures = trace.count(|e| matches!(e, TraceEvent::NodeDeparted { .. }));
    let joins = trace.count(|e| matches!(e, TraceEvent::NodeJoined { .. }));
    assert!(departures > 0, "df = 0.3 must churn somebody");
    assert!(joins > 0);
    assert_eq!(
        trace.count(|e| matches!(e, TraceEvent::WorkflowFailed { .. })) as u64,
        report.failed
    );
    // Stable nodes never depart: home nodes of the churn sweep are in the stable half.
    let stable = 12; // 50% of 24
    for &(_, e) in trace.events() {
        if let TraceEvent::NodeDeparted { node } = e {
            assert!(node >= stable, "stable node {node} departed");
        }
    }
}

#[test]
fn displacements_appear_only_on_preemptive_substrates() {
    // A contended preemptive grid across a few seeds must displace at least once, and every
    // displaced task was running (started) at displacement time.
    let displaced_somewhere = (30..36).any(|seed| {
        let cfg = config(12, seed).with_resource(ResourceModel::single_cpu().preemptive());
        let (_, trace) = traced(cfg, Algorithm::Dsmf);
        let mut started: HashSet<(usize, TaskId)> = HashSet::new();
        let mut saw_displacement = false;
        for &(_, e) in trace.events() {
            match e {
                TraceEvent::TaskStarted { wf, task, .. } => {
                    started.insert((wf, task));
                }
                TraceEvent::TaskDisplaced { wf, task, .. } => {
                    assert!(started.contains(&(wf, task)));
                    saw_displacement = true;
                }
                _ => {}
            }
        }
        saw_displacement
    });
    assert!(
        displaced_somewhere,
        "no seed in the band ever triggered a preemption"
    );
}

#[test]
fn probe_samples_on_the_metrics_cadence() {
    let mut probe = TimeSeriesProbe::new();
    let report = Scenario::build(config(16, 9))
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut probe)
        .run();
    // One sample per metrics event plus the final report sample — exactly the series length.
    assert_eq!(
        probe.samples().len(),
        report.metrics.throughput_series().len()
    );
    let (_, peak) = probe.peak_ready_tasks().unwrap();
    assert!(peak > 0, "a contended grid must queue something at peak");
    for &(t, s) in probe.samples() {
        assert!(t <= report.end_time);
        assert_eq!(s.alive_nodes, 16);
        assert!(s.selectable_tasks <= s.ready_tasks);
        assert!(s.queued_load_mi >= 0.0);
    }
}

#[test]
fn mid_run_sampling_sees_live_backlog() {
    // Step a contended run to its middle and read live state; the observer's borrow releases
    // when the session is consumed, after which its recording is available for comparison.
    let mut probe = TimeSeriesProbe::new();
    let scenario = Scenario::build(config(16, 11)).unwrap();
    let mut session = scenario
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut probe);
    let mid = SimTime::ZERO + SimDuration::from_hours(6);
    session.run_until(mid);
    let live = session.sample();
    assert_eq!(live.alive_nodes, 16);
    assert!(live.selectable_tasks <= live.ready_tasks);
    let report = session.run();
    assert!(report.completed > 0);
    // The probe recorded samples both before and after the mid-point we paused at.
    assert!(probe.samples().iter().any(|&(t, _)| t <= mid));
    assert!(probe.samples().iter().any(|&(t, _)| t > mid));
}

#[test]
fn a_stepped_session_tells_its_observers_what_a_run_tells_them() {
    // Stepping to the end and then finishing delivers the same hooks, in the same order, as
    // the one-shot run: the submissions once before the first instant, every instant's
    // events, and the closing sample.
    let scenario =
        Scenario::build(config(24, 5).with_churn(ChurnConfig::with_dynamic_factor(0.3))).unwrap();
    let record = |stepped: bool| {
        let mut trace = TraceRecorder::new();
        let mut probe = TimeSeriesProbe::new();
        let mut session = scenario
            .simulate_algorithm(Algorithm::Dsmf)
            .observe(&mut trace)
            .observe(&mut probe);
        let report = if stepped {
            while session.step().is_some() {}
            session.finish()
        } else {
            session.run()
        };
        (report.digest(), trace, probe)
    };
    let (run_digest, run_trace, run_probe) = record(false);
    let (stepped_digest, stepped_trace, stepped_probe) = record(true);
    assert_eq!(stepped_digest, run_digest);
    assert_eq!(stepped_trace.events(), run_trace.events());
    assert_eq!(stepped_probe.samples(), run_probe.samples());
    assert!(run_trace.count(|e| matches!(e, TraceEvent::NodeDeparted { .. })) > 0);
}

#[test]
fn finishing_an_unstepped_session_announces_the_submissions_once() {
    let scenario = Scenario::build(config(12, 3)).unwrap();
    let mut trace = TraceRecorder::new();
    let mut probe = TimeSeriesProbe::new();
    let report = scenario
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut trace)
        .observe(&mut probe)
        .finish();
    assert_eq!(report.end_time, SimTime::ZERO);
    assert_eq!(report.submitted, 24);
    assert_eq!(trace.events().len() as u64, report.submitted);
    for (wf, &(t, e)) in trace.events().iter().enumerate() {
        assert_eq!(t, SimTime::ZERO);
        assert!(matches!(e, TraceEvent::WorkflowSubmitted { wf: w, .. } if w == wf));
    }
    assert_eq!(probe.samples().len(), 1);
    assert_eq!(probe.samples()[0].0, SimTime::ZERO);
}

#[test]
#[should_panic(expected = "observers must be registered before the first step")]
fn an_observer_registered_after_the_first_step_is_refused() {
    let scenario = Scenario::build(config(12, 3)).unwrap();
    let mut probe = TimeSeriesProbe::new();
    let mut session = scenario.simulate_algorithm(Algorithm::Dsmf);
    session.step();
    let _ = session.observe(&mut probe);
}
