//! The workload subsystem end to end: serialized trace artifacts drive the grid through the
//! same engine as the synthetic generator, nonzero arrivals enter mid-run, arrival processes
//! spread submissions without perturbing the run, and the three checked-in artifacts under
//! `workloads/` load and replay.

use p2pgrid::prelude::*;
use std::path::Path;
use std::str::FromStr;

fn diamond_spec(name: &str) -> WorkflowSpec {
    WorkflowSpec::from_workflow(name, &shapes::diamond(100.0, 500.0, 10.0)).unwrap()
}

fn staggered_workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "staggered".into(),
        workflows: vec![
            diamond_spec("d"),
            WorkflowSpec::from_workflow("m", &shapes::montage_like(3, 800.0, 100.0)).unwrap(),
        ],
        entries: vec![
            WorkloadEntry {
                workflow: "d".into(),
                submit_at_ms: 0,
                home: HomePolicy::Auto,
            },
            WorkloadEntry {
                workflow: "m".into(),
                submit_at_ms: 900_000,
                home: HomePolicy::Node(0),
            },
            WorkloadEntry {
                workflow: "d".into(),
                submit_at_ms: 1_800_000,
                home: HomePolicy::Auto,
            },
        ],
    }
}

fn trace_config(seed: u64) -> GridConfig {
    GridConfig::small(20)
        .with_seed(seed)
        .with_workload(staggered_workload())
}

#[test]
fn serialized_trace_round_trips_to_a_byte_identical_simulation() {
    // Serialize, reparse, and run both sides: the reports must match bit for bit, because the
    // resolved workflows are equal and arrivals are taken verbatim from the entries.
    let original = staggered_workload();
    let reparsed = WorkloadSpec::from_str(&original.to_string_pretty()).unwrap();
    assert_eq!(reparsed, original);
    let a = original.resolve().unwrap();
    let b = reparsed.resolve().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.workflow, y.workflow, "runtime DAGs must be equal");
    }

    let run = |spec: WorkloadSpec| {
        Scenario::build(GridConfig::small(20).with_seed(7).with_workload(spec))
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run()
    };
    assert_eq!(
        run(original).digest(),
        run(reparsed).digest(),
        "DSMF: the reparsed trace ran differently"
    );
}

#[test]
fn trace_arrivals_enter_mid_run_at_their_recorded_times() {
    let scenario = Scenario::build(trace_config(11)).unwrap();
    let mut trace = TraceRecorder::new();
    let report = scenario
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut trace)
        .run();
    assert_eq!(report.submitted, 3);
    assert_eq!(report.completed, 3);

    let submissions: Vec<(u64, usize)> = trace
        .events()
        .iter()
        .filter_map(|&(t, e)| match e {
            TraceEvent::WorkflowSubmitted { wf, .. } => Some((t.as_millis(), wf)),
            _ => None,
        })
        .collect();
    assert_eq!(
        submissions.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
        vec![0, 900_000, 1_800_000],
        "each entry must be announced exactly at its submit_at_ms"
    );
    // Entry 1 was pinned to node 0.
    let pinned_home = trace.events().iter().find_map(|&(_, e)| match e {
        TraceEvent::WorkflowSubmitted { wf: 1, home } => Some(home),
        _ => None,
    });
    assert_eq!(pinned_home, Some(0));
}

#[test]
fn arrivals_beyond_the_horizon_are_never_submitted() {
    let mut spec = staggered_workload();
    spec.entries.push(WorkloadEntry {
        workflow: "d".into(),
        submit_at_ms: 1_000 * 3600 * 1_000, // far past any horizon
        home: HomePolicy::Auto,
    });
    let report = Scenario::build(GridConfig::small(20).with_seed(3).with_workload(spec))
        .unwrap()
        .simulate_algorithm(Algorithm::Dsmf)
        .run();
    assert_eq!(report.submitted, 3, "the past-horizon entry must not count");
}

#[test]
fn trace_runs_complete_and_replay_identically() {
    let run = || {
        Scenario::build(trace_config(21))
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run()
    };
    let base = run();
    assert_eq!(base.completed, 3);
    assert_eq!(
        run().digest(),
        base.digest(),
        "DSMF: a rerun diverged on the trace workload"
    );
}

#[test]
fn poisson_arrivals_spread_submissions_without_perturbing_the_run() {
    // A synthetic workload whose submissions are spread by a Poisson arrival process: the
    // observer sees them after t = 0, in time order, and observing changes no report bit.
    let mut cfg = GridConfig::small(20)
        .with_seed(31)
        .with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 6.0 });
    cfg.workflows_per_node = 2;
    let scenario = Scenario::build(cfg).unwrap();
    let mut trace = TraceRecorder::new();
    let observed = scenario
        .simulate_algorithm(Algorithm::Dsmf)
        .observe(&mut trace)
        .run();
    let spread: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|&(t, e)| match e {
            TraceEvent::WorkflowSubmitted { .. } => Some(t.as_millis()),
            _ => None,
        })
        .collect();
    assert!(
        spread.iter().any(|&t| t > 0),
        "Poisson arrivals must actually spread submissions: {spread:?}"
    );
    assert!(
        spread.windows(2).all(|pair| pair[0] <= pair[1]),
        "submissions must be announced in time order: {spread:?}"
    );
    assert_eq!(
        observed.digest(),
        scenario.simulate_algorithm(Algorithm::Dsmf).run().digest(),
        "DSMF, Poisson arrivals: observing the run changed its report"
    );
}

#[test]
fn derived_scenarios_can_swap_workload_and_arrivals_copy_on_write() {
    let base = Scenario::build(GridConfig::small(20).with_seed(41)).unwrap();
    let trace = base
        .derive(|c| c.with_workload(staggered_workload()))
        .unwrap();
    assert!(trace.shares_topology_with(&base));
    assert_eq!(trace.workflow_count(), 3);
    let report = trace.simulate_algorithm(Algorithm::Dsmf).run();
    assert_eq!(report.submitted, 3);

    let poisson = base
        .derive(|c| c.with_arrivals(ArrivalProcess::Poisson { rate_per_hour: 4.0 }))
        .unwrap();
    assert!(poisson.shares_topology_with(&base));
    assert_eq!(
        poisson.workflow_count(),
        base.workflow_count(),
        "arrival swap must keep the synthetic DAGs"
    );

    // Deriving back to the base inputs reproduces the base run exactly.
    let back = poisson
        .derive(|c| c.with_arrivals(ArrivalProcess::Batch))
        .unwrap();
    assert_eq!(
        back.simulate_algorithm(Algorithm::Dsmf).run().digest(),
        base.simulate_algorithm(Algorithm::Dsmf).run().digest(),
        "DSMF: deriving back to batch arrivals did not reproduce the base run"
    );
}

#[test]
fn checked_in_artifacts_load_resolve_and_replay() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads");
    for name in ["montage", "cybershake", "epigenomics"] {
        let path = dir.join(format!("{name}.json"));
        let spec = WorkloadSpec::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(spec.name, name);
        let resolved = spec.resolve().unwrap();
        assert!(!resolved.is_empty());

        // Round trip is a fixpoint: the checked-in bytes are exactly what `save` writes.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            spec.to_string_pretty(),
            text,
            "{name}.json must be regenerated"
        );

        let entries = spec.entry_count() as u64;
        let report = Scenario::build(GridConfig::small(24).with_seed(5).with_workload(spec))
            .unwrap()
            .simulate_algorithm(Algorithm::Dsmf)
            .run();
        assert_eq!(report.submitted, entries, "{name}: all entries must arrive");
        assert_eq!(
            report.completed, entries,
            "{name}: all instances must finish"
        );
    }
}
