//! The cost of the fault substrate behind Fig. 15: DSMF under stochastic node lifetimes.
//!
//! Benchmarks two things: that [`FaultModel::Off`] costs no measurable wall time over the
//! pre-fault engine (the fault substrate must be pay-for-what-you-use), and the overhead of
//! full fault-injected runs under each recovery policy.  The figures themselves come from
//! `repro --fig fault`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2pgrid_bench::{bench_criterion_config, bench_grid_config};
use p2pgrid_core::{Algorithm, FaultModel, RecoveryPolicy, Scenario, StochasticFaults};
use p2pgrid_sim::SimDuration;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // FaultModel::Off must be free: the default config and the explicit Off spelling run
    // the exact same event stream, so the two timings below should be indistinguishable.
    // (They are separate Criterion ids so a regression shows up as the pair diverging.)
    let mut group = c.benchmark_group("fault_recovery");
    let plain = Scenario::build(bench_grid_config(32, 2, 36)).expect("bench config is valid");
    group.bench_function("dsmf_36h/faults_absent", |b| {
        b.iter(|| black_box(plain.simulate_algorithm(Algorithm::Dsmf).run().completed))
    });
    let off = Scenario::build(bench_grid_config(32, 2, 36).with_faults(FaultModel::Off))
        .expect("bench config is valid");
    group.bench_function("dsmf_36h/faults_off", |b| {
        b.iter(|| black_box(off.simulate_algorithm(Algorithm::Dsmf).run().completed))
    });

    // Full fault-injected runs, one world per recovery policy (the fault schedule is
    // identical across policies — recovery is pure run-time behaviour).
    let faults = StochasticFaults::new(SimDuration::from_hours(4), SimDuration::from_secs(1200));
    let policies = [
        ("fail", RecoveryPolicy::FailWorkflow),
        (
            "retry",
            RecoveryPolicy::Retry {
                budget: 3,
                backoff: SimDuration::from_secs(300),
            },
        ),
        (
            "checkpoint",
            RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(900),
            },
        ),
        ("replicate", RecoveryPolicy::Replicate { copies: 2 }),
    ];
    for (label, policy) in policies {
        let cfg = bench_grid_config(32, 2, 36)
            .with_faults(FaultModel::Stochastic(faults))
            .with_recovery(policy);
        let scenario = Scenario::build(cfg).expect("bench config is valid");
        group.bench_with_input(
            BenchmarkId::new("dsmf_36h_mtbf4h", label),
            &label,
            |bencher, _| {
                bencher.iter(|| {
                    black_box(scenario.simulate_algorithm(Algorithm::Dsmf).run().completed)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_criterion_config();
    targets = bench
}
criterion_main!(benches);
