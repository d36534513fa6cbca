//! Scenario derivation versus a full rebuild.
//!
//! `Scenario::with_seed` (and `Scenario::derive`, which it is built on) re-sample only the
//! affected RNG streams and share the `Arc`'d topology, `PairwiseMetrics` and landmark
//! tables, so a sweep derived from one base world pays for a single all-pairs computation.
//! Criterion times derive-vs-rebuild at smoke scale; setting `P2PGRID_BENCH_REDUCED=1`
//! additionally runs a one-shot wall-clock comparison at the experiments' Reduced scale
//! (120 nodes) *and* the paper scale (1 000 nodes) and prints it — that is where the
//! amortisation dominates (numbers recorded in EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use p2pgrid_bench::{bench_criterion_config, BENCH_SEED};
use p2pgrid_core::{GridConfig, Scenario};
use p2pgrid_experiments::ExperimentScale;
use std::hint::black_box;

/// One-shot derive-vs-rebuild wall clock at a given scale, printed for EXPERIMENTS.md.
fn print_one_shot(label: &str, cfg: GridConfig) {
    let t = std::time::Instant::now();
    let base = Scenario::build(cfg).expect("bench config is valid");
    let build = t.elapsed();
    const POINTS: u64 = 32;
    let t = std::time::Instant::now();
    for s in 0..POINTS {
        let derived = base.with_seed(BENCH_SEED ^ s).expect("derive succeeds");
        assert!(derived.shares_topology_with(&base));
        black_box(derived);
    }
    let derive = t.elapsed();
    println!(
        "# scenario_derive @ {label}: one Scenario::build {build:?}; \
         {POINTS}-point with_seed sweep {derive:?} \
         ({:?}/point, {:.1}x cheaper than rebuilding each point)",
        derive / POINTS as u32,
        build.as_secs_f64() / (derive.as_secs_f64() / POINTS as f64)
    );
}

fn bench(c: &mut Criterion) {
    if std::env::var_os("P2PGRID_BENCH_REDUCED").is_some() {
        print_one_shot(
            "Reduced (120 nodes)",
            ExperimentScale::Reduced.base_config(BENCH_SEED),
        );
        print_one_shot(
            "paper scale (1000 nodes)",
            ExperimentScale::Full.base_config(BENCH_SEED),
        );
    }

    let cfg = || {
        let mut cfg = GridConfig::small(64).with_seed(BENCH_SEED);
        cfg.workflows_per_node = 2;
        cfg
    };
    let base = Scenario::build(cfg()).expect("bench config is valid");
    let mut group = c.benchmark_group("scenario_derive");
    group.bench_function("with_seed_derive_64_nodes", |bencher| {
        let mut seed = 0u64;
        bencher.iter(|| {
            seed += 1;
            black_box(base.with_seed(seed).expect("derive succeeds"))
        })
    });
    group.bench_function("full_rebuild_64_nodes", |bencher| {
        let mut seed = 0u64;
        bencher.iter(|| {
            seed += 1;
            black_box(Scenario::build(cfg().with_seed(seed)).expect("bench config is valid"))
        })
    });
    group.bench_function("with_load_factor_derive_64_nodes", |bencher| {
        let mut lf = 0usize;
        bencher.iter(|| {
            lf = lf % 4 + 1;
            black_box(
                base.derive(|c| c.with_load_factor(lf))
                    .expect("derive succeeds"),
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_criterion_config();
    targets = bench
}
criterion_main!(benches);
