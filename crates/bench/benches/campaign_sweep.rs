//! The pooled campaign path versus sequential execution, plus the pool-balance regression
//! bench for skewed per-item costs.
//!
//! `campaign::run` fans independent simulation sessions out across the `rayon` shim's
//! parallel map; `campaign::run_sequential` is the single-threaded reference.  Criterion
//! times both on a small sweep; setting `P2PGRID_BENCH_REDUCED=1` additionally runs a
//! one-shot wall-clock comparison of a Reduced-scale campaign (the EXPERIMENTS.md speedup
//! number).  Each side of that comparison runs on its own freshly built worlds, built
//! outside the timed span, so both pay the one gossip-trace build a campaign pays.
//!
//! The `pool_balance` group pins the load balance of the parallel map: one item costs ~64x
//! the others.  A static one-chunk-per-core split serialised behind the heavy chunk (speedup
//! -> 1 as the skew grows); with threads pulling one item at a time from a shared queue, the
//! light items spread over the other threads while one thread chews the heavy item.

use criterion::{criterion_group, criterion_main, Criterion};
use p2pgrid_bench::{bench_criterion_config, BENCH_SEED};
use p2pgrid_core::{Algorithm, AlgorithmConfig, GridConfig, Scenario};
use p2pgrid_experiments::{campaign, ExperimentScale};
use rayon::prelude::*;
use std::hint::black_box;

/// One world per load factor, derived from `base`.
fn load_factor_worlds(base: &Scenario, load_factors: &[usize]) -> Vec<Scenario> {
    load_factors
        .iter()
        .map(|&lf| base.derive(|c| c.with_load_factor(lf)))
        .collect::<Result<_, _>>()
        .expect("derive succeeds")
}

fn smoke_jobs() -> Vec<campaign::Job> {
    let mut cfg = GridConfig::small(24).with_seed(BENCH_SEED);
    cfg.workflows_per_node = 2;
    let base = Scenario::build(cfg).expect("bench config is valid");
    let scenarios = load_factor_worlds(&base, &[1, 2]);
    campaign::cross(
        &scenarios,
        &[
            AlgorithmConfig::paper_default(Algorithm::Dsmf),
            AlgorithmConfig::paper_default(Algorithm::MinMin),
            AlgorithmConfig::paper_default(Algorithm::Heft),
            AlgorithmConfig::paper_default(Algorithm::MaxMin),
        ],
    )
}

/// Four load factors x two algorithms on a freshly built Reduced world whose gossip trace
/// has not run yet.
fn reduced_jobs() -> Vec<campaign::Job> {
    let base = Scenario::build(ExperimentScale::Reduced.base_config(BENCH_SEED))
        .expect("bench config is valid");
    let scenarios = load_factor_worlds(&base, &[1, 2, 3, 4]);
    campaign::cross(
        &scenarios,
        &[
            AlgorithmConfig::paper_default(Algorithm::Dsmf),
            AlgorithmConfig::paper_default(Algorithm::MinMin),
        ],
    )
}

fn bench_campaign(c: &mut Criterion) {
    if std::env::var_os("P2PGRID_BENCH_REDUCED").is_some() {
        let jobs = reduced_jobs();
        let t = std::time::Instant::now();
        let pooled = campaign::run(jobs);
        let t_pooled = t.elapsed();
        let jobs = reduced_jobs();
        let t = std::time::Instant::now();
        let sequential = campaign::run_sequential(jobs);
        let t_sequential = t.elapsed();
        assert_eq!(pooled.len(), sequential.len());
        for (p, s) in pooled.iter().zip(&sequential) {
            assert_eq!(p.completed, s.completed, "pooled run must match sequential");
        }
        println!(
            "# campaign_sweep @ Reduced scale ({} jobs = 4 load factors x 2 algorithms, \
             one shared topology): pooled {t_pooled:?} vs sequential {t_sequential:?} \
             ({:.2}x speedup on {} workers)",
            pooled.len(),
            t_sequential.as_secs_f64() / t_pooled.as_secs_f64(),
            rayon::current_num_threads()
        );
    }

    let jobs = smoke_jobs();
    let mut group = c.benchmark_group("campaign_sweep");
    group.bench_function("pooled_8_jobs", |bencher| {
        bencher.iter(|| black_box(campaign::run(jobs.clone()).len()))
    });
    group.bench_function("sequential_8_jobs", |bencher| {
        bencher.iter(|| black_box(campaign::run_sequential(jobs.clone()).len()))
    });
    group.finish();
}

/// Deterministic CPU burn whose cost scales with `rounds`.
fn burn(rounds: u64) -> f64 {
    let mut acc = 1.000_000_1f64;
    for i in 0..rounds {
        acc = acc.mul_add(1.000_000_9, (i % 7) as f64 * 1e-9);
    }
    acc
}

fn bench_pool_balance(c: &mut Criterion) {
    // 63 light items plus one 64x-heavy head: with the static per-core split, the chunk
    // holding item 0 costs as much as all other chunks combined.
    let rounds: Vec<u64> = (0..64u64)
        .map(|i| if i == 0 { 2_560_000 } else { 40_000 })
        .collect();
    let mut group = c.benchmark_group("pool_balance");
    group.bench_function("skewed_64_items_par", |bencher| {
        bencher.iter(|| {
            let out: Vec<f64> = rounds.par_iter().map(|&r| burn(r)).collect();
            black_box(out)
        })
    });
    group.bench_function("skewed_64_items_sequential", |bencher| {
        bencher.iter(|| {
            let out: Vec<f64> = rounds.iter().map(|&r| burn(r)).collect();
            black_box(out)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = bench_criterion_config();
    targets = bench_campaign, bench_pool_balance
}
criterion_main!(benches);
