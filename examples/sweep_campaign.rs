//! Batched sweeps over derived worlds.
//!
//! Build one base world, derive a seed sweep from it with `Scenario::with_seed` (the whole
//! sweep shares the base's `Arc`'d topology / all-pairs-metrics / landmark tables, so it
//! pays for exactly one expensive build), then run every (world, algorithm) job in parallel
//! with `p2pgrid::experiments::campaign`.
//!
//! Run with `cargo run --release --example sweep_campaign`.  Set `P2PGRID_POOL_THREADS` to
//! the number of threads a sweep may use (`=1` runs every session on the calling thread).

use p2pgrid::experiments::campaign;
use p2pgrid::prelude::*;
use std::time::Instant;

fn main() {
    let mut config = GridConfig::paper_default().with_nodes(80).with_seed(1);
    config.workflows_per_node = 2;

    let t = Instant::now();
    let base = Scenario::build(config).expect("campaign config is valid");
    println!(
        "base world (80 peers) built in {:?} — the only topology/metrics build this run pays",
        t.elapsed()
    );

    // An 8-point replicate sweep: same network, eight independent re-samples of the workload.
    let seeds: Vec<u64> = (0..8).map(|s| 1000 + s).collect();
    let t = Instant::now();
    let scenarios: Vec<Scenario> = seeds
        .iter()
        .map(|&s| base.with_seed(s))
        .collect::<Result<_, _>>()
        .expect("derivation is valid");
    println!(
        "derived {} sweep points in {:?}",
        scenarios.len(),
        t.elapsed()
    );
    assert!(
        scenarios.iter().all(|s| s.shares_topology_with(&base)),
        "every sweep point must share the base topology tables"
    );

    let algorithms = [
        AlgorithmConfig::paper_default(Algorithm::Dsmf),
        AlgorithmConfig::paper_default(Algorithm::Dheft),
        AlgorithmConfig::paper_default(Algorithm::MinMin),
    ];
    let jobs = campaign::cross(&scenarios, &algorithms);
    let t = Instant::now();
    let reports = campaign::run(jobs);
    println!(
        "ran {} sessions across {} pool workers in {:?}",
        reports.len(),
        rayon::current_num_threads(),
        t.elapsed()
    );

    // Reports come back in job order (algorithm-major), so each algorithm's seed replicates
    // are one contiguous row.
    println!();
    println!("mean over {} seed replicates:", seeds.len());
    for (row, reports) in algorithms.iter().zip(reports.chunks(seeds.len())) {
        let n = reports.len() as f64;
        let act = reports.iter().map(|r| r.act_secs()).sum::<f64>() / n;
        let ae = reports.iter().map(|r| r.average_efficiency()).sum::<f64>() / n;
        let completed: u64 = reports.iter().map(|r| r.completed).sum();
        println!(
            "  {:<10} finished {:>4} workflows  mean ACT {:>8.0} s  mean AE {:>6.3}",
            row.algorithm.name(),
            completed,
            act,
            ae
        );
    }
    println!();
    println!("DSMF should keep the lowest mean ACT and the highest mean AE across replicates.");
}
