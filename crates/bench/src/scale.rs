//! Benchmark-scale configuration helpers.

use p2pgrid_core::GridConfig;
use p2pgrid_sim::SimDuration;

/// Seed used by every benchmark, so that its worlds are the same run to run.
pub const BENCH_SEED: u64 = 20100913;

/// A grid configuration sized for Criterion iterations: the paper's parameter ranges, a reduced
/// node count / load factor and the full scheduling machinery.
pub fn bench_grid_config(
    nodes: usize,
    workflows_per_node: usize,
    horizon_hours: u64,
) -> GridConfig {
    let mut cfg = GridConfig::paper_default()
        .with_nodes(nodes)
        .with_seed(BENCH_SEED)
        .with_load_factor(workflows_per_node);
    cfg.horizon = SimDuration::from_hours(horizon_hours);
    cfg
}

/// Criterion settings shared by the simulation-heavy benches: few samples, bounded measurement
/// time, so `cargo bench` over the whole harness stays in the minutes range.
pub fn bench_criterion_config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5))
        .configure_from_args()
}
