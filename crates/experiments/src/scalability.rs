//! The scalability experiment of Fig. 11: DSMF as the system grows.
//!
//! * Fig. 11(a): the number of resource nodes each node knows through the mixed gossip protocol
//!   (the average `RSS` size) stays below ~30 even at 2 000 nodes.
//! * Fig. 11(b)/(c): DSMF's average efficiency and average finish time stay stable with scale.

use crate::campaign;
use crate::figures::{FigureData, ReportGrid};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, AlgorithmConfig, Scenario, SimulationReport};
use rayon::prelude::*;

/// Run the sweep (one DSMF run per system scale, across the pool): one row, `DSMF`, and one
/// point per node count.
///
/// This is the one sweep that cannot derive its points from one base world: every point has a
/// different node count and therefore a genuinely different topology.  The worlds are built
/// in parallel, then the sessions run through the same [`campaign`] path as every other
/// experiment.
pub fn run(scale: ExperimentScale, seed: u64) -> ReportGrid {
    let node_counts = scale.scalability_sweep();
    let scenarios: Vec<Scenario> = node_counts
        .par_iter()
        .map(|&n| {
            Scenario::build(scale.base_config(seed).with_nodes(n))
                .unwrap_or_else(|e| panic!("invalid {n}-node configuration: {e}"))
        })
        .collect();
    // The jobs hold the only handles, so each world is freed once its session has run.
    let dsmf = AlgorithmConfig::paper_default(Algorithm::Dsmf);
    let jobs = campaign::cross(&scenarios, &[dsmf]);
    drop(scenarios);
    let xs = node_counts.iter().map(|&n| n as f64).collect();
    campaign::run_grid(vec![dsmf.label()], xs, jobs)
}

/// Fig. 11: (a) the average number of peers known per node (space scalability of the gossip),
/// (b) average efficiency and (c) average finish time, each versus system scale.
pub fn figures(grid: &ReportGrid) -> [FigureData; 3] {
    let x_label = "system scale (n)";
    [
        FigureData::scalar(
            "fig11a",
            "Number of nodes known by each node (gossip space scalability)",
            x_label,
            "average RSS size",
            grid,
            |r| r.avg_rss_size,
        ),
        FigureData::scalar(
            "fig11b",
            "Average execution efficiency versus system scale",
            x_label,
            "AE",
            grid,
            SimulationReport::average_efficiency,
        ),
        FigureData::scalar(
            "fig11c",
            "Average finish-time versus system scale",
            x_label,
            "ACT (s)",
            grid,
            SimulationReport::act_secs,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_bounded_rss_and_stable_metrics() {
        let grid = run(ExperimentScale::Smoke, 17);
        assert_eq!(grid.reports[0].len(), grid.xs.len());
        let [fig_a, fig_b, fig_c] = figures(&grid);
        assert_eq!(fig_a.series[0].points.len(), grid.xs.len());
        for &(_, rss) in &fig_a.series[0].points {
            assert!(rss >= 1.0);
            assert!(rss <= 40.0, "RSS size {rss} exceeds the O(log n) band");
        }
        for &(_, ae) in &fig_b.series[0].points {
            assert!(ae > 0.0);
        }
        for &(_, act) in &fig_c.series[0].points {
            assert!(act > 0.0);
        }
    }
}
