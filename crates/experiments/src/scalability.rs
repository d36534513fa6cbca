//! The scalability experiment of Fig. 11: DSMF as the system grows.
//!
//! * Fig. 11(a): the number of resource nodes each node knows through the mixed gossip protocol
//!   (the average `RSS` size) stays below ~30 even at 2 000 nodes.
//! * Fig. 11(b)/(c): DSMF's average efficiency and average finish time stay stable with scale.

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, AlgorithmConfig, Scenario, SimulationReport};
use rayon::prelude::*;

/// Results of the scalability sweep (DSMF only, as in the paper).
#[derive(Debug, Clone)]
pub struct ScalabilitySweep {
    /// Swept node counts.
    pub node_counts: Vec<usize>,
    /// One report per node count.
    pub reports: Vec<SimulationReport>,
}

/// Run the sweep (one DSMF run per system scale, across the pool).
///
/// This is the one sweep that cannot derive its points from one base world: every point has a
/// different node count and therefore a genuinely different topology.  The worlds are built
/// in parallel, then the sessions run through the same [`campaign`] path as every other
/// experiment.
pub fn run(scale: ExperimentScale, seed: u64) -> ScalabilitySweep {
    let node_counts = scale.scalability_sweep();
    let scenarios: Vec<Scenario> = node_counts
        .par_iter()
        .map(|&n| {
            Scenario::build(scale.base_config(seed).with_nodes(n))
                .unwrap_or_else(|e| panic!("invalid {n}-node configuration: {e}"))
        })
        .collect();
    // The jobs hold the only handles, so each world is freed once its session has run.
    let jobs = campaign::cross(
        &scenarios,
        &[AlgorithmConfig::paper_default(Algorithm::Dsmf)],
    );
    drop(scenarios);
    ScalabilitySweep {
        node_counts,
        reports: campaign::run(jobs),
    }
}

impl ScalabilitySweep {
    fn points(&self, f: impl Fn(&SimulationReport) -> f64) -> Vec<(f64, f64)> {
        self.node_counts
            .iter()
            .zip(&self.reports)
            .map(|(&n, r)| (n as f64, f(r)))
            .collect()
    }

    /// Fig. 11(a): average number of peers known per node (space scalability of the gossip).
    pub fn fig11a_rss_size(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig11a",
            "Number of nodes known by each node (gossip space scalability)",
            "system scale (n)",
            "average RSS size",
        );
        fig.push_series(Series::new("DSMF", self.points(|r| r.avg_rss_size)));
        fig
    }

    /// Fig. 11(b): average efficiency versus scale.
    pub fn fig11b_average_efficiency(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig11b",
            "Average execution efficiency versus system scale",
            "system scale (n)",
            "AE",
        );
        fig.push_series(Series::new("DSMF", self.points(|r| r.average_efficiency())));
        fig
    }

    /// Fig. 11(c): average finish time versus scale.
    pub fn fig11c_average_finish_time(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig11c",
            "Average finish-time versus system scale",
            "system scale (n)",
            "ACT (s)",
        );
        fig.push_series(Series::new("DSMF", self.points(|r| r.act_secs())));
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_bounded_rss_and_stable_metrics() {
        let sweep = run(ExperimentScale::Smoke, 17);
        assert_eq!(sweep.reports.len(), sweep.node_counts.len());
        let fig_a = sweep.fig11a_rss_size();
        let fig_b = sweep.fig11b_average_efficiency();
        let fig_c = sweep.fig11c_average_finish_time();
        assert_eq!(fig_a.series[0].points.len(), sweep.node_counts.len());
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
