//! The resource-competition experiment of Fig. 7 / Fig. 8: sweep the *load factor* (average
//! number of workflows submitted per node) from 1 to 8 and compare converged ACT and AE.

use crate::campaign;
use crate::figures::{FigureData, ReportGrid};
use crate::scale::ExperimentScale;
use p2pgrid_core::SimulationReport;

/// Run the sweep (algorithms × load factors, across the pool): one row per algorithm, in
/// [`p2pgrid_core::Algorithm::ALL`] order, one point per load factor.  The base world is
/// built **once**; each sweep point is derived from it with
/// [`Scenario::derive`](p2pgrid_core::Scenario::derive).  Only the workflow draw changes, so
/// the whole sweep pays for a single topology and all-pairs-metrics computation and a single
/// gossip-protocol run.
pub fn run(scale: ExperimentScale, seed: u64) -> ReportGrid {
    let load_factors: Vec<f64> = scale
        .load_factor_sweep()
        .into_iter()
        .map(|lf| lf as f64)
        .collect();
    campaign::sweep(
        &scale.base_world(seed),
        &load_factors,
        |config, lf| config.with_load_factor(lf as usize),
        &campaign::paper_algorithms(),
    )
    .unwrap_or_else(|e| panic!("invalid load-factor sweep point: {e}"))
}

/// Fig. 7 and Fig. 8: converged average finish time and average efficiency versus load
/// factor.
pub fn figures(grid: &ReportGrid) -> [FigureData; 2] {
    [
        FigureData::scalar(
            "fig7",
            "Average finish-time of workflows under different load factors",
            "load factor",
            "ACT (s)",
            grid,
            SimulationReport::act_secs,
        ),
        FigureData::scalar(
            "fig8",
            "Average efficiency of workflows under different load factors",
            "load factor",
            "AE",
            grid,
            SimulationReport::average_efficiency,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_core::Algorithm;

    #[test]
    fn smoke_sweep_produces_a_point_per_algorithm_and_factor() {
        let grid = run(ExperimentScale::Smoke, 3);
        assert_eq!(grid.reports.len(), 8);
        for row in &grid.reports {
            assert_eq!(row.len(), grid.xs.len());
        }
        let [fig7, fig8] = figures(&grid);
        assert_eq!(fig7.series.len(), 8);
        assert_eq!(fig8.series.len(), 8);
        for s in &fig7.series {
            assert_eq!(s.points.len(), grid.xs.len());
            assert!(s.points.iter().all(|&(_, y)| y >= 0.0));
        }
        // Higher load factors submit more workflows.
        let dsmf_row = &grid.reports[Algorithm::ALL
            .iter()
            .position(|&a| a == Algorithm::Dsmf)
            .unwrap()];
        assert!(dsmf_row.last().unwrap().submitted > dsmf_row.first().unwrap().submitted);
    }
}
