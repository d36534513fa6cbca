//! The communication-to-computation ratio experiment of Fig. 9 / Fig. 10.
//!
//! The paper uses four combinations of task-load and dependent-data ranges (CCR roughly 1.6,
//! 0.16, 1.6 and 16) and compares the converged ACT and AE of all eight algorithms under each.

use crate::campaign;
use crate::figures::{FigureData, ReportGrid};
use crate::scale::ExperimentScale;
use p2pgrid_core::SimulationReport;
use std::ops::RangeInclusive;

/// One load/data combination of Fig. 9/10.
#[derive(Debug, Clone, PartialEq)]
pub struct CcrCase {
    /// Label used on the x axis (matches the paper's tick labels).
    pub label: String,
    /// Task load range in MI.
    pub load_mi: RangeInclusive<f64>,
    /// Dependent data range in Mb.
    pub data_mb: RangeInclusive<f64>,
}

/// The paper's four CCR cases.
pub fn paper_cases() -> Vec<CcrCase> {
    vec![
        CcrCase {
            label: "load 10-1000 / data 10-1000".into(),
            load_mi: 10.0..=1000.0,
            data_mb: 10.0..=1000.0,
        },
        CcrCase {
            label: "load 10-1000 / data 100-10000".into(),
            load_mi: 10.0..=1000.0,
            data_mb: 100.0..=10_000.0,
        },
        CcrCase {
            label: "load 100-10000 / data 10-1000".into(),
            load_mi: 100.0..=10_000.0,
            data_mb: 10.0..=1000.0,
        },
        CcrCase {
            label: "load 100-10000 / data 100-10000".into(),
            load_mi: 100.0..=10_000.0,
            data_mb: 100.0..=10_000.0,
        },
    ]
}

/// Run the sweep (algorithms × cases, across the pool): one row per algorithm, in
/// [`p2pgrid_core::Algorithm::ALL`] order, and point `i` (x = `i`) is `paper_cases()[i]`.  The
/// base world is built **once**; each load/data case is derived from it with
/// [`Scenario::derive`](p2pgrid_core::Scenario::derive).  Only the workflow stream
/// re-samples: the topology, the all-pairs metrics and the gossip trace are shared by all
/// four cases.
pub fn run(scale: ExperimentScale, seed: u64) -> ReportGrid {
    let cases = paper_cases();
    let xs: Vec<f64> = (0..cases.len()).map(|i| i as f64).collect();
    campaign::sweep(
        &scale.base_world(seed),
        &xs,
        |config, i| {
            let case = &cases[i as usize];
            config.with_load_and_data(case.load_mi.clone(), case.data_mb.clone())
        },
        &campaign::paper_algorithms(),
    )
    .unwrap_or_else(|e| panic!("invalid CCR case: {e}"))
}

/// Fig. 9 and Fig. 10: converged ACT and AE for each load/data combination.
pub fn figures(grid: &ReportGrid) -> [FigureData; 2] {
    [
        FigureData::scalar(
            "fig9",
            "Average finish-time of workflows under different CCRs",
            "case index",
            "ACT (s)",
            grid,
            SimulationReport::act_secs,
        ),
        FigureData::scalar(
            "fig10",
            "Average efficiency of workflows under different CCRs",
            "case index",
            "AE",
            grid,
            SimulationReport::average_efficiency,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_four_paper_cases_cover_the_ccr_range() {
        let cases = paper_cases();
        assert_eq!(cases.len(), 4);
        assert_eq!(*cases[1].data_mb.end(), 10_000.0);
        assert_eq!(*cases[2].load_mi.end(), 10_000.0);
    }

    #[test]
    fn smoke_sweep_produces_all_points() {
        let grid = run(ExperimentScale::Smoke, 9);
        assert_eq!(grid.reports.len(), 8);
        for row in &grid.reports {
            assert_eq!(row.len(), 4);
        }
        let [fig9, fig10] = figures(&grid);
        assert_eq!(fig9.series.len(), 8);
        assert_eq!(fig10.series.len(), 8);
        for s in &fig10.series {
            assert!(s.points.iter().all(|&(_, y)| y >= 0.0));
        }
    }
}
