//! The headline static-environment comparison: Fig. 4 (throughput), Fig. 5 (ACT), Fig. 6 (AE)
//! and the abstract's 20–60 % / 37.5–90 % claims.

use crate::campaign;
use crate::figures::{FigureData, ReportGrid};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, AlgorithmConfig, Scenario, SimulationReport};
use p2pgrid_metrics::{format_table, WorkflowMetrics};

/// Run the eight algorithms (in parallel) on the same static grid.  The world — topology,
/// all-pairs bandwidths, capacities, workflows — is built **once** and shared across all
/// eight sessions; only the scheduler differs per run.
pub fn run(scale: ExperimentScale, seed: u64) -> ReportGrid {
    run_on(&scale.base_world(seed))
}

/// Run the eight algorithms (across the pool) on one pre-built shared [`Scenario`]: one row
/// per algorithm, in [`Algorithm::ALL`] order, at a single point (x = 0).
pub fn run_on(scenario: &Scenario) -> ReportGrid {
    let algorithms = campaign::paper_algorithms();
    let labels = algorithms.iter().map(AlgorithmConfig::label).collect();
    let jobs = campaign::cross(std::slice::from_ref(scenario), &algorithms);
    campaign::run_grid(labels, vec![0.0], jobs)
}

/// Fig. 4–6: throughput, average finish time and average efficiency over time, one curve per
/// algorithm.
pub fn figures(grid: &ReportGrid) -> [FigureData; 3] {
    let label = |algorithm: &str, _: f64| algorithm.to_string();
    [
        FigureData::hourly(
            "fig4",
            "Throughput of workflows in a static P2P grid",
            "workflows finished",
            grid,
            label,
            WorkflowMetrics::throughput_series,
        ),
        FigureData::hourly(
            "fig5",
            "Average finish-time of workflows in a static P2P grid",
            "average finish time (s)",
            grid,
            label,
            WorkflowMetrics::act_series,
        ),
        FigureData::hourly(
            "fig6",
            "Average efficiency of workflows in a static P2P grid",
            "average efficiency",
            grid,
            label,
            WorkflowMetrics::ae_series,
        ),
    ]
}

/// The converged (end-of-run) summary table.
pub fn summary_table(grid: &ReportGrid) -> String {
    let rows: Vec<Vec<String>> = grid
        .reports
        .iter()
        .flatten()
        .map(SimulationReport::summary_row)
        .collect();
    format_table(&SimulationReport::summary_header(), &rows)
}

/// The abstract's headline claims, recomputed from a comparison run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineClaims {
    /// Smallest and largest percentage reduction of DSMF's ACT versus the other decentralized
    /// algorithms (paper: 20–60 %).
    pub act_reduction_pct: (f64, f64),
    /// Smallest and largest percentage improvement of DSMF's AE versus the other decentralized
    /// algorithms (paper: 37.5–90 %).
    pub ae_improvement_pct: (f64, f64),
}

/// Recompute the abstract's headline claims against the other decentralized algorithms.
pub fn headline(grid: &ReportGrid) -> HeadlineClaims {
    let report = |alg: Algorithm| {
        let row = grid.labels.iter().position(|label| label == alg.name());
        &grid.reports[row.expect("every paper algorithm has a row")][0]
    };
    let dsmf = report(Algorithm::Dsmf);
    let mut act_red: Vec<f64> = Vec::new();
    let mut ae_imp: Vec<f64> = Vec::new();
    for alg in Algorithm::DECENTRALIZED {
        if alg == Algorithm::Dsmf {
            continue;
        }
        let other = report(alg);
        if other.act_secs() > 0.0 {
            act_red.push((other.act_secs() - dsmf.act_secs()) / other.act_secs() * 100.0);
        }
        if other.average_efficiency() > 0.0 {
            ae_imp.push(
                (dsmf.average_efficiency() - other.average_efficiency())
                    / other.average_efficiency()
                    * 100.0,
            );
        }
    }
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    HeadlineClaims {
        act_reduction_pct: range(&act_red),
        ae_improvement_pct: range(&ae_imp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_comparison_produces_all_figures() {
        let grid = run(ExperimentScale::Smoke, 11);
        assert_eq!(grid.reports.len(), 8);
        let [fig4, fig5, fig6] = figures(&grid);
        assert_eq!(fig4.series.len(), 8);
        assert_eq!(fig5.series.len(), 8);
        assert_eq!(fig6.series.len(), 8);
        for s in &fig4.series {
            assert!(!s.points.is_empty(), "{} has no throughput points", s.label);
            // Throughput is non-decreasing.
            let mut last = f64::NEG_INFINITY;
            for &(_, y) in &s.points {
                assert!(y >= last);
                last = y;
            }
        }
        let table = summary_table(&grid);
        assert!(table.contains("DSMF"));
        assert!(table.contains("SMF"));
        let headline = headline(&grid);
        assert!(headline.act_reduction_pct.0 <= headline.act_reduction_pct.1);
        assert!(headline.ae_improvement_pct.0 <= headline.ae_improvement_pct.1);
    }

    #[test]
    fn every_algorithm_finishes_some_workflows_at_smoke_scale() {
        let grid = run(ExperimentScale::Smoke, 23);
        for (alg, row) in Algorithm::ALL.iter().zip(&grid.reports) {
            assert_eq!(row.len(), 1);
            assert!(
                row[0].completed > 0,
                "{alg} completed no workflows in the smoke comparison"
            );
            assert_eq!(row[0].algorithm, alg.name());
        }
    }
}
