//! The §IV.B second-phase ablation: min-min / max-min / sufferage / DHEFT with their paper
//! ready-set rules versus plain FCFS ready sets.
//!
//! The paper reports converged average finish times of 31 977 / 33 495 / 30 321 / 30 728 with
//! the second phase enabled against 32 874 / 33 746 / 32 781 / 32 636 with FCFS, concluding
//! that "FCFS is not suggested to take over the ready task scheduling work".  The reproduction
//! target is the *direction* of that comparison (the paper rules beat or match FCFS), not the
//! absolute values.

use crate::campaign;
use crate::figures::{FigureData, ReportGrid};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, AlgorithmConfig, SimulationReport};
use p2pgrid_metrics::format_table;

/// The algorithms the paper runs through the ablation.
pub const ABLATED_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::MinMin,
    Algorithm::MaxMin,
    Algorithm::Sufferage,
    Algorithm::Dheft,
];

/// Run the ablation (eight simulations across the pool, all sharing one pre-built world):
/// row 0 runs each ablated algorithm with the paper's second phase, row 1 with a FCFS ready
/// set, and point `i` (x = `i`) is `ABLATED_ALGORITHMS[i]`.
pub fn run(scale: ExperimentScale, seed: u64) -> ReportGrid {
    let configs: Vec<AlgorithmConfig> = ABLATED_ALGORITHMS
        .map(AlgorithmConfig::paper_default)
        .into_iter()
        .chain(ABLATED_ALGORITHMS.map(AlgorithmConfig::with_fcfs_second_phase))
        .collect();
    let jobs = campaign::cross(&[scale.base_world(seed)], &configs);
    let xs = (0..ABLATED_ALGORITHMS.len()).map(|i| i as f64).collect();
    campaign::run_grid(vec!["paper second phase".into(), "FCFS".into()], xs, jobs)
}

/// The converged ACT comparison as a figure (x = algorithm index).
pub fn figures(grid: &ReportGrid) -> [FigureData; 1] {
    [FigureData::scalar(
        "fcfs-ablation",
        "Converged ACT with the paper second phase vs FCFS ready sets",
        "algorithm index",
        "ACT (s)",
        grid,
        SimulationReport::act_secs,
    )]
}

/// The (paper second phase, FCFS) report pair of each ablated algorithm.
fn pairs(grid: &ReportGrid) -> impl Iterator<Item = (&SimulationReport, &SimulationReport)> {
    grid.reports[0].iter().zip(&grid.reports[1])
}

/// Render the ablation table (mirrors the §IV.B text numbers).
pub fn table(grid: &ReportGrid) -> String {
    let rows: Vec<Vec<String>> = ABLATED_ALGORITHMS
        .iter()
        .zip(pairs(grid))
        .map(|(algorithm, (paper, fcfs))| {
            vec![
                algorithm.name().to_string(),
                format!("{:.0}", paper.act_secs()),
                format!("{:.0}", fcfs.act_secs()),
                format!("{:.3}", paper.average_efficiency()),
                format!("{:.3}", fcfs.average_efficiency()),
            ]
        })
        .collect();
    format_table(
        &[
            "algorithm",
            "ACT (phase 2)",
            "ACT (FCFS)",
            "AE (phase 2)",
            "AE (FCFS)",
        ],
        &rows,
    )
}

/// Number of ablated algorithms whose paper second phase beats (or ties) FCFS on ACT.
pub fn second_phase_wins(grid: &ReportGrid) -> usize {
    pairs(grid)
        .filter(|(paper, fcfs)| paper.act_secs() <= fcfs.act_secs() * 1.02)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_reports_all_pairs() {
        let grid = run(ExperimentScale::Smoke, 5);
        assert_eq!(grid.reports.len(), 2);
        for (i, (paper, fcfs)) in pairs(&grid).enumerate() {
            let algorithm = ABLATED_ALGORITHMS[i];
            assert_eq!(paper.algorithm, algorithm.name());
            assert_eq!(fcfs.algorithm, format!("{algorithm}+FCFS"));
            assert!(paper.completed > 0 && fcfs.completed > 0, "{algorithm}");
        }
        let table = table(&grid);
        assert!(table.contains("min-min"));
        assert!(table.contains("DHEFT"));
        let [fig] = figures(&grid);
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 4);
        assert!(second_phase_wins(&grid) <= 4);
    }
}
