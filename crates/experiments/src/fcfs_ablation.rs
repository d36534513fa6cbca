//! The §IV.B second-phase ablation: min-min / max-min / sufferage / DHEFT with their paper
//! ready-set rules versus plain FCFS ready sets.
//!
//! The paper reports converged average finish times of 31 977 / 33 495 / 30 321 / 30 728 with
//! the second phase enabled against 32 874 / 33 746 / 32 781 / 32 636 with FCFS, concluding
//! that "FCFS is not suggested to take over the ready task scheduling work".  The reproduction
//! target is the *direction* of that comparison (the paper rules beat or match FCFS), not the
//! absolute values.

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, AlgorithmConfig, Scenario, SimulationReport};
use p2pgrid_metrics::format_table;

/// The algorithms the paper runs through the ablation.
pub const ABLATED_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::MinMin,
    Algorithm::MaxMin,
    Algorithm::Sufferage,
    Algorithm::Dheft,
];

/// One ablation pair: the same first-phase heuristic with the paper ready-set rule and with
/// FCFS.
#[derive(Debug, Clone)]
pub struct AblationPair {
    /// The first-phase heuristic.
    pub algorithm: Algorithm,
    /// Report with the paper's second phase.
    pub with_second_phase: SimulationReport,
    /// Report with the FCFS ready set.
    pub with_fcfs: SimulationReport,
}

/// Results of the full ablation.
#[derive(Debug, Clone)]
pub struct FcfsAblation {
    /// One pair per ablated algorithm.
    pub pairs: Vec<AblationPair>,
}

/// Run the ablation (eight simulations across the pool, all sharing one pre-built world).
pub fn run(scale: ExperimentScale, seed: u64) -> FcfsAblation {
    let scenario = Scenario::build(scale.base_config(seed))
        .unwrap_or_else(|e| panic!("invalid ablation configuration: {e}"));
    let configs: Vec<AlgorithmConfig> = ABLATED_ALGORITHMS
        .iter()
        .flat_map(|&alg| {
            [
                AlgorithmConfig::paper_default(alg),
                AlgorithmConfig::with_fcfs_second_phase(alg),
            ]
        })
        .collect();
    let reports = campaign::run(campaign::cross(std::slice::from_ref(&scenario), &configs));
    let pairs = ABLATED_ALGORITHMS
        .iter()
        .enumerate()
        .map(|(i, &algorithm)| AblationPair {
            algorithm,
            with_second_phase: reports[2 * i].clone(),
            with_fcfs: reports[2 * i + 1].clone(),
        })
        .collect();
    FcfsAblation { pairs }
}

impl FcfsAblation {
    /// The converged ACT comparison as a figure (x = algorithm index).
    pub fn figure(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fcfs-ablation",
            "Converged ACT with the paper second phase vs FCFS ready sets",
            "algorithm index",
            "ACT (s)",
        );
        fig.push_series(Series::new(
            "paper second phase",
            self.pairs
                .iter()
                .enumerate()
                .map(|(i, p)| (i as f64, p.with_second_phase.act_secs()))
                .collect(),
        ));
        fig.push_series(Series::new(
            "FCFS",
            self.pairs
                .iter()
                .enumerate()
                .map(|(i, p)| (i as f64, p.with_fcfs.act_secs()))
                .collect(),
        ));
        fig
    }

    /// Render the ablation table (mirrors the §IV.B text numbers).
    pub fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .pairs
            .iter()
            .map(|p| {
                vec![
                    p.algorithm.name().to_string(),
                    format!("{:.0}", p.with_second_phase.act_secs()),
                    format!("{:.0}", p.with_fcfs.act_secs()),
                    format!("{:.3}", p.with_second_phase.average_efficiency()),
                    format!("{:.3}", p.with_fcfs.average_efficiency()),
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
    pub fn second_phase_wins(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| p.with_second_phase.act_secs() <= p.with_fcfs.act_secs() * 1.02)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_reports_all_pairs() {
        let ablation = run(ExperimentScale::Smoke, 5);
        assert_eq!(ablation.pairs.len(), 4);
        for p in &ablation.pairs {
            assert!(p.with_second_phase.completed > 0, "{}", p.algorithm);
            assert!(p.with_fcfs.completed > 0, "{}", p.algorithm);
            assert!(p.with_fcfs.algorithm.contains("FCFS"));
        }
        let table = ablation.table();
        assert!(table.contains("min-min"));
        assert!(table.contains("DHEFT"));
        let fig = ablation.figure();
        assert_eq!(fig.series.len(), 2);
        assert_eq!(fig.series[0].points.len(), 4);
        assert!(ablation.second_phase_wins() <= 4);
    }
}
