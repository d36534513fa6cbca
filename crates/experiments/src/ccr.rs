//! The communication-to-computation ratio experiment of Fig. 9 / Fig. 10.
//!
//! The paper uses four combinations of task-load and dependent-data ranges (CCR roughly 1.6,
//! 0.16, 1.6 and 16) and compares the converged ACT and AE of all eight algorithms under each.

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, Scenario, SimulationReport};
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

/// Results of the CCR sweep: `reports[algorithm][case]`.
#[derive(Debug, Clone)]
pub struct CcrSweep {
    /// The four cases.
    pub cases: Vec<CcrCase>,
    /// One row per algorithm, in [`Algorithm::ALL`] order.
    pub reports: Vec<Vec<SimulationReport>>,
}

/// Run the sweep (algorithms × cases, across the pool).  The base world is built **once**;
/// each load/data case is derived from it with [`Scenario::derive`].  Only the workflow
/// stream re-samples: the topology, the all-pairs metrics and the gossip trace are shared by
/// all four cases.
pub fn run(scale: ExperimentScale, seed: u64) -> CcrSweep {
    let cases = paper_cases();
    let base = Scenario::build(scale.base_config(seed))
        .unwrap_or_else(|e| panic!("invalid CCR base configuration: {e}"));
    let reports = campaign::sweep(
        &base,
        &cases,
        |config, case| config.with_load_and_data(case.load_mi.clone(), case.data_mb.clone()),
        &campaign::paper_algorithms(),
    )
    .unwrap_or_else(|e| panic!("invalid CCR case: {e}"));
    CcrSweep { cases, reports }
}

impl CcrSweep {
    fn figure(
        &self,
        id: &str,
        title: &str,
        y_label: &str,
        f: impl Fn(&SimulationReport) -> f64,
    ) -> FigureData {
        let mut fig = FigureData::new(id, title, "case index", y_label);
        for (alg, row) in Algorithm::ALL.iter().zip(&self.reports) {
            let points = row
                .iter()
                .enumerate()
                .map(|(i, r)| (i as f64, f(r)))
                .collect();
            fig.push_series(Series::new(alg.name(), points));
        }
        fig
    }

    /// Fig. 9: converged ACT for each load/data combination.
    pub fn fig9_average_finish_time(&self) -> FigureData {
        self.figure(
            "fig9",
            "Average finish-time of workflows under different CCRs",
            "ACT (s)",
            |r| r.act_secs(),
        )
    }

    /// Fig. 10: converged AE for each load/data combination.
    pub fn fig10_average_efficiency(&self) -> FigureData {
        self.figure(
            "fig10",
            "Average efficiency of workflows under different CCRs",
            "AE",
            |r| r.average_efficiency(),
        )
    }
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
        let sweep = run(ExperimentScale::Smoke, 9);
        assert_eq!(sweep.reports.len(), 8);
        for row in &sweep.reports {
            assert_eq!(row.len(), 4);
        }
        let fig9 = sweep.fig9_average_finish_time();
        let fig10 = sweep.fig10_average_efficiency();
        assert_eq!(fig9.series.len(), 8);
        assert_eq!(fig10.series.len(), 8);
        for s in &fig10.series {
            assert!(s.points.iter().all(|&(_, y)| y >= 0.0));
        }
    }
}
