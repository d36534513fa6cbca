//! The resource-competition experiment of Fig. 7 / Fig. 8: sweep the *load factor* (average
//! number of workflows submitted per node) from 1 to 8 and compare converged ACT and AE.

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, Scenario, SimulationReport};

/// Results of the load-factor sweep: `reports[algorithm][sweep point]`.
#[derive(Debug, Clone)]
pub struct LoadFactorSweep {
    /// The swept load factors.
    pub load_factors: Vec<usize>,
    /// One row of reports per algorithm, in [`Algorithm::ALL`] order.
    pub reports: Vec<Vec<SimulationReport>>,
}

/// Run the sweep (algorithms × load factors, across the pool).  The base world is built
/// **once**; each sweep point is derived from it with [`Scenario::derive`].  Only the
/// workflow draw changes, so the whole sweep pays for a single topology and all-pairs-metrics
/// computation and a single gossip-protocol run.
pub fn run(scale: ExperimentScale, seed: u64) -> LoadFactorSweep {
    let load_factors = scale.load_factor_sweep();
    let base = Scenario::build(scale.base_config(seed))
        .unwrap_or_else(|e| panic!("invalid load-factor base configuration: {e}"));
    let reports = campaign::sweep(
        &base,
        &load_factors,
        |config, &lf| config.with_load_factor(lf),
        &campaign::paper_algorithms(),
    )
    .unwrap_or_else(|e| panic!("invalid load-factor sweep point: {e}"));
    LoadFactorSweep {
        load_factors,
        reports,
    }
}

impl LoadFactorSweep {
    fn figure(
        &self,
        id: &str,
        title: &str,
        y_label: &str,
        f: impl Fn(&SimulationReport) -> f64,
    ) -> FigureData {
        let mut fig = FigureData::new(id, title, "load factor", y_label);
        for (alg, row) in Algorithm::ALL.iter().zip(&self.reports) {
            let points = self
                .load_factors
                .iter()
                .zip(row)
                .map(|(&lf, r)| (lf as f64, f(r)))
                .collect();
            fig.push_series(Series::new(alg.name(), points));
        }
        fig
    }

    /// Fig. 7: converged average finish time versus load factor.
    pub fn fig7_average_finish_time(&self) -> FigureData {
        self.figure(
            "fig7",
            "Average finish-time of workflows under different load factors",
            "ACT (s)",
            |r| r.act_secs(),
        )
    }

    /// Fig. 8: converged average efficiency versus load factor.
    pub fn fig8_average_efficiency(&self) -> FigureData {
        self.figure(
            "fig8",
            "Average efficiency of workflows under different load factors",
            "AE",
            |r| r.average_efficiency(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_a_point_per_algorithm_and_factor() {
        let sweep = run(ExperimentScale::Smoke, 3);
        assert_eq!(sweep.reports.len(), 8);
        for row in &sweep.reports {
            assert_eq!(row.len(), sweep.load_factors.len());
        }
        let fig7 = sweep.fig7_average_finish_time();
        let fig8 = sweep.fig8_average_efficiency();
        assert_eq!(fig7.series.len(), 8);
        assert_eq!(fig8.series.len(), 8);
        for s in &fig7.series {
            assert_eq!(s.points.len(), sweep.load_factors.len());
            assert!(s.points.iter().all(|&(_, y)| y >= 0.0));
        }
        // Higher load factors submit more workflows.
        let dsmf_row = &sweep.reports[Algorithm::ALL
            .iter()
            .position(|&a| a == Algorithm::Dsmf)
            .unwrap()];
        assert!(dsmf_row.last().unwrap().submitted > dsmf_row.first().unwrap().submitted);
    }
}
