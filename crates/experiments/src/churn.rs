//! The dynamic-environment experiment of Fig. 12–14: DSMF under node churn.
//!
//! Half of the population is stable (and hosts the workflows); the other half joins/leaves the
//! system every scheduling interval according to the dynamic factor `df`.  The paper observes
//! that throughput degrades with `df` (workflows whose tasks sat on departed nodes are lost)
//! while the finish time and efficiency of the workflows that *do* finish stay roughly stable
//! for `df ≤ 0.2`.

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use crate::static_comparison::series_points;
use p2pgrid_core::{
    Algorithm, AlgorithmConfig, ChurnConfig, RecoveryPolicy, Scenario, SimulationReport,
};

/// Results of the churn sweep (DSMF only, as in the paper).
#[derive(Debug, Clone)]
pub struct ChurnSweep {
    /// Swept dynamic factors.
    pub dynamic_factors: Vec<f64>,
    /// One report per dynamic factor.
    pub reports: Vec<SimulationReport>,
    /// Whether the future-work rescheduling extension was enabled.
    pub rescheduling: bool,
}

/// Run the sweep with the paper's behaviour (lost tasks fail their workflow).
pub fn run(scale: ExperimentScale, seed: u64) -> ChurnSweep {
    run_with_rescheduling(scale, seed, false)
}

/// Run the sweep, optionally enabling the paper's future-work extension that re-schedules tasks
/// lost to churn (an unlimited-budget [`RecoveryPolicy::Retry`]) instead of failing their
/// workflow.
///
/// The base world is built **once**; each dynamic factor is derived from it with
/// [`Scenario::derive`], sharing the topology tables.
pub fn run_with_rescheduling(scale: ExperimentScale, seed: u64, rescheduling: bool) -> ChurnSweep {
    let dynamic_factors = scale.dynamic_factor_sweep();
    let base = Scenario::build(scale.base_config(seed))
        .unwrap_or_else(|e| panic!("invalid churn base configuration: {e}"));
    let mut reports = campaign::sweep(
        &base,
        &dynamic_factors,
        |config, &df| {
            let churned = config.with_churn(ChurnConfig::with_dynamic_factor(df));
            if rescheduling {
                churned.with_recovery(RecoveryPolicy::unlimited_retry())
            } else {
                churned
            }
        },
        &[AlgorithmConfig::paper_default(Algorithm::Dsmf)],
    )
    .unwrap_or_else(|e| panic!("invalid churn sweep point: {e}"));
    ChurnSweep {
        dynamic_factors,
        reports: reports.remove(0),
        rescheduling,
    }
}

impl ChurnSweep {
    fn label(&self, df: f64) -> String {
        format!("dynamic factor={df:.1}")
    }

    /// Fig. 12: throughput over time for each dynamic factor.
    pub fn fig12_throughput(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig12",
            "Throughput of DSMF in a dynamic environment",
            "hour",
            "workflows finished",
        );
        for (df, r) in self.dynamic_factors.iter().zip(&self.reports) {
            fig.push_series(Series::new(
                self.label(*df),
                series_points(r.metrics.throughput_series()),
            ));
        }
        fig
    }

    /// Fig. 13: average finish time over time for each dynamic factor.
    pub fn fig13_average_finish_time(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig13",
            "Average finish-time of DSMF in a dynamic environment",
            "hour",
            "ACT (s)",
        );
        for (df, r) in self.dynamic_factors.iter().zip(&self.reports) {
            fig.push_series(Series::new(
                self.label(*df),
                series_points(r.metrics.act_series()),
            ));
        }
        fig
    }

    /// Fig. 14: average efficiency over time for each dynamic factor.
    pub fn fig14_average_efficiency(&self) -> FigureData {
        let mut fig = FigureData::new(
            "fig14",
            "Average efficiency of DSMF in a dynamic environment",
            "hour",
            "AE",
        );
        for (df, r) in self.dynamic_factors.iter().zip(&self.reports) {
            fig.push_series(Series::new(
                self.label(*df),
                series_points(r.metrics.ae_series()),
            ));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sweep_shows_throughput_degradation_but_stable_survivor_metrics() {
        let sweep = run(ExperimentScale::Smoke, 21);
        assert_eq!(sweep.reports.len(), sweep.dynamic_factors.len());
        assert_eq!(sweep.dynamic_factors[0], 0.0);
        let static_run = &sweep.reports[0];
        let heavy_churn = sweep.reports.last().unwrap();
        assert!(static_run.failed == 0, "no churn means no failures");
        assert!(
            heavy_churn.completed <= static_run.completed,
            "churn should not increase throughput"
        );
        // Figures carry one curve per dynamic factor.
        assert_eq!(
            sweep.fig12_throughput().series.len(),
            sweep.dynamic_factors.len()
        );
        assert_eq!(
            sweep.fig13_average_finish_time().series.len(),
            sweep.dynamic_factors.len()
        );
        assert_eq!(
            sweep.fig14_average_efficiency().series.len(),
            sweep.dynamic_factors.len()
        );
    }

    #[test]
    fn rescheduling_extension_recovers_throughput() {
        let plain = run(ExperimentScale::Smoke, 22);
        let resched = run_with_rescheduling(ExperimentScale::Smoke, 22, true);
        let df_max_plain = plain.reports.last().unwrap();
        let df_max_resched = resched.reports.last().unwrap();
        assert!(resched.rescheduling);
        assert_eq!(df_max_resched.failed, 0);
        assert!(
            df_max_resched.completed >= df_max_plain.completed,
            "rescheduling should not lose more workflows than the paper behaviour"
        );
    }
}
