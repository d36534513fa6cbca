//! The dynamic-environment experiment of Fig. 12–14: DSMF under node churn.
//!
//! Half of the population is stable (and hosts the workflows); the other half joins/leaves the
//! system every scheduling interval according to the dynamic factor `df`.  The paper observes
//! that throughput degrades with `df` (workflows whose tasks sat on departed nodes are lost)
//! while the finish time and efficiency of the workflows that *do* finish stay roughly stable
//! for `df ≤ 0.2`.

use crate::campaign;
use crate::figures::{FigureData, ReportGrid};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, AlgorithmConfig, ChurnConfig};
use p2pgrid_metrics::WorkflowMetrics;

/// Run the sweep with the paper's behaviour (lost tasks fail their workflow): one row,
/// `DSMF`, and one point per dynamic factor.
///
/// The base world is built **once**; each dynamic factor is derived from it with
/// [`Scenario::derive`](p2pgrid_core::Scenario::derive), sharing the topology tables.
pub fn run(scale: ExperimentScale, seed: u64) -> ReportGrid {
    campaign::sweep(
        &scale.base_world(seed),
        &scale.dynamic_factor_sweep(),
        |config, df| config.with_churn(ChurnConfig::with_dynamic_factor(df)),
        &[AlgorithmConfig::paper_default(Algorithm::Dsmf)],
    )
    .unwrap_or_else(|e| panic!("invalid churn sweep point: {e}"))
}

/// Fig. 12–14: throughput, average finish time and average efficiency over time, one curve
/// per dynamic factor.
pub fn figures(grid: &ReportGrid) -> [FigureData; 3] {
    let label = |_: &str, df: f64| format!("dynamic factor={df:.1}");
    [
        FigureData::hourly(
            "fig12",
            "Throughput of DSMF in a dynamic environment",
            "workflows finished",
            grid,
            label,
            WorkflowMetrics::throughput_series,
        ),
        FigureData::hourly(
            "fig13",
            "Average finish-time of DSMF in a dynamic environment",
            "ACT (s)",
            grid,
            label,
            WorkflowMetrics::act_series,
        ),
        FigureData::hourly(
            "fig14",
            "Average efficiency of DSMF in a dynamic environment",
            "AE",
            grid,
            label,
            WorkflowMetrics::ae_series,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_core::RecoveryPolicy;

    #[test]
    fn churn_sweep_shows_throughput_degradation_but_stable_survivor_metrics() {
        let grid = run(ExperimentScale::Smoke, 21);
        let reports = &grid.reports[0];
        assert_eq!(reports.len(), grid.xs.len());
        assert_eq!(grid.xs[0], 0.0);
        let static_run = &reports[0];
        let heavy_churn = reports.last().unwrap();
        assert!(static_run.failed == 0, "no churn means no failures");
        assert!(
            heavy_churn.completed <= static_run.completed,
            "churn should not increase throughput"
        );
        // Figures carry one curve per dynamic factor.
        for fig in figures(&grid) {
            assert_eq!(fig.series.len(), grid.xs.len());
        }
    }

    /// The paper's future-work extension: tasks lost to churn are re-scheduled (an
    /// unlimited-budget [`RecoveryPolicy::Retry`]) instead of failing their workflow.
    #[test]
    fn rescheduling_extension_recovers_throughput() {
        let scale = ExperimentScale::Smoke;
        let plain = run(scale, 22);
        let resched = campaign::sweep(
            &scale.base_world(22),
            &scale.dynamic_factor_sweep(),
            |config, df| {
                config
                    .with_churn(ChurnConfig::with_dynamic_factor(df))
                    .with_recovery(RecoveryPolicy::unlimited_retry())
            },
            &[AlgorithmConfig::paper_default(Algorithm::Dsmf)],
        )
        .unwrap();
        let df_max_plain = plain.reports[0].last().unwrap();
        let df_max_resched = resched.reports[0].last().unwrap();
        assert_eq!(df_max_resched.failed, 0);
        assert!(
            df_max_resched.completed >= df_max_plain.completed,
            "rescheduling should not lose more workflows than the paper behaviour"
        );
    }
}
