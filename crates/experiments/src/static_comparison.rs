//! The headline static-environment comparison: Fig. 4 (throughput), Fig. 5 (ACT), Fig. 6 (AE)
//! and the abstract's 20–60 % / 37.5–90 % claims.

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::{Algorithm, Scenario, SimulationReport};
use p2pgrid_metrics::{format_table, TimeSeries};

/// Results of running all eight algorithms on the same static workload.
#[derive(Debug, Clone)]
pub struct StaticComparison {
    /// One report per algorithm, in [`Algorithm::ALL`] order.
    pub reports: Vec<SimulationReport>,
}

/// Convert an hourly-sampled [`TimeSeries`] into figure points (x in hours).
pub fn series_points(ts: &TimeSeries) -> Vec<(f64, f64)> {
    ts.points()
        .iter()
        .map(|&(t, v)| (t.as_hours_f64(), v))
        .collect()
}

/// Run the eight algorithms (in parallel) on the same static grid.  The world — topology,
/// all-pairs bandwidths, capacities, workflows — is built **once** and shared across all
/// eight sessions; only the scheduler differs per run.
pub fn run(scale: ExperimentScale, seed: u64) -> StaticComparison {
    let scenario = Scenario::build(scale.base_config(seed))
        .unwrap_or_else(|e| panic!("invalid static-comparison configuration: {e}"));
    run_on(&scenario)
}

/// Run the eight algorithms (across the pool) on one pre-built shared [`Scenario`].
pub fn run_on(scenario: &Scenario) -> StaticComparison {
    let jobs = campaign::cross(
        std::slice::from_ref(scenario),
        &campaign::paper_algorithms(),
    );
    StaticComparison {
        reports: campaign::run(jobs),
    }
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

impl StaticComparison {
    /// The report for one algorithm.
    pub fn report(&self, alg: Algorithm) -> &SimulationReport {
        let idx = Algorithm::ALL
            .iter()
            .position(|&a| a == alg)
            .expect("algorithm is in ALL");
        &self.reports[idx]
    }

    fn figure_from(
        &self,
        id: &str,
        title: &str,
        y_label: &str,
        select: impl Fn(&SimulationReport) -> &TimeSeries,
    ) -> FigureData {
        let mut fig = FigureData::new(id, title, "hour", y_label);
        for (alg, report) in Algorithm::ALL.iter().zip(&self.reports) {
            fig.push_series(Series::new(alg.name(), series_points(select(report))));
        }
        fig
    }

    /// Fig. 4: cumulative workflows finished over time.
    pub fn fig4_throughput(&self) -> FigureData {
        self.figure_from(
            "fig4",
            "Throughput of workflows in a static P2P grid",
            "workflows finished",
            |r| r.metrics.throughput_series(),
        )
    }

    /// Fig. 5: average finish time over time.
    pub fn fig5_average_finish_time(&self) -> FigureData {
        self.figure_from(
            "fig5",
            "Average finish-time of workflows in a static P2P grid",
            "average finish time (s)",
            |r| r.metrics.act_series(),
        )
    }

    /// Fig. 6: average efficiency over time.
    pub fn fig6_average_efficiency(&self) -> FigureData {
        self.figure_from(
            "fig6",
            "Average efficiency of workflows in a static P2P grid",
            "average efficiency",
            |r| r.metrics.ae_series(),
        )
    }

    /// The converged (end-of-run) summary table.
    pub fn summary_table(&self) -> String {
        let rows: Vec<Vec<String>> = self.reports.iter().map(|r| r.summary_row()).collect();
        format_table(&SimulationReport::summary_header(), &rows)
    }

    /// Recompute the abstract's headline claims against the other decentralized algorithms.
    pub fn headline(&self) -> HeadlineClaims {
        let dsmf = self.report(Algorithm::Dsmf);
        let mut act_red: Vec<f64> = Vec::new();
        let mut ae_imp: Vec<f64> = Vec::new();
        for alg in Algorithm::DECENTRALIZED {
            if alg == Algorithm::Dsmf {
                continue;
            }
            let other = self.report(alg);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_comparison_produces_all_figures() {
        let cmp = run(ExperimentScale::Smoke, 11);
        assert_eq!(cmp.reports.len(), 8);
        let fig4 = cmp.fig4_throughput();
        let fig5 = cmp.fig5_average_finish_time();
        let fig6 = cmp.fig6_average_efficiency();
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
        let table = cmp.summary_table();
        assert!(table.contains("DSMF"));
        assert!(table.contains("SMF"));
        let headline = cmp.headline();
        assert!(headline.act_reduction_pct.0 <= headline.act_reduction_pct.1);
        assert!(headline.ae_improvement_pct.0 <= headline.ae_improvement_pct.1);
    }

    #[test]
    fn every_algorithm_finishes_some_workflows_at_smoke_scale() {
        let cmp = run(ExperimentScale::Smoke, 23);
        for (alg, report) in Algorithm::ALL.iter().zip(&cmp.reports) {
            assert!(
                report.completed > 0,
                "{alg} completed no workflows in the smoke comparison"
            );
            assert_eq!(report.algorithm, alg.name());
        }
    }
}
