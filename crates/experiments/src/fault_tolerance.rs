//! The fault-tolerance study the paper never ran: DSMF under stochastic node lifetimes,
//! comparing recovery policies.
//!
//! The paper's dynamic-environment experiment (Fig. 12–14) models churn as paired
//! join/leave swaps at scheduling intervals and only ever compares "fail the workflow"
//! against "re-schedule everything".  This study replaces churn with per-node exponential
//! failure/repair lifetimes ([`StochasticFaults`]) and sweeps the per-node MTBF against the
//! four [`RecoveryPolicy`] variants: the paper's fail-the-workflow baseline, bounded retry
//! with linear backoff, periodic checkpointing, and speculative replication.
//!
//! Throughput alone cannot rank these policies — replication can finish as many workflows
//! as retry while re-executing half the grid's work — so the figures also plot the
//! [`RobustnessStats`] ledger: goodput (useful MI over total executed MI) and the mean
//! latency between losing a task and re-dispatching its replacement.
//!
//! [`RobustnessStats`]: p2pgrid_metrics::RobustnessStats

use crate::campaign;
use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::{
    Algorithm, AlgorithmConfig, FaultModel, RecoveryPolicy, Scenario, SimulationReport,
    StochasticFaults,
};
use p2pgrid_sim::SimDuration;

/// The recovery policies compared by the study, with their display labels.
///
/// The retry budget, backoff, checkpoint interval and replica count are fixed mid-range
/// values — the study sweeps the *failure pressure* (MTBF), not the policy parameters.
pub fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        ("fail (paper)", RecoveryPolicy::FailWorkflow),
        (
            "retry x3",
            RecoveryPolicy::Retry {
                budget: 3,
                backoff: SimDuration::from_secs(5 * 60),
            },
        ),
        (
            "checkpoint 15m",
            RecoveryPolicy::Checkpoint {
                interval: SimDuration::from_secs(15 * 60),
            },
        ),
        ("replicate x2", RecoveryPolicy::Replicate { copies: 2 }),
    ]
}

/// Mean time to repair used at every sweep point: 20 minutes, long enough that a failed
/// node's tasks cannot simply wait the outage out.
pub const MTTR: SimDuration = SimDuration::from_secs(20 * 60);

/// Results of the MTBF × recovery-policy sweep (DSMF only).
#[derive(Debug, Clone)]
pub struct FaultToleranceSweep {
    /// Swept per-node MTBF values, in hours.
    pub mtbf_hours: Vec<f64>,
    /// Policy labels, row-aligned with [`reports`](FaultToleranceSweep::reports).
    pub policy_labels: Vec<&'static str>,
    /// `reports[policy][mtbf]`: one report per (policy, MTBF) cell.
    pub reports: Vec<Vec<SimulationReport>>,
}

/// Run the sweep: every recovery policy over every MTBF in the scale's sweep.
///
/// The base world is built **once**; each cell is derived with [`Scenario::derive`] — the
/// fault schedule re-drawn once per MTBF, then the policy swapped on that MTBF's world — and
/// the full grid of jobs runs through one parallel map.  Recovery never changes liveness or
/// gossip, so an MTBF's cells share one gossip trace: the protocol runs once per MTBF, not
/// once per cell.
pub fn run(scale: ExperimentScale, seed: u64) -> FaultToleranceSweep {
    let mtbf_hours = scale.mtbf_sweep_hours();
    let policies = policies();
    let base = Scenario::build(scale.base_config(seed))
        .unwrap_or_else(|e| panic!("invalid fault-tolerance base configuration: {e}"));
    // The jobs end up holding the only handles, so each MTBF's world and trace are freed
    // once its cells have run.
    let jobs = {
        let worlds: Vec<Scenario> = mtbf_hours
            .iter()
            .map(|&hours| {
                let faults =
                    StochasticFaults::new(SimDuration::from_secs_f64(hours * 3600.0), MTTR);
                base.derive(|config| config.with_faults(FaultModel::Stochastic(faults)))
            })
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("invalid fault-tolerance sweep point: {e}"));
        // Policy-major, so the report vector splits back into per-policy rows.
        let cells: Vec<Scenario> = policies
            .iter()
            .flat_map(|&(_, policy)| {
                worlds
                    .iter()
                    .map(move |world| world.derive(|config| config.with_recovery(policy)))
            })
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("invalid fault-tolerance recovery policy: {e}"));
        campaign::cross(&cells, &[AlgorithmConfig::paper_default(Algorithm::Dsmf)])
    };
    let mut flat = campaign::run(jobs);
    let mut reports = Vec::with_capacity(policies.len());
    for _ in &policies {
        let rest = flat.split_off(mtbf_hours.len());
        reports.push(flat);
        flat = rest;
    }
    FaultToleranceSweep {
        mtbf_hours,
        policy_labels: policies.iter().map(|&(label, _)| label).collect(),
        reports,
    }
}

impl FaultToleranceSweep {
    fn figure<F: Fn(&SimulationReport) -> f64>(
        &self,
        id: &str,
        title: &str,
        y: &str,
        value: F,
    ) -> FigureData {
        let mut fig = FigureData::new(id, title, "per-node MTBF (h)", y);
        for (label, row) in self.policy_labels.iter().zip(&self.reports) {
            let points = self
                .mtbf_hours
                .iter()
                .zip(row)
                .map(|(&h, r)| (h, value(r)))
                .collect();
            fig.push_series(Series::new(*label, points));
        }
        fig
    }

    /// Fig. 15a: workflows finished versus MTBF, one curve per recovery policy.
    pub fn fig15a_throughput(&self) -> FigureData {
        self.figure(
            "fig15a",
            "Throughput of DSMF under stochastic node failures",
            "workflows finished",
            |r| r.completed as f64,
        )
    }

    /// Fig. 15b: goodput (useful MI / total executed MI) versus MTBF per policy.
    pub fn fig15b_goodput(&self) -> FigureData {
        self.figure(
            "fig15b",
            "Goodput of DSMF under stochastic node failures",
            "useful / executed MI",
            |r| r.robustness.goodput(),
        )
    }

    /// Fig. 15c: mean recovery latency versus MTBF per policy.
    pub fn fig15c_recovery_latency(&self) -> FigureData {
        self.figure(
            "fig15c",
            "Mean task-recovery latency of DSMF under stochastic node failures",
            "loss-to-redispatch (s)",
            |r| r.robustness.mean_recovery_latency_secs(),
        )
    }

    /// Plain-text summary table: one row per (policy, MTBF) cell with the full robustness
    /// ledger.
    pub fn summary_table(&self) -> String {
        let mut out = format!(
            "{:<16} {:>8} {:>9} {:>7} {:>7} {:>9} {:>8} {:>8} {:>10}\n",
            "policy",
            "mtbf(h)",
            "finished",
            "failed",
            "lost",
            "retries",
            "goodput",
            "rec(s)",
            "wasted MI"
        );
        for (label, row) in self.policy_labels.iter().zip(&self.reports) {
            for (&h, r) in self.mtbf_hours.iter().zip(row) {
                let s = &r.robustness;
                out.push_str(&format!(
                    "{:<16} {:>8.1} {:>9} {:>7} {:>7} {:>9} {:>8.3} {:>8.0} {:>10.3e}\n",
                    label,
                    h,
                    r.completed,
                    r.failed,
                    s.tasks_lost,
                    s.retries,
                    s.goodput(),
                    s.mean_recovery_latency_secs(),
                    s.wasted_mi,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The report of an exact (policy label, MTBF) cell.
    fn report_for<'a>(
        sweep: &'a FaultToleranceSweep,
        label: &str,
        mtbf_hours: f64,
    ) -> &'a SimulationReport {
        let row = sweep.policy_labels.iter().position(|&l| l == label);
        let col = sweep.mtbf_hours.iter().position(|&h| h == mtbf_hours);
        &sweep.reports[row.unwrap()][col.unwrap()]
    }

    #[test]
    fn sweep_covers_the_policy_by_mtbf_grid_and_faults_actually_fire() {
        let sweep = run(ExperimentScale::Smoke, 31);
        assert_eq!(sweep.reports.len(), sweep.policy_labels.len());
        for row in &sweep.reports {
            assert_eq!(row.len(), sweep.mtbf_hours.len());
        }
        // The harshest cell must actually exercise the fault substrate.
        let harsh = report_for(&sweep, "fail (paper)", 2.0);
        assert!(
            harsh.robustness.node_failures > 0,
            "a 2h MTBF over a 12h horizon must fail some node"
        );
        // Figures carry one curve per policy.
        for fig in [
            sweep.fig15a_throughput(),
            sweep.fig15b_goodput(),
            sweep.fig15c_recovery_latency(),
        ] {
            assert_eq!(fig.series.len(), sweep.policy_labels.len());
            for s in &fig.series {
                assert_eq!(s.points.len(), sweep.mtbf_hours.len());
            }
        }
        assert!(sweep.summary_table().contains("replicate x2"));
    }

    #[test]
    fn recovery_policies_beat_the_paper_baseline_under_pressure() {
        let sweep = run(ExperimentScale::Smoke, 33);
        let fail = report_for(&sweep, "fail (paper)", 2.0);
        let retry = report_for(&sweep, "retry x3", 2.0);
        assert!(
            retry.completed >= fail.completed,
            "bounded retry should not finish fewer workflows than failing outright \
             (retry {}, fail {})",
            retry.completed,
            fail.completed
        );
        if retry.robustness.retries > 0 {
            assert!(
                retry.robustness.recoveries > 0,
                "retries imply recovered dispatches"
            );
        }
    }
}
