//! The paper's workflow-level metrics: throughput, ACT (Eq. 2) and AE (Eq. 3).

use crate::stats::OnlineStats;
use crate::timeseries::TimeSeries;
use p2pgrid_sim::SimTime;

/// Final outcome of one workflow instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkflowOutcome {
    /// The exit task finished.
    Completed,
    /// A task was lost to node churn and the workflow can no longer finish
    /// (the paper defers rescheduling to future work).
    Failed,
}

/// Per-workflow record used by the accumulators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowRecord {
    /// Time the workflow was submitted to its home node.
    pub submitted_at: SimTime,
    /// Time its exit task completed (only for completed workflows).
    pub completed_at: SimTime,
    /// Expected finish time `eft(f)` in seconds, computed from the critical path under
    /// system-wide averages (Eq. 1).
    pub expected_finish_secs: f64,
    /// Outcome.
    pub outcome: WorkflowOutcome,
}

impl WorkflowRecord {
    /// Real completion (response) time `ct(f)` in seconds.
    pub fn completion_time_secs(&self) -> f64 {
        self.completed_at
            .saturating_duration_since(self.submitted_at)
            .as_secs_f64()
    }

    /// Execution efficiency `e(f) = eft(f) / ct(f)` (Eq. 1); zero for failed workflows.
    pub fn efficiency(&self) -> f64 {
        if self.outcome == WorkflowOutcome::Failed {
            return 0.0;
        }
        let ct = self.completion_time_secs();
        if ct <= 0.0 {
            // A workflow that finishes instantaneously (e.g. all-virtual tasks) is perfectly
            // efficient by convention.
            1.0
        } else {
            self.expected_finish_secs / ct
        }
    }
}

/// Accumulator of the per-algorithm evaluation quantities, sampled over virtual time.
#[derive(Debug, Clone)]
pub struct WorkflowMetrics {
    records: Vec<WorkflowRecord>,
    completion_stats: OnlineStats,
    efficiency_stats: OnlineStats,
    submitted: u64,
    failed: u64,
    throughput_series: TimeSeries,
    act_series: TimeSeries,
    ae_series: TimeSeries,
}

impl WorkflowMetrics {
    /// Create an empty accumulator; the label names the scheduling algorithm under test.
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        WorkflowMetrics {
            records: Vec::new(),
            completion_stats: OnlineStats::new(),
            efficiency_stats: OnlineStats::new(),
            submitted: 0,
            failed: 0,
            throughput_series: TimeSeries::new(format!("{label}/throughput")),
            act_series: TimeSeries::new(format!("{label}/act")),
            ae_series: TimeSeries::new(format!("{label}/ae")),
        }
    }

    /// Note that a workflow was submitted (used for completion-rate reporting).
    pub fn record_submission(&mut self) {
        self.submitted += 1;
    }

    /// Record the completion of a workflow.
    pub fn record_completion(&mut self, record: WorkflowRecord) {
        debug_assert_eq!(record.outcome, WorkflowOutcome::Completed);
        self.completion_stats.push(record.completion_time_secs());
        self.efficiency_stats.push(record.efficiency());
        self.records.push(record);
    }

    /// Record that a workflow failed (lost to churn).
    pub fn record_failure(&mut self, record: WorkflowRecord) {
        debug_assert_eq!(record.outcome, WorkflowOutcome::Failed);
        self.failed += 1;
        self.records.push(record);
    }

    /// Take a periodic sample of the three figures-of-merit at virtual time `now`.
    pub fn sample(&mut self, now: SimTime) {
        self.throughput_series.push(now, self.throughput() as f64);
        self.act_series
            .push(now, self.average_completion_time_secs());
        self.ae_series.push(now, self.average_efficiency());
    }

    /// Cumulative number of completed workflows.
    pub fn throughput(&self) -> u64 {
        self.completion_stats.count()
    }

    /// Number of workflows submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Number of workflows lost to churn.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// ACT (Eq. 2): mean completion time over finished workflows, in seconds.
    pub fn average_completion_time_secs(&self) -> f64 {
        self.completion_stats.mean()
    }

    /// AE (Eq. 3): mean efficiency over finished workflows.
    pub fn average_efficiency(&self) -> f64 {
        self.efficiency_stats.mean()
    }

    /// Fraction of submitted workflows that completed (1.0 when nothing was submitted yet).
    pub fn completion_rate(&self) -> f64 {
        if self.submitted == 0 {
            1.0
        } else {
            self.throughput() as f64 / self.submitted as f64
        }
    }

    /// All per-workflow records.
    pub fn records(&self) -> &[WorkflowRecord] {
        &self.records
    }

    /// The sampled throughput series (Fig. 4 / Fig. 12).
    pub fn throughput_series(&self) -> &TimeSeries {
        &self.throughput_series
    }

    /// The sampled ACT series (Fig. 5 / Fig. 13).
    pub fn act_series(&self) -> &TimeSeries {
        &self.act_series
    }

    /// The sampled AE series (Fig. 6 / Fig. 14).
    pub fn ae_series(&self) -> &TimeSeries {
        &self.ae_series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(sub: u64, done: u64, eft: f64) -> WorkflowRecord {
        WorkflowRecord {
            submitted_at: SimTime::from_secs(sub),
            completed_at: SimTime::from_secs(done),
            expected_finish_secs: eft,
            outcome: WorkflowOutcome::Completed,
        }
    }

    #[test]
    fn completion_time_and_efficiency() {
        let r = completed(100, 300, 100.0);
        assert_eq!(r.completion_time_secs(), 200.0);
        assert_eq!(r.efficiency(), 0.5);
        let instant = completed(50, 50, 0.0);
        assert_eq!(instant.efficiency(), 1.0);
        let failed = WorkflowRecord {
            outcome: WorkflowOutcome::Failed,
            ..completed(0, 0, 10.0)
        };
        assert_eq!(failed.efficiency(), 0.0);
    }

    #[test]
    fn act_and_ae_match_hand_computation() {
        let mut m = WorkflowMetrics::new("dsmf");
        m.record_submission();
        m.record_submission();
        m.record_submission();
        m.record_completion(completed(0, 100, 50.0)); // ct=100, e=0.5
        m.record_completion(completed(0, 400, 100.0)); // ct=400, e=0.25
        assert_eq!(m.throughput(), 2);
        assert_eq!(m.submitted(), 3);
        assert!((m.average_completion_time_secs() - 250.0).abs() < 1e-12);
        assert!((m.average_efficiency() - 0.375).abs() < 1e-12);
        assert!((m.completion_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn failures_count_separately_and_do_not_skew_act() {
        let mut m = WorkflowMetrics::new("dsmf");
        m.record_submission();
        m.record_submission();
        m.record_completion(completed(0, 100, 80.0));
        m.record_failure(WorkflowRecord {
            outcome: WorkflowOutcome::Failed,
            ..completed(0, 0, 80.0)
        });
        assert_eq!(m.throughput(), 1);
        assert_eq!(m.failed(), 1);
        assert_eq!(m.average_completion_time_secs(), 100.0);
        assert_eq!(m.records().len(), 2);
    }

    #[test]
    fn sampling_builds_monotone_throughput_series() {
        let mut m = WorkflowMetrics::new("x");
        m.sample(SimTime::from_secs(0));
        m.record_completion(completed(0, 10, 5.0));
        m.sample(SimTime::from_secs(3600));
        m.record_completion(completed(0, 20, 5.0));
        m.record_completion(completed(0, 30, 5.0));
        m.sample(SimTime::from_secs(7200));
        let tp: Vec<f64> = m
            .throughput_series()
            .points()
            .iter()
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(tp, vec![0.0, 1.0, 3.0]);
        assert_eq!(m.act_series().len(), 3);
        assert_eq!(m.ae_series().len(), 3);
        assert_eq!(m.throughput_series().name(), "x/throughput");
    }

    #[test]
    fn empty_metrics_report_neutral_values() {
        let m = WorkflowMetrics::new("empty");
        assert_eq!(m.throughput(), 0);
        assert_eq!(m.average_completion_time_secs(), 0.0);
        assert_eq!(m.average_efficiency(), 0.0);
        assert_eq!(m.completion_rate(), 1.0);
    }
}
