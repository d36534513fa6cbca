//! Robustness accounting for the fault-injection substrate.
//!
//! The paper's figures only count finished / failed workflows; under a fault model that is
//! not enough to compare recovery policies — a policy that finishes the same number of
//! workflows while re-executing half the grid's work is not "as good".  [`RobustnessStats`]
//! tracks the fault events themselves (node failures / repairs, tasks lost, retries) and the
//! work ledger in machine instructions: useful MI (work that ended up in a finished
//! workflow), wasted MI (work executed and then thrown away — lost mid-run, un-checkpointed
//! residue, replica twins cancelled by a sibling's completion, or work belonging to a
//! workflow that later failed), and the latency between losing a task and getting its
//! replacement dispatched.
//!
//! The engine accumulates at each event's instant, in its deterministic event order, so
//! every figure derived from these counters is byte-identical across runs and pool widths.

/// Fault and recovery counters of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustnessStats {
    /// Node failures (stochastic faults) plus churn departures.
    pub node_failures: u64,
    /// Node repairs (stochastic faults) plus churn joins.
    pub node_repairs: u64,
    /// Tasks that were resident (queued or running) on a node when it went down.
    pub tasks_lost: u64,
    /// Lost running tasks re-queued by `RecoveryPolicy::Retry`.
    pub retries: u64,
    /// Executed machine instructions that ended up in a *finished* workflow.
    pub useful_mi: f64,
    /// Executed machine instructions thrown away: progress lost with a node, redundant
    /// replica runs, and every completed task of a workflow that later failed.
    pub wasted_mi: f64,
    /// Sum over recoveries of (re-dispatch time − loss time), in seconds.
    pub recovery_latency_secs_sum: f64,
    /// Number of lost-task recoveries that reached a re-dispatch.
    pub recoveries: u64,
}

impl RobustnessStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        RobustnessStats::default()
    }

    /// Fraction of executed work that was useful: `useful / (useful + wasted)`.
    /// `1.0` when nothing ran at all (nothing was wasted either).
    pub fn goodput(&self) -> f64 {
        let total = self.useful_mi + self.wasted_mi;
        if total > 0.0 {
            self.useful_mi / total
        } else {
            1.0
        }
    }

    /// Mean seconds between losing a task and dispatching its replacement, over all
    /// recoveries that reached a re-dispatch.  Zero when nothing was ever recovered.
    pub fn mean_recovery_latency_secs(&self) -> f64 {
        if self.recoveries > 0 {
            self.recovery_latency_secs_sum / self.recoveries as f64
        } else {
            0.0
        }
    }

    /// Mean retries per workflow, given the run's submitted-workflow count.
    pub fn retries_per_workflow(&self, submitted: usize) -> f64 {
        if submitted > 0 {
            self.retries as f64 / submitted as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_handles_empty_and_mixed_ledgers() {
        assert_eq!(RobustnessStats::new().goodput(), 1.0);
        let stats = RobustnessStats {
            useful_mi: 75.0,
            wasted_mi: 25.0,
            ..RobustnessStats::default()
        };
        assert!((stats.goodput() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn latency_and_retry_rates_divide_safely() {
        let mut stats = RobustnessStats::new();
        assert_eq!(stats.mean_recovery_latency_secs(), 0.0);
        assert_eq!(stats.retries_per_workflow(0), 0.0);
        stats.recovery_latency_secs_sum = 30.0;
        stats.recoveries = 3;
        stats.retries = 8;
        assert!((stats.mean_recovery_latency_secs() - 10.0).abs() < 1e-12);
        assert!((stats.retries_per_workflow(4) - 2.0).abs() < 1e-12);
    }
}
