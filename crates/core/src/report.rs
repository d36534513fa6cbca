//! The result of one grid-simulation run.

use p2pgrid_gossip::GossipStats;
use p2pgrid_metrics::{RobustnessStats, WorkflowMetrics, WorkflowOutcome};
use p2pgrid_sim::SimTime;

/// Everything an experiment needs to know about one finished run.
#[derive(Debug, Clone)]
pub struct SimulationReport {
    /// Label of the algorithm configuration (e.g. `"DSMF"`, `"min-min+FCFS"`).
    pub algorithm: String,
    /// The workflow metrics accumulator, including the hourly throughput / ACT / AE series.
    pub metrics: WorkflowMetrics,
    /// Gossip traffic statistics.
    pub gossip_stats: GossipStats,
    /// Average `RSS` size over alive nodes at the end of the run (Fig. 11a).
    pub avg_rss_size: f64,
    /// Virtual time at which the run ended.
    pub end_time: SimTime,
    /// Number of nodes in the run.
    pub nodes: usize,
    /// Total workflows submitted.
    pub submitted: u64,
    /// Workflows completed within the horizon.
    pub completed: u64,
    /// Workflows lost to churn or node failures.
    pub failed: u64,
    /// Fault / recovery accounting: node failures, lost tasks, retries, useful vs. wasted
    /// work, recovery latency.  All-zero (goodput 1.0) when the fault model is off.
    pub robustness: RobustnessStats,
}

impl SimulationReport {
    /// Average completion time (Eq. 2) in seconds.
    pub fn act_secs(&self) -> f64 {
        self.metrics.average_completion_time_secs()
    }

    /// Average efficiency (Eq. 3).
    pub fn average_efficiency(&self) -> f64 {
        self.metrics.average_efficiency()
    }

    /// Cumulative throughput (finished workflows).
    pub fn throughput(&self) -> u64 {
        self.metrics.throughput()
    }

    /// One row for the experiment summary tables.
    pub fn summary_row(&self) -> Vec<String> {
        vec![
            self.algorithm.clone(),
            format!("{}", self.throughput()),
            format!("{:.0}", self.act_secs()),
            format!("{:.3}", self.average_efficiency()),
            format!("{:.2}", self.metrics.completion_rate()),
        ]
    }

    /// Header matching [`SimulationReport::summary_row`].
    pub fn summary_header() -> [&'static str; 5] {
        ["algorithm", "finished", "ACT(s)", "AE", "completion-rate"]
    }

    /// A 64-bit FNV-1a digest of everything the run produced: the counts, the gossip traffic,
    /// the robustness ledger, every per-workflow record and the hourly series, with every
    /// `f64` hashed as its bit pattern.  Equal digests mean bit-identical results, so a
    /// checked-in digest pins a run's behaviour exactly.  The label is not hashed.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut write = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (gossip, ledger) = (self.gossip_stats, self.robustness);
        for word in [
            self.nodes as u64,
            self.submitted,
            self.completed,
            self.failed,
            self.end_time.as_millis(),
            self.avg_rss_size.to_bits(),
            self.act_secs().to_bits(),
            self.average_efficiency().to_bits(),
            gossip.cycles,
            gossip.epidemic_messages,
            gossip.aggregation_exchanges,
            gossip.bytes_sent,
            ledger.node_failures,
            ledger.node_repairs,
            ledger.tasks_lost,
            ledger.retries,
            ledger.useful_mi.to_bits(),
            ledger.wasted_mi.to_bits(),
            ledger.recovery_latency_secs_sum.to_bits(),
            ledger.recoveries,
        ] {
            write(word);
        }
        let records = self.metrics.records();
        write(records.len() as u64);
        for record in records {
            write(record.submitted_at.as_millis());
            write(record.completed_at.as_millis());
            write(record.expected_finish_secs.to_bits());
            write(u64::from(record.outcome == WorkflowOutcome::Completed));
        }
        for series in [
            self.metrics.throughput_series(),
            self.metrics.act_series(),
            self.metrics.ae_series(),
        ] {
            write(series.len() as u64);
            for &(at, value) in series.points() {
                write(at.as_millis());
                write(value.to_bits());
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_metrics::WorkflowRecord;

    fn report() -> SimulationReport {
        let mut metrics = WorkflowMetrics::new("DSMF");
        metrics.record_submission();
        metrics.record_completion(WorkflowRecord {
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(100),
            expected_finish_secs: 50.0,
            outcome: WorkflowOutcome::Completed,
        });
        metrics.sample(SimTime::from_secs(3600));
        SimulationReport {
            algorithm: "DSMF".into(),
            metrics,
            gossip_stats: GossipStats::default(),
            avg_rss_size: 4.0,
            end_time: SimTime::from_secs(3600),
            nodes: 8,
            submitted: 1,
            completed: 1,
            failed: 0,
            robustness: RobustnessStats::new(),
        }
    }

    #[test]
    fn digest_ignores_the_label_and_sees_every_result_bit() {
        let base = report();
        let digest = base.digest();
        assert_eq!(digest, report().digest(), "the digest is a pure function");
        let relabelled = SimulationReport {
            algorithm: "renamed".into(),
            ..report()
        };
        assert_eq!(relabelled.digest(), digest);

        let nudged = SimulationReport {
            avg_rss_size: f64::from_bits(4.0f64.to_bits() + 1),
            ..report()
        };
        assert_ne!(nudged.digest(), digest, "one ulp of an f64 must show");
        let mut ledger = report();
        ledger.robustness.wasted_mi = 1.0;
        assert_ne!(ledger.digest(), digest);
        let mut gossip = report();
        gossip.gossip_stats.bytes_sent = 100;
        assert_ne!(gossip.digest(), digest);
        let mut record = report();
        record.metrics.record_completion(WorkflowRecord {
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(100),
            expected_finish_secs: 50.0,
            outcome: WorkflowOutcome::Completed,
        });
        assert_ne!(record.digest(), digest);
    }
}
