//! The eight scheduling algorithms compared in Section IV, and their phase pairings.

use serde::json::{Codec, SchemaError, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The workflow scheduling algorithm driving the **first phase** (dispatch from home nodes) and,
/// for the full-ahead baselines, the whole plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's contribution: dynamic shortest (remaining) makespan first, applied at both
    /// phases.
    Dsmf,
    /// Decentralized HEFT: longest RPM first at both phases.
    Dheft,
    /// Dynamic shortest deadline first: smallest `ms(f) − RPM(t)` slack first at both phases.
    Dsdf,
    /// Decentralized min-min (earliest completion time first); paper pairing: shortest task
    /// first at the second phase.
    MinMin,
    /// Decentralized max-min; paper pairing: longest task first at the second phase.
    MaxMin,
    /// Decentralized sufferage; paper pairing: largest sufferage first at the second phase.
    Sufferage,
    /// Full-ahead HEFT (centralized, global information, FCFS ready sets) — baseline.
    Heft,
    /// Full-ahead shortest makespan first (centralized, FCFS ready sets) — baseline.
    Smf,
}

impl Algorithm {
    /// All eight algorithms, in the order the paper's figure legends list them.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Dheft,
        Algorithm::Heft,
        Algorithm::MaxMin,
        Algorithm::MinMin,
        Algorithm::Dsdf,
        Algorithm::Sufferage,
        Algorithm::Dsmf,
        Algorithm::Smf,
    ];

    /// The decentralized (dual-phase, just-in-time) algorithms only.
    pub const DECENTRALIZED: [Algorithm; 6] = [
        Algorithm::Dsmf,
        Algorithm::Dheft,
        Algorithm::Dsdf,
        Algorithm::MinMin,
        Algorithm::MaxMin,
        Algorithm::Sufferage,
    ];

    /// Display name used in figure legends and report tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Dsmf => "DSMF",
            Algorithm::Dheft => "DHEFT",
            Algorithm::Dsdf => "DSDF",
            Algorithm::MinMin => "min-min",
            Algorithm::MaxMin => "max-min",
            Algorithm::Sufferage => "sufferage",
            Algorithm::Heft => "HEFT",
            Algorithm::Smf => "SMF",
        }
    }

    /// Parse a display name back into the algorithm (case-insensitive) — the inverse of
    /// [`Algorithm::name`], used by campaign specs and command-line arguments.
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(s))
    }

    /// True for the two full-ahead baselines that plan the entire workflow centrally before
    /// execution starts.
    pub fn is_full_ahead(self) -> bool {
        matches!(self, Algorithm::Heft | Algorithm::Smf)
    }

    /// The second-phase (ready-set) rule the paper pairs with this algorithm.
    pub fn paper_second_phase(self) -> SecondPhase {
        match self {
            Algorithm::Dsmf => SecondPhase::ShortestWorkflowMakespan,
            Algorithm::Dheft => SecondPhase::LongestRpmFirst,
            Algorithm::Dsdf => SecondPhase::ShortestDeadlineFirst,
            Algorithm::MinMin => SecondPhase::ShortestTaskFirst,
            Algorithm::MaxMin => SecondPhase::LongestTaskFirst,
            Algorithm::Sufferage => SecondPhase::LargestSufferageFirst,
            // The full-ahead baselines execute ready tasks first-come-first-served.
            Algorithm::Heft | Algorithm::Smf => SecondPhase::Fcfs,
        }
    }
}

/// An algorithm is its display name, read in any letter case.
impl Codec for Algorithm {
    fn encode(&self) -> Value {
        Value::from(self.name())
    }

    fn decode(v: &Value) -> Result<Self, SchemaError> {
        let name = v
            .as_str()
            .ok_or_else(|| SchemaError::expected("an algorithm name", v))?;
        Algorithm::parse(name).ok_or_else(|| {
            let accepted: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
            SchemaError::new(format!(
                "unknown algorithm `{name}` (accepted: {})",
                accepted.join(", ")
            ))
        })
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The rule a resource node uses to pick the next task from its ready set (the second phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SecondPhase {
    /// DSMF / Formula 10: the task whose workflow has the shortest remaining makespan,
    /// tie-broken by longest RPM (Algorithm 2).
    ShortestWorkflowMakespan,
    /// Longest RPM first (decentralized HEFT).
    LongestRpmFirst,
    /// Smallest slack `ms(f) − RPM(t)` first (DSDF).
    ShortestDeadlineFirst,
    /// Shortest task (execution time on this node) first — paired with min-min.
    ShortestTaskFirst,
    /// Longest task first — paired with max-min.
    LongestTaskFirst,
    /// Largest sufferage value (captured at dispatch time) first — paired with sufferage.
    LargestSufferageFirst,
    /// First come, first served — the ablation of the second phase (§IV.B) and the rule used by
    /// the full-ahead baselines.
    Fcfs,
}

impl SecondPhase {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SecondPhase::ShortestWorkflowMakespan => "shortest-workflow-makespan",
            SecondPhase::LongestRpmFirst => "longest-rpm",
            SecondPhase::ShortestDeadlineFirst => "shortest-deadline",
            SecondPhase::ShortestTaskFirst => "shortest-task",
            SecondPhase::LongestTaskFirst => "longest-task",
            SecondPhase::LargestSufferageFirst => "largest-sufferage",
            SecondPhase::Fcfs => "FCFS",
        }
    }
}

impl fmt::Display for SecondPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete scheduler configuration: the first-phase algorithm plus the second-phase rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AlgorithmConfig {
    /// First-phase algorithm.
    pub algorithm: Algorithm,
    /// Second-phase (ready set) rule.
    pub second_phase: SecondPhase,
}

impl AlgorithmConfig {
    /// The pairing used throughout the paper's evaluation.
    pub fn paper_default(algorithm: Algorithm) -> Self {
        AlgorithmConfig {
            algorithm,
            second_phase: algorithm.paper_second_phase(),
        }
    }

    /// The §IV.B ablation: the same first-phase algorithm but a FCFS ready set.
    pub fn with_fcfs_second_phase(algorithm: Algorithm) -> Self {
        AlgorithmConfig {
            algorithm,
            second_phase: SecondPhase::Fcfs,
        }
    }

    /// Label such as `"min-min"` or `"min-min+FCFS"` used in reports.
    pub fn label(&self) -> String {
        if self.second_phase == self.algorithm.paper_second_phase() {
            self.algorithm.name().to_string()
        } else {
            format!("{}+{}", self.algorithm.name(), self.second_phase.name())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_each_algorithm_once() {
        assert_eq!(Algorithm::ALL.len(), 8);
        let unique: std::collections::HashSet<_> = Algorithm::ALL.iter().collect();
        assert_eq!(unique.len(), 8);
        assert_eq!(Algorithm::DECENTRALIZED.len(), 6);
        assert!(Algorithm::DECENTRALIZED.iter().all(|a| !a.is_full_ahead()));
    }

    #[test]
    fn full_ahead_flags_match_paper() {
        assert!(Algorithm::Heft.is_full_ahead());
        assert!(Algorithm::Smf.is_full_ahead());
        assert!(!Algorithm::Dsmf.is_full_ahead());
        assert!(!Algorithm::MinMin.is_full_ahead());
    }

    #[test]
    fn paper_pairings() {
        assert_eq!(
            Algorithm::Dsmf.paper_second_phase(),
            SecondPhase::ShortestWorkflowMakespan
        );
        assert_eq!(
            Algorithm::MinMin.paper_second_phase(),
            SecondPhase::ShortestTaskFirst
        );
        assert_eq!(
            Algorithm::MaxMin.paper_second_phase(),
            SecondPhase::LongestTaskFirst
        );
        assert_eq!(
            Algorithm::Sufferage.paper_second_phase(),
            SecondPhase::LargestSufferageFirst
        );
        assert_eq!(Algorithm::Heft.paper_second_phase(), SecondPhase::Fcfs);
    }

    #[test]
    fn labels_distinguish_the_fcfs_ablation() {
        assert_eq!(
            AlgorithmConfig::paper_default(Algorithm::Dsmf).label(),
            "DSMF"
        );
        assert_eq!(
            AlgorithmConfig::with_fcfs_second_phase(Algorithm::MinMin).label(),
            "min-min+FCFS"
        );
        assert_eq!(
            AlgorithmConfig::paper_default(Algorithm::Heft).label(),
            "HEFT",
            "FCFS is HEFT's paper default and needs no suffix"
        );
        assert_eq!(format!("{}", Algorithm::Sufferage), "sufferage");
        assert_eq!(format!("{}", SecondPhase::Fcfs), "FCFS");
    }
}
