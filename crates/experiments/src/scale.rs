//! Experiment scale presets.

use p2pgrid_core::{GridConfig, Scenario};
use p2pgrid_sim::SimDuration;
use serde::json::{Codec, SchemaError, Value};

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny configuration for unit/integration tests (tens of nodes, a few hours).
    Smoke,
    /// Medium configuration for Criterion benches and the default `repro` run
    /// (low hundreds of nodes, the full 36-hour horizon).
    Reduced,
    /// The paper-scale configuration (1 000 nodes, 3 workflows per node, 36 hours).
    Full,
}

impl ExperimentScale {
    /// Every scale with its name, as [`ExperimentScale::parse`] reads it and specs write it.
    const NAMES: [(ExperimentScale, &'static str); 3] = [
        (ExperimentScale::Smoke, "smoke"),
        (ExperimentScale::Reduced, "reduced"),
        (ExperimentScale::Full, "full"),
    ];

    /// The scale's lowercase name.
    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|&&(scale, _)| scale == self)
            .map(|&(_, name)| name)
            .expect("every scale has a name")
    }

    /// Parse a scale name, in any letter case.
    pub fn parse(s: &str) -> Option<Self> {
        Self::NAMES
            .iter()
            .find(|(_, name)| name.eq_ignore_ascii_case(s))
            .map(|&(scale, _)| scale)
    }

    /// The base grid configuration for this scale (the headline CCR ≈ 0.16 workload of
    /// §IV.B: task loads 100–10 000 MI, dependent data 10–1 000 Mb).
    pub fn base_config(self, seed: u64) -> GridConfig {
        match self {
            ExperimentScale::Full => GridConfig::paper_default().with_seed(seed),
            ExperimentScale::Reduced => {
                let mut cfg = GridConfig::paper_default().with_nodes(120).with_seed(seed);
                cfg.workflows_per_node = 3;
                cfg
            }
            ExperimentScale::Smoke => {
                let mut cfg = GridConfig::paper_default().with_nodes(24).with_seed(seed);
                cfg.workflows_per_node = 1;
                cfg.workload.generator_mut().tasks = 2..=8;
                cfg.horizon = SimDuration::from_hours(12);
                cfg
            }
        }
    }

    /// The world every figure of this scale derives its points from, built from
    /// [`base_config`](ExperimentScale::base_config).
    pub fn base_world(self, seed: u64) -> Scenario {
        Scenario::build(self.base_config(seed))
            .unwrap_or_else(|e| panic!("invalid {} base configuration: {e}", self.name()))
    }

    /// Number of nodes used by this scale's base configuration.
    pub fn nodes(self) -> usize {
        match self {
            ExperimentScale::Full => 1000,
            ExperimentScale::Reduced => 120,
            ExperimentScale::Smoke => 24,
        }
    }

    /// The node-count sweep used by the Fig. 11 scalability experiment at this scale.
    pub fn scalability_sweep(self) -> Vec<usize> {
        match self {
            ExperimentScale::Full => {
                vec![100, 200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000]
            }
            ExperimentScale::Reduced => vec![50, 100, 150, 200, 300, 400],
            ExperimentScale::Smoke => vec![16, 24, 32],
        }
    }

    /// The load-factor sweep of Fig. 7/8 at this scale.
    pub fn load_factor_sweep(self) -> Vec<usize> {
        match self {
            ExperimentScale::Full | ExperimentScale::Reduced => (1..=8).collect(),
            ExperimentScale::Smoke => vec![1, 2, 4],
        }
    }

    /// The dynamic-factor sweep of Fig. 12–14.
    pub fn dynamic_factor_sweep(self) -> Vec<f64> {
        match self {
            ExperimentScale::Full | ExperimentScale::Reduced => vec![0.0, 0.1, 0.2, 0.3, 0.4],
            ExperimentScale::Smoke => vec![0.0, 0.2, 0.4],
        }
    }

    /// The per-node MTBF sweep (in hours) of the fault-tolerance study, hardest first.
    /// The smallest value gives a node only a couple of expected failures-free hours —
    /// well inside the simulated horizon — so every recovery policy is actually exercised.
    pub fn mtbf_sweep_hours(self) -> Vec<f64> {
        match self {
            ExperimentScale::Full | ExperimentScale::Reduced => vec![2.0, 4.0, 8.0, 16.0, 32.0],
            ExperimentScale::Smoke => vec![2.0, 6.0],
        }
    }
}

/// A scale is its name, read in any letter case.
impl Codec for ExperimentScale {
    fn encode(&self) -> Value {
        Value::from(self.name())
    }

    fn decode(v: &Value) -> Result<Self, SchemaError> {
        let name = v
            .as_str()
            .ok_or_else(|| SchemaError::expected("a scale name", v))?;
        ExperimentScale::parse(name).ok_or_else(|| {
            let accepted = ExperimentScale::NAMES.map(|(_, name)| name).join(", ");
            SchemaError::new(format!("unknown scale `{name}` (accepted: {accepted})"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names_only() {
        assert_eq!(ExperimentScale::parse("full"), Some(ExperimentScale::Full));
        assert_eq!(
            ExperimentScale::parse("Reduced"),
            Some(ExperimentScale::Reduced)
        );
        assert_eq!(
            ExperimentScale::parse("SMOKE"),
            Some(ExperimentScale::Smoke)
        );
        assert_eq!(ExperimentScale::parse("huge"), None);
    }

    #[test]
    fn base_configs_are_valid_and_sized_as_documented() {
        for scale in [
            ExperimentScale::Smoke,
            ExperimentScale::Reduced,
            ExperimentScale::Full,
        ] {
            let cfg = scale.base_config(1);
            cfg.validate().unwrap();
            assert_eq!(cfg.nodes, scale.nodes());
        }
        assert_eq!(ExperimentScale::Full.base_config(1).nodes, 1000);
    }

    #[test]
    fn sweeps_match_the_paper_at_full_scale() {
        assert_eq!(
            ExperimentScale::Full.load_factor_sweep(),
            (1..=8).collect::<Vec<_>>()
        );
        assert_eq!(
            ExperimentScale::Full.dynamic_factor_sweep(),
            vec![0.0, 0.1, 0.2, 0.3, 0.4]
        );
        assert_eq!(ExperimentScale::Full.scalability_sweep().len(), 11);
        assert!(ExperimentScale::Smoke.scalability_sweep().len() >= 2);
    }
}
