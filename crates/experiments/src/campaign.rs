//! Batched sweep execution over copy-on-write derived worlds.
//!
//! Every experiment in this crate has the same shape: take one *base* world, vary a single
//! knob across a handful of sweep points, and run one or more algorithms at every point.
//! [`Campaign`] packages that shape so the expensive part — building the topology and its
//! all-pairs bandwidth/latency tables — happens **once**:
//!
//! 1. Build (or adopt) the base [`Scenario`].
//! 2. [`Campaign::derive`] one scenario per sweep point with the copy-on-write
//!    `Scenario::with_*` methods, which re-sample only the affected RNG stream and share the
//!    `Arc`'d topology tables with the base.
//! 3. [`cross`] the scenarios with the algorithm configurations into a flat job list and
//!    [`run`] it across the shared work-stealing pool.  Reports come back in job order, so
//!    no index bookkeeping is needed.  `run` consumes the jobs and drops each one as it
//!    finishes, so a world nothing else holds — its gossip trace included — is freed once
//!    its last job has run.
//!
//! [`run_sequential`] is the single-threaded reference path: it executes the identical job
//! list on the calling thread and is used by the `campaign_sweep` bench (pooled versus
//! sequential wall-clock) and by determinism tests (the pooled results must be byte-identical
//! to the sequential ones).

use p2pgrid_core::error::ConfigError;
use p2pgrid_core::{Algorithm, AlgorithmConfig, GridConfig, Scenario, SimulationReport};
use rayon::prelude::*;

/// One unit of campaign work: a world (a cheap `Arc` handle) plus the algorithm
/// configuration to run over it.
#[derive(Debug, Clone)]
pub struct Job {
    /// The pre-built world this job simulates.
    pub scenario: Scenario,
    /// The algorithm configuration (first-phase heuristic + second-phase rule) to run.
    pub algorithm: AlgorithmConfig,
}

impl Job {
    /// Pair a world with an algorithm configuration.
    pub fn new(scenario: Scenario, algorithm: AlgorithmConfig) -> Self {
        Job {
            scenario,
            algorithm,
        }
    }

    /// Run this job to its horizon.
    pub fn run(&self) -> SimulationReport {
        self.scenario.simulate_config(self.algorithm).run()
    }
}

/// A sweep campaign anchored on one base world.
#[derive(Debug, Clone)]
pub struct Campaign {
    base: Scenario,
}

impl Campaign {
    /// Anchor a campaign on an already-built world.
    pub fn new(base: Scenario) -> Self {
        Campaign { base }
    }

    /// Build the base world from a configuration (one topology + `PairwiseMetrics` +
    /// landmark computation — the only full build the campaign pays for).
    pub fn from_config(config: GridConfig) -> Result<Self, ConfigError> {
        Ok(Campaign {
            base: Scenario::build(config)?,
        })
    }

    /// The base world sweep points derive from.
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// Derive one scenario per sweep point, copy-on-write from the base world.
    ///
    /// `derive` should call one of the `Scenario::with_*` methods on the base; each derived
    /// world then shares the base's `Arc`'d topology tables instead of rebuilding them.
    /// Derivation runs on the calling thread — it is cheap by construction, and keeping it
    /// sequential keeps the pool free for the simulation jobs.
    pub fn derive<P, D>(&self, points: &[P], derive: D) -> Result<Vec<Scenario>, ConfigError>
    where
        D: Fn(&Scenario, &P) -> Result<Scenario, ConfigError>,
    {
        points.iter().map(|p| derive(&self.base, p)).collect()
    }

    /// Derive a scenario per point, cross with `algorithms`, run pooled, and return
    /// `reports[algorithm][point]` — the layout every figure in this crate consumes.
    pub fn sweep<P, D>(
        &self,
        points: &[P],
        derive: D,
        algorithms: &[AlgorithmConfig],
    ) -> Result<Vec<Vec<SimulationReport>>, ConfigError>
    where
        D: Fn(&Scenario, &P) -> Result<Scenario, ConfigError>,
    {
        let jobs = cross(&self.derive(points, derive)?, algorithms);
        let mut reports = run(jobs).into_iter();
        Ok(algorithms
            .iter()
            .map(|_| reports.by_ref().take(points.len()).collect())
            .collect())
    }
}

/// Cross scenarios with algorithm configurations into a flat job list, algorithm-major:
/// `jobs[a * scenarios.len() + s]` runs `algorithms[a]` on `scenarios[s]`.
pub fn cross(scenarios: &[Scenario], algorithms: &[AlgorithmConfig]) -> Vec<Job> {
    algorithms
        .iter()
        .flat_map(|&algo| scenarios.iter().map(move |s| Job::new(s.clone(), algo)))
        .collect()
}

/// The eight paper-default algorithm configurations, in [`Algorithm::ALL`] order.
pub fn paper_algorithms() -> Vec<AlgorithmConfig> {
    Algorithm::ALL
        .iter()
        .map(|&a| AlgorithmConfig::paper_default(a))
        .collect()
}

/// Run every job across the shared work-stealing pool.  Reports are returned in job order
/// regardless of which worker finished first.
///
/// Each job is dropped as soon as it has run, so a world held by nothing but its jobs is
/// freed after the last of them rather than when the whole list is done.
pub fn run(jobs: Vec<Job>) -> Vec<SimulationReport> {
    jobs.into_par_iter().map(|job| job.run()).collect()
}

/// Run every job on the calling thread, in order — the reference path the pooled [`run`]
/// must match byte for byte (each session owns its RNG state, so scheduling across threads
/// cannot change any report).  Like [`run`], it drops each job once it has run.
pub fn run_sequential(jobs: Vec<Job>) -> Vec<SimulationReport> {
    jobs.into_iter().map(|job| job.run()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn sweep_derives_from_one_topology_and_keeps_figure_layout() {
        let campaign = Campaign::from_config(ExperimentScale::Smoke.base_config(7)).unwrap();
        let points = [1usize, 2, 4];
        let scenarios = campaign
            .derive(&points, |base, &lf| base.with_load_factor(lf))
            .unwrap();
        for s in &scenarios {
            assert!(s.shares_topology_with(campaign.base()));
        }
        let algorithms = [
            AlgorithmConfig::paper_default(Algorithm::Dsmf),
            AlgorithmConfig::paper_default(Algorithm::MinMin),
        ];
        let reports = campaign
            .sweep(&points, |base, &lf| base.with_load_factor(lf), &algorithms)
            .unwrap();
        assert_eq!(reports.len(), algorithms.len());
        for row in &reports {
            assert_eq!(row.len(), points.len());
        }
        assert_eq!(reports[0][0].algorithm, Algorithm::Dsmf.name());
        assert_eq!(reports[1][0].algorithm, Algorithm::MinMin.name());
        // More workflows per node means more submissions at every point of the DSMF row.
        assert!(reports[0][2].submitted > reports[0][0].submitted);
    }

    #[test]
    fn pooled_and_sequential_runs_agree() {
        let campaign = Campaign::from_config(ExperimentScale::Smoke.base_config(13)).unwrap();
        let jobs = cross(
            std::slice::from_ref(campaign.base()),
            &[
                AlgorithmConfig::paper_default(Algorithm::Dsmf),
                AlgorithmConfig::paper_default(Algorithm::Heft),
            ],
        );
        let pooled = run(jobs.clone());
        let sequential = run_sequential(jobs);
        assert_eq!(pooled.len(), sequential.len());
        for (p, s) in pooled.iter().zip(&sequential) {
            assert_eq!(p.algorithm, s.algorithm);
            assert_eq!(p.completed, s.completed);
            assert_eq!(p.act_secs().to_bits(), s.act_secs().to_bits());
            assert_eq!(
                p.average_efficiency().to_bits(),
                s.average_efficiency().to_bits()
            );
        }
    }

    #[test]
    fn paper_algorithms_cover_all_eight() {
        assert_eq!(paper_algorithms().len(), Algorithm::ALL.len());
    }
}
