//! Batched sweep execution over derived worlds.
//!
//! Every experiment in this crate has the same shape: take one *base* world, vary a single
//! knob across a handful of sweep points, and run one or more algorithms at every point.
//! The expensive parts — building the topology and its all-pairs bandwidth/latency tables,
//! and running the gossip protocol — happen once per distinct input, not once per point:
//!
//! 1. Build the base [`Scenario`].
//! 2. Derive one scenario per sweep point with [`Scenario::derive`], which re-samples only
//!    what the edit changes and shares the base's `Arc`'d topology tables, workflow set and
//!    gossip trace wherever their build inputs are unchanged.
//! 3. [`cross`] the scenarios with the algorithm configurations into a flat job list and
//!    [`run`] it through the `rayon` shim's parallel map, whose threads pull one job at a
//!    time.  Reports come back in job order, so no index bookkeeping is needed.  `run`
//!    consumes the jobs and drops each one as it finishes, so a world nothing else holds —
//!    its gossip trace included — is freed once its last job has run.
//!
//! [`run_grid`] runs such a list and returns its reports as the [`ReportGrid`] every figure
//! reads, and [`sweep`] does all three for a one-knob sweep.  [`run_sequential`] is the
//! single-threaded reference path: it executes the identical job list on the calling thread
//! and is used by the `campaign_sweep` bench (pooled versus sequential wall-clock) and by
//! determinism tests (the pooled results must be byte-identical to the sequential ones).

use crate::figures::ReportGrid;
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
        self.scenario.simulate(self.algorithm).run()
    }
}

/// Derive a world per x from `base` with `edit`, cross with `algorithms`, and run the grid
/// every one-knob figure reads: one row per algorithm, labelled by
/// [`AlgorithmConfig::label`], one point per x.
///
/// Derivation runs on the calling thread: it is cheap by construction, and keeping it
/// sequential keeps the pool free for the simulation jobs.  The jobs hold the only handles
/// to the derived worlds, so each world is freed once its last job has run.
pub fn sweep(
    base: &Scenario,
    xs: &[f64],
    edit: impl Fn(GridConfig, f64) -> GridConfig,
    algorithms: &[AlgorithmConfig],
) -> Result<ReportGrid, ConfigError> {
    let worlds = xs
        .iter()
        .map(|&x| base.derive(|config| edit(config, x)))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = cross(&worlds, algorithms);
    drop(worlds);
    let labels = algorithms.iter().map(AlgorithmConfig::label).collect();
    Ok(run_grid(labels, xs.to_vec(), jobs))
}

/// Run `jobs` through one parallel map ([`run`]) and lay the reports out row-major:
/// `reports[r][p]` is the report of `jobs[r * xs.len() + p]`, so the algorithm-major list
/// [`cross`] makes comes back with one row per algorithm.
///
/// # Panics
///
/// If there is not exactly one job per (label, x) cell.
pub fn run_grid(labels: Vec<String>, xs: Vec<f64>, jobs: Vec<Job>) -> ReportGrid {
    assert_eq!(jobs.len(), labels.len() * xs.len(), "one job per grid cell");
    let mut reports = run(jobs).into_iter();
    let reports = labels
        .iter()
        .map(|_| reports.by_ref().take(xs.len()).collect())
        .collect();
    ReportGrid {
        labels,
        xs,
        reports,
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

/// Run every job through one parallel map at the current pool width
/// (`P2PGRID_POOL_THREADS`, or the installed `rayon::ThreadPool`'s).  Reports are returned in
/// job order regardless of which thread finished first.
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
    fn sweep_keeps_figure_layout() {
        let base = Scenario::build(ExperimentScale::Smoke.base_config(7)).unwrap();
        let points = [1.0, 2.0, 4.0];
        let algorithms = [
            AlgorithmConfig::paper_default(Algorithm::Dsmf),
            AlgorithmConfig::with_fcfs_second_phase(Algorithm::MinMin),
        ];
        let grid = sweep(
            &base,
            &points,
            |config, lf| config.with_load_factor(lf as usize),
            &algorithms,
        )
        .unwrap();
        assert_eq!(grid.labels, ["DSMF", "min-min+FCFS"]);
        assert_eq!(grid.xs, points);
        let reports = &grid.reports;
        assert_eq!(reports.len(), algorithms.len());
        for (label, row) in grid.labels.iter().zip(reports) {
            assert_eq!(row.len(), points.len());
            assert!(row.iter().all(|r| &r.algorithm == label));
        }
        // More workflows per node means more submissions at every point of the DSMF row.
        assert!(reports[0][2].submitted > reports[0][0].submitted);
        // The sweep's one trace was built by its first session, on the base's cell.
        assert!(base.gossip_trace_bytes().is_some());
    }

    #[test]
    fn pooled_and_sequential_runs_agree() {
        let base = Scenario::build(ExperimentScale::Smoke.base_config(13)).unwrap();
        let jobs = cross(
            std::slice::from_ref(&base),
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
