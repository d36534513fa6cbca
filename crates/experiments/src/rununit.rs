//! Run-unit execution and artifact merging — the library core of the campaign server.
//!
//! A [`CampaignSpec`] names a complete sweep campaign as data: an [`ExperimentScale`], a seed
//! range, an algorithm set and an optional serialized workload document
//! (`p2pgrid-workload/v1`).  It is a `p2pgrid-campaign/v1` document, encoded and decoded by
//! the JSON shim's `json_codec!` table below like [`RunUnit`] and every wire message; a spec
//! that does not fit reports the JSON path of the offending value.  [`CampaignSpec::validate`]
//! keeps every seed at most 2^53 − 1, the largest integer a JSON number carries exactly, so a
//! spec that crossed the wire names the seeds its sender wrote.
//!
//! [`CampaignSpec::units`] decomposes a spec into [`RunUnit`]s — one `(seed, algorithm)` cell
//! each, in canonical seed-major order — and a [`UnitRunner`] executes units one at a time
//! while building **one `Arc`-shared world per configuration point**: the base world is built
//! once, every other seed derives a world over its network with [`Scenario::with_seed`], and
//! all algorithms at that seed share it.  Units arrive seed-major, so the runner keeps only
//! the base and the current seed's world.
//!
//! Artifacts use the `repro --json` wire format: [`unit_artifact`] wraps one run's summary
//! plus its hourly [`FigureData`] series as a JSON document, and [`merge_artifacts`] folds the
//! units (sorted by index) into one campaign document with cross-seed comparison figures.
//! Both are write-only builders of `Value` trees.  Both sides are *canonicalized* (serialized
//! and re-parsed through the strict JSON shim), so a merged document assembled from artifacts
//! that crossed a wire is byte-identical to one assembled in process — the invariant the
//! campaign server's determinism tests pin.
//!
//! [`run_local`] is the single-process reference path: decompose, execute every unit on the
//! calling thread, merge.  Whatever a master/worker fleet returns for a spec must equal
//! `run_local(&spec)` byte for byte, regardless of worker count, join order or mid-campaign
//! worker kills.

use crate::figures::{FigureData, Series};
use crate::scale::ExperimentScale;
use p2pgrid_core::error::ConfigError;
use p2pgrid_core::{Algorithm, AlgorithmConfig, Scenario, SimulationReport};
use p2pgrid_metrics::TimeSeries;
use p2pgrid_workflow::{HomePolicy, WorkloadSpec};
use serde::json::{self, Codec, SchemaError, Value};
use std::fmt;

/// The serialization format tag of a campaign spec document.
pub const CAMPAIGN_FORMAT: &str = "p2pgrid-campaign/v1";
/// The format tag of one run-unit's result artifact.
pub const UNIT_FORMAT: &str = "p2pgrid-campaign-unit/v1";
/// The format tag of the merged campaign result document.
pub const RESULT_FORMAT: &str = "p2pgrid-campaign-result/v1";

/// Anything that can go wrong turning a spec into executed artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The spec document is malformed or inconsistent.
    Spec(String),
    /// The spec document does not have the campaign schema.
    Schema(SchemaError),
    /// The spec is well-formed but names an invalid grid configuration.
    Config(ConfigError),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::Schema(e) => write!(f, "invalid campaign spec: {e}"),
            CampaignError::Config(e) => write!(f, "invalid grid configuration: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> Self {
        CampaignError::Config(e)
    }
}

impl From<SchemaError> for CampaignError {
    fn from(e: SchemaError) -> Self {
        CampaignError::Schema(e)
    }
}

fn spec_err(msg: impl Into<String>) -> CampaignError {
    CampaignError::Spec(msg.into())
}

/// A complete sweep campaign as data: scenario scale × seed range × algorithm set, plus an
/// optional workload document replayed at every point.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Human-readable campaign name (echoed into artifacts).
    pub name: String,
    /// The scenario configuration preset every unit builds from.
    pub scale: ExperimentScale,
    /// The topology/workload seeds to sweep (the first seed anchors the shared base world).
    pub seeds: Vec<u64>,
    /// The algorithm set to run at every seed.
    pub algorithms: Vec<Algorithm>,
    /// Optional serialized workload (`p2pgrid-workload/v1`) replayed instead of the
    /// synthetic generator at every unit.
    pub workload: Option<WorkloadSpec>,
}

serde::json_codec! {
    CampaignSpec by "format" = CAMPAIGN_FORMAT { name, scale, seeds, algorithms, workload }
}

/// One cell of a campaign: run `algorithm` on the world derived for `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunUnit {
    /// Position in the canonical decomposition order (seed-major); merge order key.
    pub index: usize,
    /// The world seed for this unit.
    pub seed: u64,
    /// The algorithm to run.
    pub algorithm: Algorithm,
}

serde::json_codec! { RunUnit { index, seed, algorithm } }

impl CampaignSpec {
    /// Check internal consistency: non-empty unique seeds, non-empty unique algorithms, a
    /// resolvable workload document, a valid base grid configuration, and nothing a JSON
    /// document cannot carry exactly — no seed, entry time or node id above 2^53 − 1 and no
    /// non-finite number — so a spec that validates crosses the wire unchanged.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.name.is_empty() {
            return Err(spec_err("campaign name must not be empty"));
        }
        if self.seeds.is_empty() {
            return Err(spec_err("seed list must not be empty"));
        }
        let inexact = |n: u64| n > json::MAX_SAFE_INTEGER;
        if let Some(seed) = self.seeds.iter().find(|&&seed| inexact(seed)) {
            return Err(spec_err(format!(
                "seed {seed} is above 2^53 - 1, the largest integer a JSON number carries exactly"
            )));
        }
        let mut seen = self.seeds.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != self.seeds.len() {
            return Err(spec_err("seed list contains duplicates"));
        }
        if self.algorithms.is_empty() {
            return Err(spec_err("algorithm list must not be empty"));
        }
        let mut names: Vec<&str> = self.algorithms.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.algorithms.len() {
            return Err(spec_err("algorithm list contains duplicates"));
        }
        if let Some(w) = &self.workload {
            w.resolve()
                .map_err(|e| spec_err(format!("workload does not resolve: {e}")))?;
            let inexact_entry = |e: &p2pgrid_workflow::WorkloadEntry| {
                inexact(e.submit_at_ms)
                    || matches!(e.home, HomePolicy::Node(i) if inexact(i as u64))
            };
            if w.entries.iter().any(inexact_entry) || w.to_json().find_non_finite().is_some() {
                return Err(spec_err(
                    "the workload holds a number JSON cannot carry exactly: an entry time or \
                     node id above 2^53 - 1, or a non-finite size",
                ));
            }
        }
        self.base_config().validate()?;
        Ok(())
    }

    /// The grid configuration of the shared base world (first seed; workload applied).
    pub fn base_config(&self) -> p2pgrid_core::GridConfig {
        let cfg = self.scale.base_config(self.seeds[0]);
        match &self.workload {
            Some(w) => cfg.with_workload(w.clone()),
            None => cfg,
        }
    }

    /// Decompose into run-units in canonical order: seed-major, algorithms in spec order —
    /// `units[s * algorithms.len() + a]` is `(seeds[s], algorithms[a])`.
    pub fn units(&self) -> Vec<RunUnit> {
        self.seeds
            .iter()
            .flat_map(|&seed| {
                self.algorithms
                    .iter()
                    .map(move |&algorithm| (seed, algorithm))
            })
            .enumerate()
            .map(|(index, (seed, algorithm))| RunUnit {
                index,
                seed,
                algorithm,
            })
            .collect()
    }

    /// The spec as a `p2pgrid-campaign/v1` document.
    pub fn to_json(&self) -> Value {
        self.encode()
    }

    /// Decode and validate a spec document (the inverse of [`CampaignSpec::to_json`]).
    pub fn from_json(v: &Value) -> Result<Self, CampaignError> {
        let spec = Self::decode(v)?;
        spec.validate()?;
        Ok(spec)
    }
}

/// Canonicalize a value for artifact use: serialize compactly and re-parse.  This maps
/// non-finite numbers to `null` exactly the way the wire does, so in-process and
/// over-the-wire artifact trees are always equal — and therefore merge to identical bytes.
fn canonical(v: Value) -> Value {
    json::parse(&v.to_string()).expect("canonical JSON round trip cannot fail")
}

/// Executes run-units of one campaign, sharing worlds across units.
///
/// The base world (topology + all-pairs metrics + landmarks) is built **once** at
/// construction, for the first seed.  Any other seed derives its world from the base with
/// [`Scenario::with_seed`] and keeps it while that seed's units keep coming, so the
/// `algorithms.len()` units of one configuration point all run over the same `Arc`-shared
/// world.  A unit of another seed replaces it: the runner holds the base and at most one
/// derived world, each with its gossip trace, however many seeds the campaign names.
#[derive(Debug)]
pub struct UnitRunner {
    spec: CampaignSpec,
    base: Scenario,
    /// The seed of the last unit run off the base world, and that seed's world.
    current: Option<(u64, Scenario)>,
}

impl std::str::FromStr for CampaignSpec {
    type Err = CampaignError;

    /// Parse a spec from JSON text.
    fn from_str(text: &str) -> Result<Self, CampaignError> {
        let v = json::parse(text).map_err(|e| spec_err(e.to_string()))?;
        Self::from_json(&v)
    }
}

impl UnitRunner {
    /// Validate the spec and build the shared base world.
    pub fn new(spec: CampaignSpec) -> Result<Self, CampaignError> {
        spec.validate()?;
        let base = Scenario::build(spec.base_config())?;
        Ok(UnitRunner {
            spec,
            base,
            current: None,
        })
    }

    /// The scenario for a seed: the base world for the first seed, else that seed's world,
    /// derived from the base unless it is the current one.
    fn world(&mut self, seed: u64) -> Result<&Scenario, CampaignError> {
        if seed == self.spec.seeds[0] {
            return Ok(&self.base);
        }
        if self.current.as_ref().map(|&(current, _)| current) != Some(seed) {
            // Free the previous seed's world, and its trace, before building the next.
            self.current = None;
            self.current = Some((seed, self.base.with_seed(seed)?));
        }
        Ok(&self
            .current
            .as_ref()
            .expect("the current world was just set")
            .1)
    }

    /// Execute one unit to its horizon and return its canonical artifact document.
    pub fn run(&mut self, unit: &RunUnit) -> Result<Value, CampaignError> {
        let scenario = self.world(unit.seed)?;
        let report = scenario
            .simulate(AlgorithmConfig::paper_default(unit.algorithm))
            .run();
        Ok(unit_artifact(unit, &report))
    }
}

/// Hourly series of one report as a figure in the `repro --json` wire format.
fn unit_figure(
    unit: &RunUnit,
    id_suffix: &str,
    title: &str,
    y_label: &str,
    series: &TimeSeries,
) -> FigureData {
    let mut fig = FigureData::new(
        format!("u{}-{}", unit.index, id_suffix),
        title,
        "hour",
        y_label,
    );
    fig.push_series(Series::hourly(unit.algorithm.name(), series));
    fig
}

/// Wrap one executed unit's report as its canonical artifact document
/// (`p2pgrid-campaign-unit/v1`): run coordinates, a scalar summary (workflow counts, ACT,
/// AE, gossip traffic, the robustness ledger) and the three hourly [`FigureData`] series.
pub fn unit_artifact(unit: &RunUnit, report: &SimulationReport) -> Value {
    let summary = Value::object([
        ("nodes", Value::from(report.nodes)),
        ("submitted", Value::from(report.submitted)),
        ("completed", Value::from(report.completed)),
        ("failed", Value::from(report.failed)),
        ("act_secs", Value::from(report.act_secs())),
        (
            "average_efficiency",
            Value::from(report.average_efficiency()),
        ),
        ("avg_rss_size", Value::from(report.avg_rss_size)),
        (
            "end_time_hours",
            Value::from(report.end_time.as_hours_f64()),
        ),
        (
            "gossip",
            Value::object([
                ("cycles", Value::from(report.gossip_stats.cycles)),
                (
                    "epidemic_messages",
                    Value::from(report.gossip_stats.epidemic_messages),
                ),
                (
                    "aggregation_exchanges",
                    Value::from(report.gossip_stats.aggregation_exchanges),
                ),
                ("bytes_sent", Value::from(report.gossip_stats.bytes_sent)),
            ]),
        ),
        (
            "robustness",
            Value::object([
                (
                    "node_failures",
                    Value::from(report.robustness.node_failures),
                ),
                ("tasks_lost", Value::from(report.robustness.tasks_lost)),
                ("retries", Value::from(report.robustness.retries)),
                ("useful_mi", Value::from(report.robustness.useful_mi)),
                ("wasted_mi", Value::from(report.robustness.wasted_mi)),
                ("goodput", Value::from(report.robustness.goodput())),
            ]),
        ),
    ]);
    let figures = [
        unit_figure(
            unit,
            "throughput",
            "Cumulative throughput",
            "workflows finished",
            report.metrics.throughput_series(),
        ),
        unit_figure(
            unit,
            "act",
            "Average completion time",
            "ACT (s)",
            report.metrics.act_series(),
        ),
        unit_figure(
            unit,
            "ae",
            "Average efficiency",
            "AE",
            report.metrics.ae_series(),
        ),
    ];
    canonical(Value::object([
        ("format", Value::from(UNIT_FORMAT)),
        ("unit", Value::from(unit.index)),
        ("seed", Value::from(unit.seed)),
        ("algorithm", Value::from(unit.algorithm.name())),
        ("summary", summary),
        (
            "figures",
            Value::Array(figures.iter().map(FigureData::to_json).collect()),
        ),
    ]))
}

/// A summary scalar of one unit artifact, for the campaign-level comparison figures.
fn summary_scalar(unit: &Value, key: &str) -> f64 {
    unit.get("summary")
        .and_then(|s| s.get(key))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// Fold executed unit artifacts into the merged campaign result document
/// (`p2pgrid-campaign-result/v1`).
///
/// `units` must hold one artifact per run-unit; they are sorted by their embedded unit index,
/// so the caller may pass them in any completion order.  On top of the verbatim unit
/// artifacts, the document carries campaign-level comparison figures (final throughput / ACT
/// / AE versus seed, one series per algorithm) in the same wire format.
pub fn merge_artifacts(spec: &CampaignSpec, units: &[Value]) -> Result<Value, CampaignError> {
    let expected = spec.seeds.len() * spec.algorithms.len();
    if units.len() != expected {
        return Err(spec_err(format!(
            "campaign has {expected} units, got {} artifacts",
            units.len()
        )));
    }
    let mut sorted: Vec<&Value> = units.iter().collect();
    sorted.sort_by_key(|u| u.get("unit").and_then(Value::as_u64).unwrap_or(u64::MAX));
    for (i, u) in sorted.iter().enumerate() {
        let (idx, tag) = (
            u.get("unit").and_then(Value::as_u64),
            u.get("format").and_then(Value::as_str),
        );
        if tag != Some(UNIT_FORMAT) {
            return Err(spec_err(format!("artifact {i} is not a `{UNIT_FORMAT}`")));
        }
        if idx != Some(i as u64) {
            return Err(spec_err(format!(
                "unit indices are not a permutation of 0..{expected} (saw {idx:?} at {i})"
            )));
        }
    }
    // Campaign-level figures: one point per seed, one series per algorithm, sweeping the
    // final value of each headline metric.
    let metric = |key: &str, id: &str, title: &str, y_label: &str| -> FigureData {
        let mut fig = FigureData::new(id, title, "seed", y_label);
        for (a, algorithm) in spec.algorithms.iter().enumerate() {
            let points = spec
                .seeds
                .iter()
                .enumerate()
                .map(|(s, &seed)| {
                    let unit = sorted[s * spec.algorithms.len() + a];
                    (seed as f64, summary_scalar(unit, key))
                })
                .collect();
            fig.push_series(Series::new(algorithm.name(), points));
        }
        fig
    };
    let figures = [
        metric(
            "completed",
            "campaign-throughput",
            "Final throughput per seed",
            "workflows finished",
        ),
        metric("act_secs", "campaign-act", "Final ACT per seed", "ACT (s)"),
        metric(
            "average_efficiency",
            "campaign-ae",
            "Final AE per seed",
            "AE",
        ),
    ];
    Ok(canonical(Value::object([
        ("format", Value::from(RESULT_FORMAT)),
        ("name", spec.name.encode()),
        ("scale", spec.scale.encode()),
        ("seeds", spec.seeds.encode()),
        ("algorithms", spec.algorithms.encode()),
        (
            "figures",
            Value::Array(figures.iter().map(FigureData::to_json).collect()),
        ),
        ("units", Value::Array(sorted.into_iter().cloned().collect())),
    ])))
}

/// Render a merged result document the way artifacts land on disk: pretty-printed with a
/// trailing newline.  Both the campaign server and [`run_local`] emit exactly this form, so
/// equality of the returned strings is the byte-identity acceptance check.
pub fn render_result(result: &Value) -> String {
    let mut doc = result.to_string_pretty();
    doc.push('\n');
    doc
}

/// Execute a whole campaign on the calling thread: decompose, run every unit in canonical
/// order over shared worlds, merge — the single-process reference for the campaign server.
pub fn run_local(spec: &CampaignSpec) -> Result<String, CampaignError> {
    let mut runner = UnitRunner::new(spec.clone())?;
    let artifacts = spec
        .units()
        .iter()
        .map(|u| runner.run(u))
        .collect::<Result<Vec<Value>, _>>()?;
    Ok(render_result(&merge_artifacts(spec, &artifacts)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_workflow::{shapes, HomePolicy, WorkflowSpec, WorkloadEntry};
    use std::str::FromStr;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            scale: ExperimentScale::Smoke,
            seeds: vec![7, 9],
            algorithms: vec![Algorithm::Dsmf, Algorithm::MinMin],
            workload: None,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec();
        let text = spec.to_json().to_string_pretty();
        let back = CampaignSpec::from_str(&text).unwrap();
        assert_eq!(back, spec);

        let wf = WorkflowSpec::from_workflow("d", &shapes::diamond(50.0, 200.0, 5.0)).unwrap();
        let with_workload = CampaignSpec {
            workload: Some(WorkloadSpec {
                name: "w".into(),
                workflows: vec![wf],
                entries: vec![WorkloadEntry {
                    workflow: "d".into(),
                    submit_at_ms: 0,
                    home: HomePolicy::Auto,
                }],
            }),
            ..tiny_spec()
        };
        let back = CampaignSpec::from_str(&with_workload.to_json().to_string()).unwrap();
        assert_eq!(back, with_workload);
    }

    #[test]
    fn spec_validation_rejects_inconsistencies() {
        assert!(CampaignSpec {
            seeds: vec![],
            ..tiny_spec()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            seeds: vec![1, 1],
            ..tiny_spec()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            algorithms: vec![],
            ..tiny_spec()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            algorithms: vec![Algorithm::Dsmf, Algorithm::Dsmf],
            ..tiny_spec()
        }
        .validate()
        .is_err());
        assert!(CampaignSpec {
            seeds: vec![7, 1 << 53],
            ..tiny_spec()
        }
        .validate()
        .is_err());
        let err = CampaignSpec::from_str("{\"format\":\"nope\"}").unwrap_err();
        assert!(err.to_string().contains("unsupported format"), "{err}");
        let bad_seed = tiny_spec()
            .to_json()
            .to_string()
            .replace("[7,9]", "[7,\"9\"]");
        let err = CampaignSpec::from_str(&bad_seed).unwrap_err();
        assert!(
            matches!(&err, CampaignError::Schema(e) if e.at == "$.seeds[1]"),
            "{err}"
        );
        let bad_algo = tiny_spec().to_json().to_string().replace("DSMF", "BOGUS");
        let err = CampaignSpec::from_str(&bad_algo).unwrap_err();
        assert!(err.to_string().contains("BOGUS"), "{err}");
    }

    #[test]
    fn decomposition_is_seed_major_and_indexed() {
        let units = tiny_spec().units();
        assert_eq!(units.len(), 4);
        assert_eq!(units[0].seed, 7);
        assert_eq!(units[0].algorithm, Algorithm::Dsmf);
        assert_eq!(units[1].seed, 7);
        assert_eq!(units[1].algorithm, Algorithm::MinMin);
        assert_eq!(units[2].seed, 9);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.index, i);
        }
    }

    #[test]
    fn runner_shares_one_world_per_seed() {
        let spec = CampaignSpec {
            seeds: vec![7, 9, 11],
            ..tiny_spec()
        };
        let mut runner = UnitRunner::new(spec.clone()).unwrap();
        let units = spec.units();
        let mut worlds = Vec::new();
        let mut artifacts = Vec::new();
        for unit in &units {
            artifacts.push(runner.run(unit).unwrap());
            // However many seeds have run, the runner holds the base and one derived world.
            match &runner.current {
                None => assert_eq!(unit.seed, spec.seeds[0]),
                Some((seed, world)) => {
                    assert_eq!(*seed, unit.seed);
                    assert!(world.shares_topology_with(&runner.base));
                    worlds.push(world.clone());
                }
            }
        }
        // Both algorithms at a seed ran on one world.
        assert_eq!(worlds.len(), 4);
        assert!(worlds[0].shares_gossip_trace_with(&worlds[1]));
        assert!(worlds[2].shares_gossip_trace_with(&worlds[3]));
        assert!(!worlds[1].shares_gossip_trace_with(&worlds[2]));

        // A unit out of seed-major order rebuilds its world and runs as it did in order.
        assert_eq!(runner.run(&units[2]).unwrap(), artifacts[2]);
        assert_eq!(runner.current.as_ref().unwrap().0, units[2].seed);
    }

    #[test]
    fn merge_is_completion_order_independent_and_checks_units() {
        let spec = tiny_spec();
        let mut runner = UnitRunner::new(spec.clone()).unwrap();
        let mut artifacts: Vec<Value> = spec
            .units()
            .iter()
            .map(|u| runner.run(u).unwrap())
            .collect();
        let in_order = render_result(&merge_artifacts(&spec, &artifacts).unwrap());
        artifacts.reverse();
        let reversed = render_result(&merge_artifacts(&spec, &artifacts).unwrap());
        assert_eq!(in_order, reversed);
        assert!(in_order.contains("campaign-throughput"));

        assert!(merge_artifacts(&spec, &artifacts[..3]).is_err());
        let mut dup = artifacts.clone();
        dup[0] = dup[1].clone();
        assert!(merge_artifacts(&spec, &dup).is_err());
    }

    #[test]
    fn run_local_is_deterministic() {
        let spec = CampaignSpec {
            seeds: vec![7],
            ..tiny_spec()
        };
        let a = run_local(&spec).unwrap();
        let b = run_local(&spec).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"format\": \"p2pgrid-campaign-result/v1\""));
        assert!(a.ends_with('\n'));
    }
}
