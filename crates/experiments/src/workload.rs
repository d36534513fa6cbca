//! Replaying serialized workload artifacts (`repro --workload FILE`) and validating the
//! checked-in library (`repro --check-workloads DIR`).
//!
//! A workload artifact (`p2pgrid-workload/v1`, see `p2pgrid_workflow::spec`) pins the exact
//! DAGs, arrival times and home policies of a campaign, so a run over it compares schedulers
//! on a *reproducible trace* instead of a seed-dependent synthetic sample: the same file gives
//! the same workload on every machine, every scale and every seed (the seed still drives the
//! topology, capacities and churn).

use crate::figures::ReportGrid;
use crate::scale::ExperimentScale;
use crate::static_comparison;
use p2pgrid_core::Scenario;
use p2pgrid_workflow::WorkloadSpec;
use std::path::Path;
use std::str::FromStr;

/// Replay a workload over this scale's base grid with every paper algorithm: one row per
/// algorithm, as [`static_comparison::run_on`] lays it out.
///
/// The world is built once; all eight sessions share it, so the comparison is on
/// byte-identical traces by construction.
pub fn run_spec(
    spec: &WorkloadSpec,
    scale: ExperimentScale,
    seed: u64,
) -> Result<ReportGrid, String> {
    let config = scale.base_config(seed).with_workload(spec.clone());
    let world = Scenario::build(config).map_err(|e| format!("invalid workload: {e}"))?;
    Ok(static_comparison::run_on(&world))
}

/// Render a replay of `spec` ([`run_spec`]) as an aligned text table.
pub fn table(spec: &WorkloadSpec, grid: &ReportGrid) -> String {
    let mut out = format!(
        "workload `{}`: {} instances, last arrival at {:.0} min\n",
        spec.name,
        spec.entry_count(),
        spec.last_arrival_ms() as f64 / 60_000.0
    );
    out.push_str("algorithm   completed  failed  ACT (s)   AE\n");
    for r in grid.reports.iter().flatten() {
        out.push_str(&format!(
            "{:<10}  {:>9}  {:>6}  {:>8.0}  {:>5.3}\n",
            r.algorithm,
            r.completed,
            r.failed,
            r.act_secs(),
            r.average_efficiency()
        ));
    }
    out
}

/// Summary of one successfully validated artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactCheck {
    /// The artifact's file name.
    pub file: String,
    /// The workload's name.
    pub name: String,
    /// Workflows in the library.
    pub workflows: usize,
    /// Submitted instances.
    pub entries: usize,
    /// Total task count across resolved entries.
    pub tasks: usize,
}

/// Validate every `*.json` artifact in a directory: parse, resolve (full DAG validation) and
/// verify the serialized form is a round-trip fixpoint.
///
/// Returns one [`ArtifactCheck`] per valid file (sorted by file name), or a newline-joined
/// error report naming every failing file (with the JSON parser's line/column positions for
/// syntax errors).
pub fn check_dir(dir: impl AsRef<Path>) -> Result<Vec<ArtifactCheck>, String> {
    let dir = dir.as_ref();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{}: no .json artifacts found", dir.display()));
    }
    let mut checks = Vec::new();
    let mut errors = Vec::new();
    for path in &paths {
        match check_file(path) {
            Ok(check) => checks.push(check),
            Err(e) => errors.push(format!("{}: {e}", path.display())),
        }
    }
    if errors.is_empty() {
        Ok(checks)
    } else {
        Err(errors.join("\n"))
    }
}

fn check_file(path: &Path) -> Result<ArtifactCheck, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let spec = WorkloadSpec::from_str(&text).map_err(|e| e.to_string())?;
    let resolved = spec.resolve().map_err(|e| e.to_string())?;
    let reparsed = WorkloadSpec::from_str(&spec.to_string_pretty())
        .map_err(|e| format!("re-parse of serialized form failed: {e}"))?;
    if reparsed != spec {
        return Err("round trip is not a fixpoint (serialized form decodes differently)".into());
    }
    Ok(ArtifactCheck {
        file: path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default(),
        name: spec.name.clone(),
        workflows: spec.workflows.len(),
        entries: spec.entry_count(),
        tasks: resolved.iter().map(|e| e.workflow.task_count()).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_workflow::{shapes, HomePolicy, WorkflowSpec, WorkloadEntry};

    fn tiny_workload() -> WorkloadSpec {
        let wf = WorkflowSpec::from_workflow("d", &shapes::diamond(50.0, 200.0, 5.0)).unwrap();
        WorkloadSpec {
            name: "tiny".into(),
            workflows: vec![wf],
            entries: vec![
                WorkloadEntry {
                    workflow: "d".into(),
                    submit_at_ms: 0,
                    home: HomePolicy::Auto,
                },
                WorkloadEntry {
                    workflow: "d".into(),
                    submit_at_ms: 120_000,
                    home: HomePolicy::Auto,
                },
            ],
        }
    }

    #[test]
    fn replaying_a_trace_compares_all_algorithms_on_identical_submissions() {
        let spec = tiny_workload();
        let grid = run_spec(&spec, ExperimentScale::Smoke, 11).unwrap();
        assert_eq!(grid.reports.len(), 8);
        for r in grid.reports.iter().flatten() {
            assert_eq!(r.submitted, 2, "{}", r.algorithm);
        }
        let table = table(&spec, &grid);
        assert!(table.starts_with("workload `tiny`: 2 instances"), "{table}");
        assert_eq!(table.lines().count(), 2 + 8, "{table}");
    }

    #[test]
    fn check_dir_accepts_valid_artifacts_and_names_broken_ones() {
        let dir = std::env::temp_dir().join(format!("p2pgrid-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        tiny_workload().save(dir.join("tiny.json")).unwrap();
        let checks = check_dir(&dir).unwrap();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].name, "tiny");
        assert_eq!(checks[0].entries, 2);
        assert_eq!(checks[0].tasks, 8);

        std::fs::write(dir.join("broken.json"), "{\"format\": oops}").unwrap();
        let err = check_dir(&dir).unwrap_err();
        assert!(err.contains("broken.json"), "{err}");
        assert!(err.contains("line"), "parse errors carry positions: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
