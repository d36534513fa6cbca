//! The serializable on-disk workload format.
//!
//! Two document kinds, both JSON, both encoded and decoded by the `serde` compat shim's
//! [`json::Codec`]: each type below names its fields once in a `json_codec!` table, and a
//! document that does not fit reports a [`SpecError::Schema`] at the JSON path of the
//! offending value (`$.workflows[0].tasks[0].image_size_mb`).
//!
//! * **`p2pgrid-workflow/v1`** — one DAG: named tasks (`load_mi`, `image_size_mb`, optional
//!   `priority`) plus `[from, to, data_mb]` edges.  [`WorkflowSpec`] round-trips to/from the
//!   validated runtime [`Workflow`]: `import` funnels through [`WorkflowBuilder`], so cycles,
//!   duplicate edges, self-dependencies and unknown task references are rejected with the same
//!   typed errors the builder produces.  The `format` tag is optional on input.
//! * **`p2pgrid-workload/v1`** — a [`WorkloadSpec`]: a library of workflows (without their
//!   `format` tags) plus *entries* binding each submitted instance to an arrival time
//!   (`submit_at_ms`, virtual milliseconds, 0 when absent) and a home-node policy (`"auto"`
//!   round-robins over the scenario's stable home candidates; an integer pins an explicit
//!   node id).  A bare workflow document is accepted wherever a workload is expected.
//!
//! The checked-in artifacts under `workloads/` (Montage, CyberShake, Epigenomics) use the
//! workload format; `examples/export_workloads.rs` regenerates them from
//! [`shapes`](crate::generator::shapes), and `repro --check-workloads` verifies parse +
//! round-trip in CI.
//!
//! Export edge order is canonical (grouped by source task in id order); importing a document,
//! exporting it and re-importing is a fixpoint, and for workflows whose builder inserted edges
//! in that same order (all the library shapes) `import(export(w)) == w` exactly.

use crate::dag::{Task, TaskId, Workflow, WorkflowBuilder, WorkflowError};
use serde::json::{self, Codec, SchemaError, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Format tag of a single-workflow document.
pub const WORKFLOW_FORMAT: &str = "p2pgrid-workflow/v1";
/// Format tag of a workload (workflow library + arrival entries) document.
pub const WORKLOAD_FORMAT: &str = "p2pgrid-workload/v1";

/// Errors raised while importing, exporting or validating workload documents.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON (carries the parser's line/column).
    Parse(json::ParseError),
    /// Reading or writing the file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// The JSON is well-formed but does not match the schema.
    Schema {
        /// Dotted path of the offending field (e.g. `workflows[2].tasks[0].load_mi`).
        at: String,
        /// What was expected.
        message: String,
    },
    /// Two tasks in one workflow share a name.
    DuplicateTaskName {
        /// The workflow's name.
        workflow: String,
        /// The repeated task name.
        task: String,
    },
    /// An edge references a task name that does not exist in the workflow.
    UnknownTaskName {
        /// The workflow's name.
        workflow: String,
        /// The unresolved task name.
        task: String,
    },
    /// Two workflows in one workload share a name.
    DuplicateWorkflowName(String),
    /// An entry references a workflow name that does not exist in the library.
    UnknownWorkflowName(String),
    /// DAG validation failed (cycle, duplicate edge, self-dependency, bad parameter, ...).
    Workflow {
        /// The workflow's name.
        workflow: String,
        /// The underlying builder error.
        error: WorkflowError,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Io { path, message } => write!(f, "{path}: {message}"),
            SpecError::Schema { at, message } => write!(f, "at `{at}`: {message}"),
            SpecError::DuplicateTaskName { workflow, task } => {
                write!(f, "workflow `{workflow}`: duplicate task name `{task}`")
            }
            SpecError::UnknownTaskName { workflow, task } => {
                write!(
                    f,
                    "workflow `{workflow}`: edge references unknown task `{task}`"
                )
            }
            SpecError::DuplicateWorkflowName(n) => write!(f, "duplicate workflow name `{n}`"),
            SpecError::UnknownWorkflowName(n) => {
                write!(f, "entry references unknown workflow `{n}`")
            }
            SpecError::Workflow { workflow, error } => {
                write!(f, "workflow `{workflow}`: {error}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<json::ParseError> for SpecError {
    fn from(e: json::ParseError) -> Self {
        SpecError::Parse(e)
    }
}

impl From<SchemaError> for SpecError {
    fn from(SchemaError { at, message }: SchemaError) -> Self {
        SpecError::Schema { at, message }
    }
}

/// One task of a serialized workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Unique (within the workflow) task name; edges reference tasks by name.
    pub name: String,
    /// Computational load in million instructions.
    pub load_mi: f64,
    /// Program-image size in megabits (the task's staged-in binary/output footprint).
    pub image_size_mb: f64,
    /// Optional priority (informational today; see [`Task::priority`]).
    pub priority: Option<i32>,
}

serde::json_codec! { TaskSpec { name, load_mi, image_size_mb, priority } }

/// One dependency edge of a serialized workflow: `[from, to, data_mb]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Name of the precedent task.
    pub from: String,
    /// Name of the successor task.
    pub to: String,
    /// Data transferred along the edge, in megabits.
    pub data_mb: f64,
}

/// An edge is the triple `[from, to, data_mb]`.
impl Codec for EdgeSpec {
    fn encode(&self) -> Value {
        let EdgeSpec { from, to, data_mb } = self;
        Value::Array(vec![from.encode(), to.encode(), data_mb.encode()])
    }

    fn decode(v: &Value) -> Result<Self, SchemaError> {
        let Some([from, to, data_mb]) = v.as_array() else {
            return Err(SchemaError::expected("a [from, to, data_mb] triple", v));
        };
        Ok(EdgeSpec {
            from: String::decode(from).map_err(|e| e.in_item(0))?,
            to: String::decode(to).map_err(|e| e.in_item(1))?,
            data_mb: f64::decode(data_mb).map_err(|e| e.in_item(2))?,
        })
    }
}

/// A serializable workflow DAG (`p2pgrid-workflow/v1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// The workflow's name (entries in a [`WorkloadSpec`] reference it).
    pub name: String,
    /// Tasks in id order.
    pub tasks: Vec<TaskSpec>,
    /// Dependency edges.
    pub edges: Vec<EdgeSpec>,
}

// The form nested in a workload; a standalone document adds the format tag.
serde::json_codec! { WorkflowSpec { name, tasks, edges } }

impl WorkflowSpec {
    /// Export a validated [`Workflow`] under the given name.
    ///
    /// Anonymous tasks get synthesized `t{index}` names (import then names them, so a workflow
    /// of fully named tasks — every library shape — round-trips exactly).  Edges are emitted
    /// grouped by source task in id order.
    pub fn from_workflow(name: impl Into<String>, workflow: &Workflow) -> Result<Self, SpecError> {
        let name = name.into();
        let task_name = |id: TaskId| -> String {
            workflow
                .task(id)
                .name
                .clone()
                .unwrap_or_else(|| format!("{id}"))
        };
        let mut seen = HashMap::new();
        let mut tasks = Vec::with_capacity(workflow.task_count());
        for id in workflow.task_ids() {
            let t = workflow.task(id);
            let n = task_name(id);
            if seen.insert(n.clone(), id).is_some() {
                return Err(SpecError::DuplicateTaskName {
                    workflow: name,
                    task: n,
                });
            }
            tasks.push(TaskSpec {
                name: n,
                load_mi: t.load_mi,
                image_size_mb: t.image_size_mb,
                priority: t.priority,
            });
        }
        let mut edges = Vec::with_capacity(workflow.edge_count());
        for from in workflow.task_ids() {
            for e in workflow.successors(from) {
                edges.push(EdgeSpec {
                    from: tasks[from.index()].name.clone(),
                    to: tasks[e.task.index()].name.clone(),
                    data_mb: e.data_mb,
                });
            }
        }
        Ok(WorkflowSpec { name, tasks, edges })
    }

    /// Validate and build the runtime [`Workflow`], funnelling through [`WorkflowBuilder`] so
    /// cycles, duplicate edges and invalid parameters are rejected with the builder's checks.
    pub fn build(&self) -> Result<Workflow, SpecError> {
        let mut ids: HashMap<&str, TaskId> = HashMap::with_capacity(self.tasks.len());
        let mut builder = WorkflowBuilder::new();
        for t in &self.tasks {
            let id = builder.add_task(Task {
                load_mi: t.load_mi,
                image_size_mb: t.image_size_mb,
                name: Some(t.name.clone()),
                priority: t.priority,
            });
            if ids.insert(t.name.as_str(), id).is_some() {
                return Err(SpecError::DuplicateTaskName {
                    workflow: self.name.clone(),
                    task: t.name.clone(),
                });
            }
        }
        for e in &self.edges {
            let resolve = |n: &str| {
                ids.get(n)
                    .copied()
                    .ok_or_else(|| SpecError::UnknownTaskName {
                        workflow: self.name.clone(),
                        task: n.to_string(),
                    })
            };
            builder.add_dependency(resolve(&e.from)?, resolve(&e.to)?, e.data_mb);
        }
        builder.build().map_err(|error| SpecError::Workflow {
            workflow: self.name.clone(),
            error,
        })
    }

    /// Render to a [`Value`] tree (with the `p2pgrid-workflow/v1` format tag).
    pub fn to_json(&self) -> Value {
        let mut doc = self.encode();
        if let Value::Object(fields) = &mut doc {
            fields.insert(0, ("format".into(), Value::from(WORKFLOW_FORMAT)));
        }
        doc
    }

    /// Parse a standalone `p2pgrid-workflow/v1` document; its `format` tag may be absent.
    pub fn from_json(v: &Value) -> Result<Self, SpecError> {
        match v.get("format").map(String::decode) {
            Some(Ok(tag)) if tag != WORKFLOW_FORMAT => {
                Err(SchemaError::unsupported("format", &tag, &[WORKFLOW_FORMAT]).into())
            }
            Some(Err(e)) => Err(e.in_field("format").into()),
            _ => Ok(Self::decode(v)?),
        }
    }

    /// Render as pretty-printed JSON text.
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

/// Parse from JSON text: `text.parse::<WorkflowSpec>()`.
impl std::str::FromStr for WorkflowSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        Self::from_json(&json::parse(s)?)
    }
}

/// Where a submitted workflow instance lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HomePolicy {
    /// Round-robin over the scenario's stable home candidates (deterministic, in entry order).
    Auto,
    /// Pin to an explicit node id (must be a stable node of the scenario).
    Node(usize),
}

/// A home policy is `"auto"` or a node id.
impl Codec for HomePolicy {
    fn encode(&self) -> Value {
        match self {
            HomePolicy::Auto => Value::from("auto"),
            HomePolicy::Node(i) => i.encode(),
        }
    }

    fn decode(v: &Value) -> Result<Self, SchemaError> {
        match v {
            Value::String(s) if s == "auto" => Ok(HomePolicy::Auto),
            Value::Number(_) => usize::decode(v).map(HomePolicy::Node),
            other => Err(SchemaError::expected("\"auto\" or a node id", other)),
        }
    }
}

/// One submitted workflow instance: which DAG, when, and where it is homed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// Name of a workflow in the workload's library.
    pub workflow: String,
    /// Arrival (submission) time in virtual milliseconds.
    pub submit_at_ms: u64,
    /// Home-node policy.
    pub home: HomePolicy,
}

serde::json_codec! { WorkloadEntry { workflow, submit_at_ms = 0, home } }

/// A serializable workload (`p2pgrid-workload/v1`): a workflow library plus arrival entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The workload's name (used in reports and file names).
    pub name: String,
    /// The workflow library (names must be unique).
    pub workflows: Vec<WorkflowSpec>,
    /// Submitted instances in submission order.
    pub entries: Vec<WorkloadEntry>,
}

serde::json_codec! {
    WorkloadSpec by "format" = WORKLOAD_FORMAT | WORKFLOW_FORMAT => WorkflowSpec {
        name,
        workflows,
        entries,
    }
}

/// A bare workflow is the workload submitting it once, at time zero, with auto home
/// placement.
impl From<WorkflowSpec> for WorkloadSpec {
    fn from(workflow: WorkflowSpec) -> Self {
        WorkloadSpec::batch(workflow.name.clone(), vec![workflow])
    }
}

/// One resolved workload entry: the validated DAG plus its binding.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedEntry {
    /// The validated runtime workflow.
    pub workflow: Workflow,
    /// Arrival (submission) time in virtual milliseconds.
    pub submit_at_ms: u64,
    /// Home-node policy.
    pub home: HomePolicy,
}

impl WorkloadSpec {
    /// A workload submitting each given workflow once, at time zero, with auto home placement.
    pub fn batch(name: impl Into<String>, workflows: Vec<WorkflowSpec>) -> Self {
        let entries = workflows
            .iter()
            .map(|w| WorkloadEntry {
                workflow: w.name.clone(),
                submit_at_ms: 0,
                home: HomePolicy::Auto,
            })
            .collect();
        WorkloadSpec {
            name: name.into(),
            workflows,
            entries,
        }
    }

    /// Validate every workflow in the library and resolve every entry to its DAG.
    ///
    /// Rejects duplicate workflow names, entries referencing unknown names, and any DAG-level
    /// problem ([`WorkflowSpec::build`]).  Home-policy node ids are range-checked later by
    /// `Scenario::build`, which knows the grid size.
    pub fn resolve(&self) -> Result<Vec<ResolvedEntry>, SpecError> {
        let mut built: HashMap<&str, Workflow> = HashMap::with_capacity(self.workflows.len());
        for w in &self.workflows {
            if built.insert(w.name.as_str(), w.build()?).is_some() {
                return Err(SpecError::DuplicateWorkflowName(w.name.clone()));
            }
        }
        self.entries
            .iter()
            .map(|e| {
                let workflow = built
                    .get(e.workflow.as_str())
                    .cloned()
                    .ok_or_else(|| SpecError::UnknownWorkflowName(e.workflow.clone()))?;
                Ok(ResolvedEntry {
                    workflow,
                    submit_at_ms: e.submit_at_ms,
                    home: e.home,
                })
            })
            .collect()
    }

    /// Render to a [`Value`] tree (with the `p2pgrid-workload/v1` format tag).
    pub fn to_json(&self) -> Value {
        self.encode()
    }

    /// Decode from a [`Value`] tree: a `p2pgrid-workload/v1` document, or a bare
    /// `p2pgrid-workflow/v1` document as the single-entry workload it converts to.
    pub fn from_json(v: &Value) -> Result<Self, SpecError> {
        Ok(Self::decode(v)?)
    }

    /// Render as pretty-printed JSON text (with a trailing newline, as checked-in artifacts).
    pub fn to_string_pretty(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// Load and parse a workload file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        text.parse()
    }

    /// Write as pretty-printed JSON to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SpecError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_string_pretty()).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Total number of submitted workflow instances.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The latest `submit_at_ms` over all entries (zero for an empty workload).
    pub fn last_arrival_ms(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.submit_at_ms)
            .max()
            .unwrap_or(0)
    }
}

/// Parse from JSON text (either document format — see [`WorkloadSpec::from_json`]):
/// `text.parse::<WorkloadSpec>()`.
impl std::str::FromStr for WorkloadSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        Self::from_json(&json::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::shapes;
    use proptest::prelude::*;
    use std::str::FromStr;

    #[test]
    fn export_import_is_byte_identical_for_named_shapes() {
        for (name, w) in [
            ("montage", shapes::montage_like(4, 2000.0, 400.0)),
            ("cybershake", shapes::cybershake_like(2, 3, 1500.0, 2000.0)),
            ("epigenomics", shapes::epigenomics_like(3, 3000.0, 300.0)),
            ("chain", shapes::chain(5, 100.0, 10.0)),
            ("fork-join", shapes::fork_join(4, 800.0, 120.0)),
        ] {
            let spec = WorkflowSpec::from_workflow(name, &w).unwrap();
            let rebuilt = spec.build().unwrap();
            assert_eq!(rebuilt, w, "{name} must round-trip exactly");
            // Text round-trip is a fixpoint too.
            let text = spec.to_string_pretty();
            let reparsed = WorkflowSpec::from_str(&text).unwrap();
            assert_eq!(reparsed, spec);
            assert_eq!(reparsed.to_string_pretty(), text);
        }
    }

    #[test]
    fn workload_document_round_trips_with_entries() {
        let montage =
            WorkflowSpec::from_workflow("m", &shapes::montage_like(3, 1000.0, 200.0)).unwrap();
        let spec = WorkloadSpec {
            name: "demo".into(),
            workflows: vec![montage],
            entries: vec![
                WorkloadEntry {
                    workflow: "m".into(),
                    submit_at_ms: 0,
                    home: HomePolicy::Auto,
                },
                WorkloadEntry {
                    workflow: "m".into(),
                    submit_at_ms: 1_800_000,
                    home: HomePolicy::Node(7),
                },
            ],
        };
        let text = spec.to_string_pretty();
        let reparsed = WorkloadSpec::from_str(&text).unwrap();
        assert_eq!(reparsed, spec);
        let resolved = reparsed.resolve().unwrap();
        assert_eq!(resolved.len(), 2);
        assert_eq!(resolved[0].submit_at_ms, 0);
        assert_eq!(resolved[1].home, HomePolicy::Node(7));
        assert_eq!(resolved[0].workflow, resolved[1].workflow);
        assert_eq!(spec.last_arrival_ms(), 1_800_000);
    }

    #[test]
    fn bare_workflow_documents_wrap_into_single_entry_workloads() {
        let spec = WorkflowSpec::from_workflow("solo", &shapes::diamond(10.0, 100.0, 5.0)).unwrap();
        let wl = WorkloadSpec::from_str(&spec.to_string_pretty()).unwrap();
        assert_eq!(wl.entry_count(), 1);
        assert_eq!(wl.entries[0].workflow, "solo");
        assert_eq!(wl.entries[0].submit_at_ms, 0);
        assert_eq!(wl.entries[0].home, HomePolicy::Auto);
    }

    #[test]
    fn priority_and_anonymous_names_survive_the_round_trip() {
        let mut spec = WorkflowSpec::from_workflow("p", &shapes::chain(2, 50.0, 5.0)).unwrap();
        spec.tasks[0].priority = Some(-3);
        let w = spec.build().unwrap();
        assert_eq!(w.task(TaskId(0)).priority, Some(-3));
        let back = WorkflowSpec::from_workflow("p", &w).unwrap();
        assert_eq!(back, spec);

        // Anonymous tasks get synthesized names on export.
        let mut b = WorkflowBuilder::new();
        let a = b.add_simple_task(10.0, 1.0);
        let c = b.add_simple_task(20.0, 1.0);
        b.add_dependency(a, c, 5.0);
        let anon = b.build().unwrap();
        let exported = WorkflowSpec::from_workflow("anon", &anon).unwrap();
        assert_eq!(exported.tasks[0].name, "t0");
        assert_eq!(exported.tasks[1].name, "t1");
        exported.build().unwrap();
    }

    #[test]
    fn schema_errors_name_the_offending_field() {
        let err =
            WorkloadSpec::from_str("{\"format\":\"p2pgrid-workload/v1\",\"name\":3}").unwrap_err();
        assert!(
            matches!(&err, SpecError::Schema { at, .. } if at == "$.name"),
            "{err}"
        );

        let err = WorkloadSpec::from_str("{\"name\":\"x\"}").unwrap_err();
        assert!(
            matches!(&err, SpecError::Schema { at, .. } if at == "$.format"),
            "{err}"
        );

        let err = WorkloadSpec::from_str("not json").unwrap_err();
        assert!(matches!(err, SpecError::Parse(_)));

        let doc = "{\"format\":\"p2pgrid-workload/v1\",\"name\":\"x\",\"workflows\":[{\"name\":\"w\",\"tasks\":[{\"name\":\"a\",\"load_mi\":1}],\"edges\":[]}],\"entries\":[]}";
        let err = WorkloadSpec::from_str(doc).unwrap_err();
        assert!(
            matches!(&err, SpecError::Schema { at, .. } if at == "$.workflows[0].tasks[0].image_size_mb"),
            "{err}"
        );
    }

    #[test]
    fn validation_rejects_structural_errors() {
        let task = |n: &str| TaskSpec {
            name: n.into(),
            load_mi: 10.0,
            image_size_mb: 1.0,
            priority: None,
        };
        let edge = |f: &str, t: &str| EdgeSpec {
            from: f.into(),
            to: t.into(),
            data_mb: 1.0,
        };

        // Cycle.
        let cyclic = WorkflowSpec {
            name: "c".into(),
            tasks: vec![task("a"), task("b")],
            edges: vec![edge("a", "b"), edge("b", "a")],
        };
        assert!(matches!(
            cyclic.build().unwrap_err(),
            SpecError::Workflow {
                error: WorkflowError::CyclicDependency,
                ..
            }
        ));

        // Unknown task name in an edge.
        let unknown = WorkflowSpec {
            name: "u".into(),
            tasks: vec![task("a")],
            edges: vec![edge("a", "ghost")],
        };
        assert!(matches!(
            unknown.build().unwrap_err(),
            SpecError::UnknownTaskName { task, .. } if task == "ghost"
        ));

        // Duplicate edge.
        let dup = WorkflowSpec {
            name: "d".into(),
            tasks: vec![task("a"), task("b")],
            edges: vec![edge("a", "b"), edge("a", "b")],
        };
        assert!(matches!(
            dup.build().unwrap_err(),
            SpecError::Workflow {
                error: WorkflowError::DuplicateEdge(_, _),
                ..
            }
        ));

        // Duplicate task name.
        let dup_task = WorkflowSpec {
            name: "t".into(),
            tasks: vec![task("a"), task("a")],
            edges: vec![],
        };
        assert!(matches!(
            dup_task.build().unwrap_err(),
            SpecError::DuplicateTaskName { .. }
        ));

        // Workload-level: duplicate workflow names and dangling entry references.
        let wf = WorkflowSpec {
            name: "w".into(),
            tasks: vec![task("a")],
            edges: vec![],
        };
        let dup_wl = WorkloadSpec {
            name: "x".into(),
            workflows: vec![wf.clone(), wf.clone()],
            entries: vec![],
        };
        assert!(matches!(
            dup_wl.resolve().unwrap_err(),
            SpecError::DuplicateWorkflowName(_)
        ));
        let dangling = WorkloadSpec {
            name: "x".into(),
            workflows: vec![wf],
            entries: vec![WorkloadEntry {
                workflow: "nope".into(),
                submit_at_ms: 0,
                home: HomePolicy::Auto,
            }],
        };
        assert!(matches!(
            dangling.resolve().unwrap_err(),
            SpecError::UnknownWorkflowName(_)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Randomly corrupted DAG specs — a back edge closing a cycle, a duplicated edge, or an
        /// edge to a nonexistent task name — are always rejected by import validation, and the
        /// uncorrupted spec always builds.
        #[test]
        fn prop_import_validation_rejects_corrupted_dags(
            n in 3usize..12,
            corruption in 0u8..3,
            pick in 0u64..1_000,
        ) {
            // A chain t0 -> t1 -> ... -> t{n-1}, then one corruption.
            let tasks: Vec<TaskSpec> = (0..n)
                .map(|i| TaskSpec {
                    name: format!("t{i}"),
                    load_mi: 10.0 + i as f64,
                    image_size_mb: 1.0,
                    priority: None,
                })
                .collect();
            let mut edges: Vec<EdgeSpec> = (0..n - 1)
                .map(|i| EdgeSpec {
                    from: format!("t{i}"),
                    to: format!("t{}", i + 1),
                    data_mb: 1.0,
                })
                .collect();
            let clean = WorkflowSpec { name: "prop".into(), tasks, edges: edges.clone() };
            prop_assert!(clean.build().is_ok());

            match corruption {
                0 => {
                    // Close a cycle with a back edge j -> i, i <= j.
                    let i = (pick as usize) % (n - 1);
                    let j = i + 1 + (pick as usize / n) % (n - 1 - i);
                    edges.push(EdgeSpec {
                        from: format!("t{j}"),
                        to: format!("t{i}"),
                        data_mb: 1.0,
                    });
                }
                1 => {
                    // Duplicate an existing edge.
                    let e = edges[(pick as usize) % edges.len()].clone();
                    edges.push(e);
                }
                _ => {
                    // Reference a task name that does not exist.
                    edges.push(EdgeSpec {
                        from: format!("t{}", (pick as usize) % n),
                        to: format!("ghost{pick}"),
                        data_mb: 1.0,
                    });
                }
            }
            let corrupted = WorkflowSpec { name: "prop".into(), tasks: clean.tasks.clone(), edges };
            let err = corrupted.build();
            prop_assert!(err.is_err(), "corruption {corruption} must be rejected");
            match corruption {
                0 => prop_assert!(matches!(
                    err.unwrap_err(),
                    SpecError::Workflow { error: WorkflowError::CyclicDependency, .. }
                        | SpecError::Workflow { error: WorkflowError::SelfDependency(_), .. }
                )),
                1 => prop_assert!(matches!(
                    err.unwrap_err(),
                    SpecError::Workflow { error: WorkflowError::DuplicateEdge(_, _), .. }
                )),
                _ => prop_assert!(matches!(err.unwrap_err(), SpecError::UnknownTaskName { .. })),
            }
        }
    }
}
