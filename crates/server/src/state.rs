//! The master's typed state machine: jobs, run-units, workers.
//!
//! [`MasterState`] is a *pure* state machine — every mutation takes the current time as an
//! explicit `now_ms` argument and no method reads a clock, spawns a thread or touches a
//! socket.  The TCP server drives it with wall time, the in-process loopback transport with a
//! manually advanced counter, which is what makes the whole protocol (including failover and
//! backoff) unit-testable deterministically.
//!
//! Unit lifecycle: `Pending → Assigned → Done`, with `Assigned → Pending` requeues when a
//! worker dies ([`failover`](crate::failover)).  A unit is **never** lost or double-counted:
//! it is in exactly one state; completions for already-done units are idempotent duplicates
//! (the run is deterministic, so any completed execution carries the identical artifact); and
//! requeues are bounded by the [`MasterConfig::retry_budget`].

use crate::protocol::{JobId, JobStatus, WorkerId};
use p2pgrid_experiments::rununit::{
    merge_artifacts, render_result, CampaignError, CampaignSpec, RunUnit, UNIT_FORMAT,
};
use serde::json::{self, Value};

/// The most run-units one job may have.  The job's merged artifact travels back in one
/// `fetch` response, which must fit [`MAX_LINE_BYTES`](crate::tcp::MAX_LINE_BYTES) (16 MiB).
/// Each unit adds about 1.5 kB to that response at Smoke scale and about 3.0 kB over a
/// 36-hour horizon (Reduced and Full), so 16 MiB hold about 5 500 units at most; a larger job
/// could run to the end and still never be fetched.
pub(crate) const MAX_JOB_UNITS: usize = 5_000;

/// How deeply a unit artifact may nest.  The artifact travels three levels down in the
/// `fetch` response (`body` → `units` → its item), and the response must still parse within
/// [`json::MAX_DEPTH`]; a `complete` line holds it only one level down, so a deeper one
/// arrives intact and has to be refused then.
pub(crate) const MAX_ARTIFACT_DEPTH: usize = json::MAX_DEPTH - 3;

/// Tunables of one master instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterConfig {
    /// A worker that has not sent any request for this long is declared dead and its
    /// in-flight units requeue.
    pub heartbeat_timeout_ms: u64,
    /// How many times one unit may be requeued after losing its worker before the whole job
    /// is declared failed (mirrors `RecoveryPolicy::Retry { budget, .. }`).
    pub retry_budget: u32,
    /// Linear backoff step: a unit lost for the `n`-th time becomes assignable again only
    /// `n * backoff_ms` after the loss.
    pub backoff_ms: u64,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            heartbeat_timeout_ms: 10_000,
            retry_budget: 3,
            backoff_ms: 500,
        }
    }
}

/// Where one run-unit currently is.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitState {
    /// Waiting for assignment; not assignable before `eligible_at_ms` (retry backoff).
    Pending {
        /// Earliest time this unit may be assigned.
        eligible_at_ms: u64,
    },
    /// Executing on a live worker.
    Assigned {
        /// The worker holding the unit.
        worker: WorkerId,
    },
    /// An artifact has been stored.
    Done,
}

/// One run-unit plus its scheduling bookkeeping.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// The immutable unit coordinates.
    pub unit: RunUnit,
    /// Current lifecycle state.
    pub state: UnitState,
    /// How many times this unit's execution has been lost (worker death or reported
    /// failure).
    pub attempts: u32,
    /// The unit's artifact, present exactly when `state == Done`.
    pub artifact: Option<Value>,
}

/// Whether a job is still making progress.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Units remain to execute.
    Running,
    /// Every unit is done; the merged artifact can be fetched.
    Complete,
    /// A unit exhausted its retry budget (or execution failed deterministically).
    Failed {
        /// Why the job was abandoned.
        reason: String,
    },
}

/// One submitted campaign.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's identity.
    pub id: JobId,
    /// The campaign spec it decomposed from.
    pub spec: CampaignSpec,
    /// All run-units, in canonical decomposition order (`units[i].unit.index == i`).
    pub units: Vec<UnitRecord>,
    /// Overall job state.
    pub state: JobState,
}

/// One registered worker.
#[derive(Debug, Clone)]
pub struct WorkerRecord {
    /// The worker's identity.
    pub id: WorkerId,
    /// Self-reported host name.
    pub hostname: String,
    /// Last time any request arrived from this worker.
    pub last_seen_ms: u64,
    /// False once declared dead; dead workers must re-register.
    pub alive: bool,
}

/// Outcome of a [`MasterState::pull`].
#[derive(Debug, Clone)]
pub enum PullOutcome {
    /// A unit was assigned.
    Assigned {
        /// The job the unit belongs to.
        job: JobId,
        /// The unit to execute.
        unit: RunUnit,
        /// The job's campaign spec.
        spec: CampaignSpec,
    },
    /// Nothing is assignable right now.
    Idle,
    /// The worker id is unknown or expired.
    Unregistered,
}

/// Outcome of a [`MasterState::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// The artifact was stored.
    Accepted,
    /// The unit was already done; the duplicate is ignored (the artifact is identical by
    /// determinism).
    Duplicate,
    /// No such job or unit.
    Unknown,
    /// The artifact is not this unit's `p2pgrid-campaign-unit/v1` document, or nests too
    /// deep for the merged document and the `fetch` line to parse; nothing was stored.
    Malformed,
}

/// The master's entire mutable state.
#[derive(Debug)]
pub struct MasterState {
    /// Tunables.
    pub config: MasterConfig,
    jobs: Vec<JobRecord>,
    workers: Vec<WorkerRecord>,
}

impl MasterState {
    /// An empty master.
    pub fn new(config: MasterConfig) -> Self {
        MasterState {
            config,
            jobs: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// All ever-registered workers (including dead ones).
    pub fn workers(&self) -> &[WorkerRecord] {
        &self.workers
    }

    /// Number of workers currently considered alive.
    pub fn workers_alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Accept a campaign spec as a new job.
    pub fn submit(&mut self, spec: CampaignSpec) -> Result<(JobId, usize), CampaignError> {
        let units = spec.seeds.len().saturating_mul(spec.algorithms.len());
        if units > MAX_JOB_UNITS {
            return Err(CampaignError::Spec(format!(
                "{units} run-units; a job's merged artifact fits one fetch for at most \
                 {MAX_JOB_UNITS}"
            )));
        }
        spec.validate()?;
        let id = JobId(self.jobs.len() as u64);
        let units: Vec<UnitRecord> = spec
            .units()
            .into_iter()
            .map(|unit| UnitRecord {
                unit,
                state: UnitState::Pending { eligible_at_ms: 0 },
                attempts: 0,
                artifact: None,
            })
            .collect();
        let count = units.len();
        self.jobs.push(JobRecord {
            id,
            spec,
            units,
            state: JobState::Running,
        });
        Ok((id, count))
    }

    /// Register a new worker.
    pub fn register(&mut self, hostname: impl Into<String>, now_ms: u64) -> WorkerId {
        let id = WorkerId(self.workers.len() as u64);
        self.workers.push(WorkerRecord {
            id,
            hostname: hostname.into(),
            last_seen_ms: now_ms,
            alive: true,
        });
        id
    }

    /// Record liveness for a worker; false when unknown or expired (the worker must
    /// re-register).
    pub fn heartbeat(&mut self, worker: WorkerId, now_ms: u64) -> bool {
        match self.workers.get_mut(worker.0 as usize) {
            Some(w) if w.alive => {
                w.last_seen_ms = now_ms;
                true
            }
            _ => false,
        }
    }

    /// Assign the next eligible unit to a worker: jobs in submission order, units in
    /// canonical index order, retry-backoff delays respected.
    pub fn pull(&mut self, worker: WorkerId, now_ms: u64) -> PullOutcome {
        if !self.heartbeat(worker, now_ms) {
            return PullOutcome::Unregistered;
        }
        for job in &mut self.jobs {
            if job.state != JobState::Running {
                continue;
            }
            for record in &mut job.units {
                match record.state {
                    UnitState::Pending { eligible_at_ms } if eligible_at_ms <= now_ms => {
                        record.state = UnitState::Assigned { worker };
                        return PullOutcome::Assigned {
                            job: job.id,
                            unit: record.unit,
                            spec: job.spec.clone(),
                        };
                    }
                    _ => {}
                }
            }
        }
        PullOutcome::Idle
    }

    /// Store a finished unit's artifact.
    ///
    /// Accepted from *any* worker — including one already declared dead whose unit was
    /// requeued: the execution is deterministic, so every completed run of a unit carries
    /// the identical artifact, and accepting the first arrival can only reduce wasted work.
    /// Duplicate completions (unit already `Done`) are ignored.  An artifact that could not
    /// be merged or fetched is refused on arrival, so one bad peer can neither block the
    /// job's merge nor crowd out the honest completion.
    pub fn complete(
        &mut self,
        worker: WorkerId,
        job: JobId,
        unit: usize,
        artifact: Value,
        now_ms: u64,
    ) -> CompleteOutcome {
        self.heartbeat(worker, now_ms);
        let Some(job) = self.jobs.get_mut(job.0 as usize) else {
            return CompleteOutcome::Unknown;
        };
        let Some(record) = job.units.get_mut(unit) else {
            return CompleteOutcome::Unknown;
        };
        if artifact.get("format").and_then(Value::as_str) != Some(UNIT_FORMAT)
            || artifact.get("unit").and_then(Value::as_u64) != Some(unit as u64)
            || artifact.depth() > MAX_ARTIFACT_DEPTH
        {
            return CompleteOutcome::Malformed;
        }
        if record.state == UnitState::Done {
            return CompleteOutcome::Duplicate;
        }
        record.state = UnitState::Done;
        record.artifact = Some(artifact);
        if job.state == JobState::Running && job.units.iter().all(|u| u.state == UnitState::Done) {
            job.state = JobState::Complete;
        }
        CompleteOutcome::Accepted
    }

    /// A worker reported that executing a unit failed; requeue it under the retry budget.
    pub fn fail_unit(
        &mut self,
        worker: WorkerId,
        job: JobId,
        unit: usize,
        reason: &str,
        now_ms: u64,
    ) -> bool {
        self.heartbeat(worker, now_ms);
        if self.jobs.get(job.0 as usize).is_none() {
            return false;
        }
        self.requeue_unit(job.0 as usize, unit, now_ms, reason)
    }

    /// Put a lost unit back in the queue with linear backoff, or fail the whole job once
    /// the unit's retry budget is exhausted.  Returns false for unknown/done units.
    pub(crate) fn requeue_unit(
        &mut self,
        job_idx: usize,
        unit: usize,
        now_ms: u64,
        reason: &str,
    ) -> bool {
        let budget = self.config.retry_budget;
        let backoff = self.config.backoff_ms;
        let Some(job) = self.jobs.get_mut(job_idx) else {
            return false;
        };
        let Some(record) = job.units.get_mut(unit) else {
            return false;
        };
        if record.state == UnitState::Done {
            return false;
        }
        record.attempts += 1;
        if record.attempts > budget {
            if job.state == JobState::Running {
                job.state = JobState::Failed {
                    reason: format!("unit {unit} exceeded its retry budget of {budget} ({reason})"),
                };
            }
            record.state = UnitState::Pending {
                eligible_at_ms: u64::MAX,
            };
        } else {
            record.state = UnitState::Pending {
                eligible_at_ms: now_ms + u64::from(record.attempts) * backoff,
            };
        }
        true
    }

    /// A job's progress snapshot.
    pub fn status(&self, job: JobId) -> Option<JobStatus> {
        let job = self.jobs.get(job.0 as usize)?;
        let mut done = 0;
        let mut in_flight = 0;
        let mut pending = 0;
        for u in &job.units {
            match u.state {
                UnitState::Done => done += 1,
                UnitState::Assigned { .. } => in_flight += 1,
                UnitState::Pending { .. } => pending += 1,
            }
        }
        let (state, reason) = match &job.state {
            JobState::Running => ("running", None),
            JobState::Complete => ("complete", None),
            JobState::Failed { reason } => ("failed", Some(reason.clone())),
        };
        Some(JobStatus {
            job: job.id,
            state: state.to_string(),
            reason,
            total: job.units.len(),
            done,
            in_flight,
            pending,
            workers_alive: self.workers_alive(),
        })
    }

    /// The merged artifact of a completed job.
    pub fn fetch(&self, job: JobId) -> Result<Value, String> {
        let job = self
            .jobs
            .get(job.0 as usize)
            .ok_or_else(|| format!("unknown job {job}"))?;
        match &job.state {
            JobState::Complete => {}
            JobState::Running => return Err(format!("{} is still running", job.id)),
            JobState::Failed { reason } => return Err(format!("{} failed: {reason}", job.id)),
        }
        let artifacts: Vec<Value> = job
            .units
            .iter()
            .map(|u| u.artifact.clone().expect("done unit has an artifact"))
            .collect();
        merge_artifacts(&job.spec, &artifacts).map_err(|e| format!("merge failed: {e}"))
    }

    /// The merged artifact rendered the way it lands on disk (pretty + trailing newline).
    pub fn fetch_rendered(&self, job: JobId) -> Result<String, String> {
        self.fetch(job).map(|v| render_result(&v))
    }

    /// Check the structural invariants the proptest suite relies on; panics on violation.
    ///
    /// Cheap (linear in units), so tests call it after every operation.
    pub fn assert_invariants(&self) {
        for (i, job) in self.jobs.iter().enumerate() {
            assert_eq!(job.id.0 as usize, i, "job ids are dense submission indices");
            for (u, record) in job.units.iter().enumerate() {
                assert_eq!(record.unit.index, u, "units stay in canonical order");
                assert_eq!(
                    record.artifact.is_some(),
                    record.state == UnitState::Done,
                    "artifact present iff done"
                );
                assert!(
                    record.attempts <= self.config.retry_budget + 1,
                    "attempts stay bounded by the retry budget"
                );
                if let UnitState::Assigned { worker } = record.state {
                    let w = &self.workers[worker.0 as usize];
                    assert!(w.alive, "units are only assigned to live workers");
                }
            }
            if job.state == JobState::Complete {
                assert!(
                    job.units.iter().all(|u| u.state == UnitState::Done),
                    "complete jobs have every unit done"
                );
            }
        }
    }

    pub(crate) fn workers_mut(&mut self) -> &mut Vec<WorkerRecord> {
        &mut self.workers
    }
}
