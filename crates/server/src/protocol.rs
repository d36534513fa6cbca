//! Wire protocol: typed requests/responses encoded as newline-delimited JSON.
//!
//! Every message is one compact JSON object per line with a `type` discriminator, written
//! with the wire-strict serializer (`Value::to_wire_string`) so non-finite numbers can never
//! corrupt a stream.  The two `json_codec!` tables at the end of this module are the whole
//! codec: each message names its fields once, and the JSON shim's `Codec` generates both
//! directions.  A message that does not fit decodes to a `SchemaError` carrying the JSON
//! path of the offending value (`$.spec.seeds[0]`).  The same encoding is used verbatim by
//! the TCP transport and the in-process loopback transport — the loopback serializes and
//! re-parses every message, so protocol bugs surface in deterministic unit tests long before
//! a socket is involved.

use p2pgrid_experiments::rununit::{CampaignSpec, RunUnit};
use serde::json::{Codec, SchemaError, Value};
use std::fmt;

/// Identifier of one submitted campaign job (dense, master-assigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A job id is its number.
impl Codec for JobId {
    fn encode(&self) -> Value {
        self.0.encode()
    }

    fn decode(v: &Value) -> Result<Self, SchemaError> {
        u64::decode(v).map(JobId)
    }
}

/// Identifier of one registered worker (dense, master-assigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker-{}", self.0)
    }
}

/// A worker id is its number.
impl Codec for WorkerId {
    fn encode(&self) -> Value {
        self.0.encode()
    }

    fn decode(v: &Value) -> Result<Self, SchemaError> {
        u64::decode(v).map(WorkerId)
    }
}

/// A message a client or worker sends to the master.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A worker announces itself and asks for an identity.
    Register {
        /// Self-reported host name, for status displays only.
        hostname: String,
    },
    /// A worker proves liveness without asking for work.
    Heartbeat {
        /// The registered worker.
        worker: WorkerId,
    },
    /// A worker asks for its next run-unit.
    Pull {
        /// The registered worker.
        worker: WorkerId,
    },
    /// A worker returns the artifact of a finished run-unit.
    Complete {
        /// The registered worker.
        worker: WorkerId,
        /// The job the unit belongs to.
        job: JobId,
        /// The unit's index within the job.
        unit: usize,
        /// The unit's `p2pgrid-campaign-unit/v1` artifact document.
        artifact: Value,
    },
    /// A worker reports that executing a run-unit failed.
    FailUnit {
        /// The registered worker.
        worker: WorkerId,
        /// The job the unit belongs to.
        job: JobId,
        /// The unit's index within the job.
        unit: usize,
        /// Why execution failed.
        reason: String,
    },
    /// A client submits a campaign spec as a new job.
    Submit {
        /// The campaign to decompose and execute.
        spec: CampaignSpec,
    },
    /// A client asks for a job's progress.
    Status {
        /// The job to describe.
        job: JobId,
    },
    /// A client asks for a completed job's merged artifact.
    Fetch {
        /// The job to fetch.
        job: JobId,
    },
    /// A client asks the master process to stop serving.
    Shutdown,
}

/// Progress snapshot of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job described.
    pub job: JobId,
    /// `"running"`, `"complete"` or `"failed"`.
    pub state: String,
    /// Failure reason, when `state == "failed"`.
    pub reason: Option<String>,
    /// Total run-units in the job.
    pub total: usize,
    /// Units with an artifact.
    pub done: usize,
    /// Units currently assigned to live workers.
    pub in_flight: usize,
    /// Units waiting for assignment (including backoff delays).
    pub pending: usize,
    /// Workers currently considered alive by the master.
    pub workers_alive: usize,
}

impl JobStatus {
    /// One-line human rendering for polling clients.
    pub fn render(&self) -> String {
        format!(
            "{}: {} — {}/{} done, {} in flight, {} pending, {} workers alive{}",
            self.job,
            self.state,
            self.done,
            self.total,
            self.in_flight,
            self.pending,
            self.workers_alive,
            self.reason
                .as_deref()
                .map(|r| format!(" ({r})"))
                .unwrap_or_default()
        )
    }
}

/// The master's reply to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Registration succeeded.
    Registered {
        /// The identity assigned to the worker.
        worker: WorkerId,
        /// The heartbeat timeout the master enforces; workers should report in well within
        /// this interval.
        heartbeat_ms: u64,
    },
    /// Acknowledgement with no payload.
    Ok,
    /// A run-unit assignment.
    Assignment {
        /// The job the unit belongs to.
        job: JobId,
        /// The unit to execute.
        unit: RunUnit,
        /// The campaign spec (workers cache one `UnitRunner` per job from it).
        spec: CampaignSpec,
    },
    /// No unit is currently assignable; ask again later.
    Idle,
    /// The sender's worker id is unknown or expired; it must register again.
    Unregistered,
    /// A submitted job was accepted.
    Accepted {
        /// The new job's identity.
        job: JobId,
        /// Number of run-units the campaign decomposed into.
        units: usize,
    },
    /// A job progress snapshot.
    Status(JobStatus),
    /// A completed job's merged artifact.
    Artifact {
        /// The job fetched.
        job: JobId,
        /// The merged `p2pgrid-campaign-result/v1` document.
        body: Value,
    },
    /// The master acknowledges a shutdown request and will stop serving.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Request {
    /// Encode as a wire object.
    pub fn to_json(&self) -> Value {
        self.encode()
    }

    /// Decode from a wire object.
    pub fn from_json(v: &Value) -> Result<Request, SchemaError> {
        Self::decode(v)
    }
}

impl Response {
    /// Encode as a wire object.
    pub fn to_json(&self) -> Value {
        self.encode()
    }

    /// Decode from a wire object.
    pub fn from_json(v: &Value) -> Result<Response, SchemaError> {
        Self::decode(v)
    }
}

serde::json_codec! {
    Request by "type" {
        "register" => Register { hostname },
        "heartbeat" => Heartbeat { worker },
        "pull" => Pull { worker },
        "complete" => Complete { worker, job, unit, artifact },
        "fail_unit" => FailUnit { worker, job, unit, reason },
        "submit" => Submit { spec },
        "status" => Status { job },
        "fetch" => Fetch { job },
        "shutdown" => Shutdown,
    }
}

serde::json_codec! {
    Response by "type" {
        "registered" => Registered { worker, heartbeat_ms },
        "ok" => Ok,
        "assignment" => Assignment { job, unit, spec },
        "idle" => Idle,
        "unregistered" => Unregistered,
        "accepted" => Accepted { job, units },
        "status" => Status(JobStatus),
        "artifact" => Artifact { job, body },
        "shutting_down" => ShuttingDown,
        "error" => Error { message },
    }
}

// A status message carries the snapshot's fields after its tag, `reason` last and only
// when set.
serde::json_codec! {
    JobStatus { job, state, total, done, in_flight, pending, workers_alive, reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pgrid_core::Algorithm;
    use p2pgrid_experiments::ExperimentScale;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            scale: ExperimentScale::Smoke,
            seeds: vec![1],
            algorithms: vec![Algorithm::Dsmf],
            workload: None,
        }
    }

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let reqs = [
            Request::Register {
                hostname: "h\"x".into(),
            },
            Request::Heartbeat {
                worker: WorkerId(3),
            },
            Request::Pull {
                worker: WorkerId(3),
            },
            Request::Complete {
                worker: WorkerId(3),
                job: JobId(1),
                unit: 2,
                artifact: Value::object([("format", Value::from("x"))]),
            },
            Request::FailUnit {
                worker: WorkerId(3),
                job: JobId(1),
                unit: 2,
                reason: "boom".into(),
            },
            Request::Submit { spec: spec() },
            Request::Status { job: JobId(0) },
            Request::Fetch { job: JobId(0) },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_json().to_wire_string().unwrap();
            let back = Request::from_json(&serde::json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_encoding() {
        let resps = [
            Response::Registered {
                worker: WorkerId(1),
                heartbeat_ms: 5000,
            },
            Response::Ok,
            Response::Assignment {
                job: JobId(0),
                unit: RunUnit {
                    index: 1,
                    seed: 9,
                    algorithm: Algorithm::MinMin,
                },
                spec: spec(),
            },
            Response::Idle,
            Response::Unregistered,
            Response::Accepted {
                job: JobId(4),
                units: 6,
            },
            Response::Status(JobStatus {
                job: JobId(4),
                state: "failed".into(),
                reason: Some("retry budget exhausted".into()),
                total: 6,
                done: 2,
                in_flight: 1,
                pending: 3,
                workers_alive: 2,
            }),
            Response::Artifact {
                job: JobId(4),
                body: Value::Null,
            },
            Response::ShuttingDown,
            Response::Error {
                message: "nope".into(),
            },
        ];
        for resp in resps {
            let line = resp.to_json().to_wire_string().unwrap();
            let back = Response::from_json(&serde::json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        let bad = [
            "{\"type\":\"nope\"}",
            "{\"hostname\":\"h\"}",
            "{\"type\":\"pull\"}",
            "{\"type\":\"complete\",\"worker\":1,\"job\":0,\"unit\":2}",
        ];
        for text in bad {
            let v = serde::json::parse(text).unwrap();
            assert!(Request::from_json(&v).is_err(), "{text}");
        }
    }

    #[test]
    fn decode_errors_name_the_offending_value() {
        let at = |text: &str| {
            Request::from_json(&serde::json::parse(text).unwrap())
                .unwrap_err()
                .at
        };
        assert_eq!(at("{\"type\":\"nope\"}"), "$.type");
        assert_eq!(at("{\"type\":\"pull\",\"worker\":-1}"), "$.worker");
        assert_eq!(
            at("{\"type\":\"complete\",\"worker\":1,\"job\":0,\"unit\":2}"),
            "$.artifact"
        );
        let mut submit = Request::Submit { spec: spec() }.to_json().to_string();
        submit = submit.replace("\"seeds\":[1]", "\"seeds\":[-1]");
        let err = Request::from_json(&serde::json::parse(&submit).unwrap()).unwrap_err();
        assert_eq!(err.at, "$.spec.seeds[0]");
        assert_eq!(
            err.to_string(),
            "at `$.spec.seeds[0]`: expected an integer of type u64, got -1"
        );
    }
}
