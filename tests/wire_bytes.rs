//! The exact bytes of every document the repo both writes and reads.
//!
//! One instance of each of the campaign server's wire messages is pinned to its compact
//! line; each checked-in workload re-encodes to its own file; and the hand-formatted smoke
//! campaign decodes to the spec it names.  Any change to how a value maps to JSON shows up
//! here first.

use p2pgrid::experiments::rununit::RunUnit;
use p2pgrid::prelude::*;
use p2pgrid::server::protocol::JobStatus;
use p2pgrid::server::{JobId, Request, Response, WorkerId};
use p2pgrid::workflow::spec::{EdgeSpec, TaskSpec};
use serde::json::{self, Value};
use std::str::FromStr;

/// A two-task workload with a priority, an edge, a pinned home and a late arrival.
fn small_workload() -> WorkloadSpec {
    WorkloadSpec {
        name: "w".into(),
        workflows: vec![WorkflowSpec {
            name: "d".into(),
            tasks: vec![
                TaskSpec {
                    name: "a".into(),
                    load_mi: 100.0,
                    image_size_mb: 2.5,
                    priority: Some(-3),
                },
                TaskSpec {
                    name: "b".into(),
                    load_mi: 250.0,
                    image_size_mb: 1.0,
                    priority: None,
                },
            ],
            edges: vec![EdgeSpec {
                from: "a".into(),
                to: "b".into(),
                data_mb: 12.5,
            }],
        }],
        entries: vec![
            WorkloadEntry {
                workflow: "d".into(),
                submit_at_ms: 0,
                home: HomePolicy::Auto,
            },
            WorkloadEntry {
                workflow: "d".into(),
                submit_at_ms: 1_500,
                home: HomePolicy::Node(2),
            },
        ],
    }
}

fn spec() -> CampaignSpec {
    CampaignSpec {
        name: "pin".into(),
        scale: ExperimentScale::Smoke,
        seeds: vec![5, 6],
        algorithms: vec![Algorithm::Dsmf, Algorithm::MinMin],
        workload: Some(small_workload()),
    }
}

const SPEC: &str = r#"{"format":"p2pgrid-campaign/v1","name":"pin","scale":"smoke","seeds":[5,6],"algorithms":["DSMF","min-min"],"workload":{"format":"p2pgrid-workload/v1","name":"w","workflows":[{"name":"d","tasks":[{"name":"a","load_mi":100,"image_size_mb":2.5,"priority":-3},{"name":"b","load_mi":250,"image_size_mb":1}],"edges":[["a","b",12.5]]}],"entries":[{"workflow":"d","submit_at_ms":0,"home":"auto"},{"workflow":"d","submit_at_ms":1500,"home":2}]}}"#;

fn artifact() -> Value {
    json::parse(r#"{"format":"p2pgrid-campaign-unit/v1","unit":2,"x":[1.5,null,true,"é\n"]}"#)
        .unwrap()
}

fn status(reason: Option<&str>) -> JobStatus {
    JobStatus {
        job: JobId(4),
        state: if reason.is_some() {
            "failed"
        } else {
            "running"
        }
        .into(),
        reason: reason.map(str::to_string),
        total: 6,
        done: 2,
        in_flight: 1,
        pending: 3,
        workers_alive: 2,
    }
}

#[test]
fn every_request_encodes_to_its_pinned_line_and_back() {
    let pins = [
        (
            Request::Register {
                hostname: "h\"x".into(),
            },
            r#"{"type":"register","hostname":"h\"x"}"#.to_string(),
        ),
        (
            Request::Heartbeat {
                worker: WorkerId(3),
            },
            r#"{"type":"heartbeat","worker":3}"#.to_string(),
        ),
        (
            Request::Pull {
                worker: WorkerId(3),
            },
            r#"{"type":"pull","worker":3}"#.to_string(),
        ),
        (
            Request::Complete {
                worker: WorkerId(3),
                job: JobId(1),
                unit: 2,
                artifact: artifact(),
            },
            r#"{"type":"complete","worker":3,"job":1,"unit":2,"artifact":{"format":"p2pgrid-campaign-unit/v1","unit":2,"x":[1.5,null,true,"é\n"]}}"#.to_string(),
        ),
        (
            Request::FailUnit {
                worker: WorkerId(3),
                job: JobId(1),
                unit: 2,
                reason: "boom".into(),
            },
            r#"{"type":"fail_unit","worker":3,"job":1,"unit":2,"reason":"boom"}"#.to_string(),
        ),
        (
            Request::Submit { spec: spec() },
            format!(r#"{{"type":"submit","spec":{SPEC}}}"#),
        ),
        (
            Request::Status { job: JobId(0) },
            r#"{"type":"status","job":0}"#.to_string(),
        ),
        (
            Request::Fetch { job: JobId(0) },
            r#"{"type":"fetch","job":0}"#.to_string(),
        ),
        (Request::Shutdown, r#"{"type":"shutdown"}"#.to_string()),
    ];
    for (request, line) in pins {
        assert_eq!(request.to_json().to_wire_string().unwrap(), line);
        assert_eq!(
            Request::from_json(&json::parse(&line).unwrap()).unwrap(),
            request
        );
    }
}

#[test]
fn every_response_encodes_to_its_pinned_line_and_back() {
    let pins = [
        (
            Response::Registered {
                worker: WorkerId(1),
                heartbeat_ms: 5000,
            },
            r#"{"type":"registered","worker":1,"heartbeat_ms":5000}"#.to_string(),
        ),
        (Response::Ok, r#"{"type":"ok"}"#.to_string()),
        (
            Response::Assignment {
                job: JobId(0),
                unit: RunUnit {
                    index: 1,
                    seed: 9,
                    algorithm: Algorithm::MinMin,
                },
                spec: spec(),
            },
            format!(
                r#"{{"type":"assignment","job":0,"unit":{{"index":1,"seed":9,"algorithm":"min-min"}},"spec":{SPEC}}}"#
            ),
        ),
        (Response::Idle, r#"{"type":"idle"}"#.to_string()),
        (Response::Unregistered, r#"{"type":"unregistered"}"#.to_string()),
        (
            Response::Accepted {
                job: JobId(4),
                units: 6,
            },
            r#"{"type":"accepted","job":4,"units":6}"#.to_string(),
        ),
        (
            Response::Status(status(None)),
            r#"{"type":"status","job":4,"state":"running","total":6,"done":2,"in_flight":1,"pending":3,"workers_alive":2}"#.to_string(),
        ),
        (
            Response::Status(status(Some("retry budget exhausted"))),
            r#"{"type":"status","job":4,"state":"failed","total":6,"done":2,"in_flight":1,"pending":3,"workers_alive":2,"reason":"retry budget exhausted"}"#.to_string(),
        ),
        (
            Response::Artifact {
                job: JobId(4),
                body: artifact(),
            },
            r#"{"type":"artifact","job":4,"body":{"format":"p2pgrid-campaign-unit/v1","unit":2,"x":[1.5,null,true,"é\n"]}}"#.to_string(),
        ),
        (
            Response::ShuttingDown,
            r#"{"type":"shutting_down"}"#.to_string(),
        ),
        (
            Response::Error {
                message: "nope".into(),
            },
            r#"{"type":"error","message":"nope"}"#.to_string(),
        ),
    ];
    for (response, line) in pins {
        assert_eq!(response.to_json().to_wire_string().unwrap(), line);
        assert_eq!(
            Response::from_json(&json::parse(&line).unwrap()).unwrap(),
            response
        );
    }
}

#[test]
fn checked_in_workloads_re_encode_to_their_own_bytes() {
    for name in ["montage", "cybershake", "epigenomics"] {
        let path = format!("{}/workloads/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = WorkloadSpec::from_str(&text).unwrap();
        assert_eq!(spec.to_string_pretty(), text, "{path}");
    }
}

#[test]
fn the_hand_formatted_smoke_campaign_decodes_to_its_spec() {
    let spec: CampaignSpec = include_str!("../campaigns/smoke.json").parse().unwrap();
    assert_eq!(
        spec,
        CampaignSpec {
            name: "smoke".into(),
            scale: ExperimentScale::Smoke,
            seeds: vec![11, 12],
            algorithms: vec![Algorithm::Dsmf, Algorithm::Dheft, Algorithm::MinMin],
            workload: None,
        }
    );
}
