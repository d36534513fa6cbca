//! The single request dispatcher shared by every transport.
//!
//! [`handle`] maps one [`Request`] onto the [`MasterState`] methods and produces the
//! [`Response`] that goes back on the wire.  Both the TCP server and the in-process loopback
//! transport funnel through this function, so protocol behaviour cannot diverge between the
//! tested (loopback) and deployed (TCP) paths.

use crate::protocol::{Request, Response};
use crate::state::{CompleteOutcome, MasterState, PullOutcome, MAX_ARTIFACT_DEPTH};
use p2pgrid_experiments::rununit::UNIT_FORMAT;

/// Dispatch one request against the master state at the given time.
pub fn handle(state: &mut MasterState, request: Request, now_ms: u64) -> Response {
    match request {
        Request::Register { hostname } => {
            let worker = state.register(hostname, now_ms);
            Response::Registered {
                worker,
                heartbeat_ms: state.config.heartbeat_timeout_ms,
            }
        }
        Request::Heartbeat { worker } => {
            if state.heartbeat(worker, now_ms) {
                Response::Ok
            } else {
                Response::Unregistered
            }
        }
        Request::Pull { worker } => match state.pull(worker, now_ms) {
            PullOutcome::Assigned { job, unit, spec } => Response::Assignment { job, unit, spec },
            PullOutcome::Idle => Response::Idle,
            PullOutcome::Unregistered => Response::Unregistered,
        },
        Request::Complete {
            worker,
            job,
            unit,
            artifact,
        } => match state.complete(worker, job, unit, artifact, now_ms) {
            CompleteOutcome::Accepted | CompleteOutcome::Duplicate => Response::Ok,
            CompleteOutcome::Unknown => Response::Error {
                message: format!("unknown unit {unit} of {job}"),
            },
            CompleteOutcome::Malformed => Response::Error {
                message: format!(
                    "the artifact is not unit {unit}'s {UNIT_FORMAT} document of at most \
                     {MAX_ARTIFACT_DEPTH} levels"
                ),
            },
        },
        Request::FailUnit {
            worker,
            job,
            unit,
            reason,
        } => {
            if state.fail_unit(worker, job, unit, &reason, now_ms) {
                Response::Ok
            } else {
                Response::Error {
                    message: format!("unknown or finished unit {unit} of {job}"),
                }
            }
        }
        Request::Submit { spec } => match state.submit(spec) {
            Ok((job, units)) => Response::Accepted { job, units },
            Err(e) => Response::Error {
                message: format!("rejected spec: {e}"),
            },
        },
        Request::Status { job } => match state.status(job) {
            Some(status) => Response::Status(status),
            None => Response::Error {
                message: format!("unknown job {job}"),
            },
        },
        Request::Fetch { job } => match state.fetch(job) {
            Ok(body) => Response::Artifact { job, body },
            Err(message) => Response::Error { message },
        },
        Request::Shutdown => Response::ShuttingDown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{MasterConfig, MAX_JOB_UNITS};
    use p2pgrid_core::Algorithm;
    use p2pgrid_experiments::{CampaignSpec, ExperimentScale};

    /// A Smoke campaign over every algorithm and `seeds` seeds.
    fn campaign(seeds: usize) -> CampaignSpec {
        CampaignSpec {
            name: "wide".into(),
            scale: ExperimentScale::Smoke,
            seeds: (0..seeds as u64).collect(),
            algorithms: Algorithm::ALL.to_vec(),
            workload: None,
        }
    }

    fn submit(state: &mut MasterState, spec: CampaignSpec) -> Response {
        handle(state, Request::Submit { spec }, 0)
    }

    #[test]
    fn submit_rejects_a_campaign_whose_artifact_could_not_be_fetched() {
        let mut state = MasterState::new(MasterConfig::default());
        let per_seed = Algorithm::ALL.len();
        match submit(&mut state, campaign(MAX_JOB_UNITS / per_seed + 1)) {
            Response::Error { message } => assert!(
                message.contains(&MAX_JOB_UNITS.to_string()),
                "the rejection names the limit: {message}"
            ),
            other => panic!("an oversized campaign was not rejected: {other:?}"),
        }
        assert!(state.jobs().is_empty());

        // The largest deliverable campaign, and the repo's own, are accepted.
        let largest = submit(&mut state, campaign(MAX_JOB_UNITS / per_seed));
        assert!(
            matches!(largest, Response::Accepted { units, .. } if units == MAX_JOB_UNITS),
            "{largest:?}"
        );
        let smoke: CampaignSpec = include_str!("../../../campaigns/smoke.json")
            .parse()
            .unwrap();
        assert!(matches!(
            submit(&mut state, smoke),
            Response::Accepted { units: 6, .. }
        ));
    }
}
