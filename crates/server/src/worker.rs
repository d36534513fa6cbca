//! The worker side: register, pull run-units, execute, stream artifacts back.
//!
//! [`Worker`] is generic over [`Transport`], so the same execution loop runs against the
//! in-process loopback master in tests and a real TCP master in production.  Execution goes
//! through [`UnitRunner`], which derives every seed's world from one shared base scenario
//! per campaign — a worker executing many units of the same job pays for a single topology
//! build.  A worker keeps the runner of the job it ran last only, so what it holds does not
//! grow with the number of jobs it has served.

use crate::protocol::{JobId, Request, Response, WorkerId};
use crate::transport::{Transport, TransportError};
use p2pgrid_experiments::rununit::{CampaignError, CampaignSpec, RunUnit, UnitRunner};

/// What one [`Worker::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Pulled and executed one unit (successfully or not — either way it was reported).
    Executed {
        /// The job the unit belonged to.
        job: JobId,
        /// The unit's index within the job.
        unit: usize,
    },
    /// The master had nothing assignable.
    Idle,
    /// The master is shutting down or rejected us permanently.
    Stopped,
}

/// A campaign worker bound to one master connection.
pub struct Worker<T: Transport> {
    transport: T,
    hostname: String,
    id: Option<WorkerId>,
    /// The runner of the job whose unit ran last, so consecutive units of one campaign
    /// share a base world.
    runner: Option<(JobId, UnitRunner)>,
    /// Fault-injection hook: execute this many units, then return an error from `step` as if
    /// the process died.
    die_after: Option<usize>,
    executed: usize,
}

impl<T: Transport> Worker<T> {
    /// A new worker that will register itself on first use.
    pub fn new(transport: T, hostname: impl Into<String>) -> Self {
        Worker {
            transport,
            hostname: hostname.into(),
            id: None,
            runner: None,
            die_after: None,
            executed: 0,
        }
    }

    /// Kill this worker after it has executed `n` units (test/fault-injection hook, also
    /// exposed as `p2pgrid-worker --die-after`).
    pub fn die_after(mut self, n: usize) -> Self {
        self.die_after = Some(n);
        self
    }

    /// This worker's id, once registered.
    pub fn id(&self) -> Option<WorkerId> {
        self.id
    }

    /// Access the underlying transport (to inject faults in tests).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    fn ensure_registered(&mut self) -> Result<WorkerId, TransportError> {
        if let Some(id) = self.id {
            return Ok(id);
        }
        let response = self.transport.call(&Request::Register {
            hostname: self.hostname.clone(),
        })?;
        match response {
            Response::Registered { worker, .. } => {
                self.id = Some(worker);
                Ok(worker)
            }
            other => Err(TransportError::Protocol(format!(
                "unexpected response to register: {other:?}"
            ))),
        }
    }

    /// Send one heartbeat (the TCP binary runs this on a dedicated thread).
    pub fn heartbeat(&mut self) -> Result<(), TransportError> {
        let worker = self.ensure_registered()?;
        match self.transport.call(&Request::Heartbeat { worker })? {
            Response::Ok => Ok(()),
            Response::Unregistered => {
                self.id = None;
                Ok(())
            }
            other => Err(TransportError::Protocol(format!(
                "unexpected response to heartbeat: {other:?}"
            ))),
        }
    }

    /// Pull one assignment from the master and execute it.
    pub fn step(&mut self) -> Result<Step, TransportError> {
        let worker = self.ensure_registered()?;
        let response = self.transport.call(&Request::Pull { worker })?;
        match response {
            Response::Assignment { job, unit, spec } => {
                if self.die_after == Some(self.executed) {
                    // Simulated crash: the unit has been pulled but will never be reported,
                    // exactly the window failover has to cover.
                    return Err(TransportError::Disconnected(format!(
                        "{} died after {} units",
                        self.hostname, self.executed
                    )));
                }
                self.execute(worker, job, unit, spec)?;
                self.executed += 1;
                Ok(Step::Executed {
                    job,
                    unit: unit.index,
                })
            }
            Response::Idle => Ok(Step::Idle),
            Response::Unregistered => {
                // Expired (e.g. after a long pause): drop the stale id and re-register on
                // the next step.
                self.id = None;
                Ok(Step::Idle)
            }
            Response::ShuttingDown => Ok(Step::Stopped),
            other => Err(TransportError::Protocol(format!(
                "unexpected response to pull: {other:?}"
            ))),
        }
    }

    /// The runner of `job`, built in place of the previous job's unless it is the current one.
    fn runner_for(
        &mut self,
        job: JobId,
        spec: CampaignSpec,
    ) -> Result<&mut UnitRunner, CampaignError> {
        if self.runner.as_ref().map(|&(current, _)| current) != Some(job) {
            // Free the previous job's worlds before building this one's.
            self.runner = None;
            self.runner = Some((job, UnitRunner::new(spec)?));
        }
        Ok(&mut self.runner.as_mut().expect("the runner was just set").1)
    }

    fn execute(
        &mut self,
        worker: WorkerId,
        job: JobId,
        unit: RunUnit,
        spec: CampaignSpec,
    ) -> Result<(), TransportError> {
        let report = self
            .runner_for(job, spec)
            .and_then(|runner| runner.run(&unit));
        let request = match report {
            Ok(artifact) => Request::Complete {
                worker,
                job,
                unit: unit.index,
                artifact,
            },
            Err(err) => Request::FailUnit {
                worker,
                job,
                unit: unit.index,
                reason: err.to_string(),
            },
        };
        match self.transport.call(&request)? {
            Response::Ok => Ok(()),
            Response::Error { message } => Err(TransportError::Protocol(message)),
            other => Err(TransportError::Protocol(format!(
                "unexpected response to completion: {other:?}"
            ))),
        }
    }

    /// Pull-execute until the master shuts down, calling `on_idle` between empty pulls
    /// (return false from it to stop).
    pub fn run(&mut self, mut on_idle: impl FnMut() -> bool) -> Result<(), TransportError> {
        loop {
            match self.step()? {
                Step::Executed { .. } => {}
                Step::Idle => {
                    if !on_idle() {
                        return Ok(());
                    }
                }
                Step::Stopped => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MasterConfig;
    use crate::transport::LoopbackMaster;
    use crate::Client;
    use p2pgrid_core::Algorithm;
    use p2pgrid_experiments::ExperimentScale;

    #[test]
    fn a_worker_keeps_only_the_runner_of_its_last_job() {
        let master = LoopbackMaster::new(MasterConfig::default());
        let mut client = Client::new(master.transport());
        let spec = |seed| CampaignSpec {
            name: format!("seed {seed}"),
            scale: ExperimentScale::Smoke,
            seeds: vec![seed],
            algorithms: vec![Algorithm::Dsmf],
            workload: None,
        };
        let (first, _) = client.submit(&spec(7)).unwrap();
        let (second, _) = client.submit(&spec(9)).unwrap();
        let mut worker = Worker::new(master.transport(), "w");
        for job in [first, second] {
            assert_eq!(worker.step().unwrap(), Step::Executed { job, unit: 0 });
            assert_eq!(worker.runner.as_ref().map(|&(held, _)| held), Some(job));
        }
        assert_eq!(worker.step().unwrap(), Step::Idle);
    }
}
