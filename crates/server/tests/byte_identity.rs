//! The campaign server's headline guarantee: the merged artifact a client fetches from the
//! distributed service is **byte-identical** to a local in-process run of the same spec —
//! for any worker count, any completion interleaving, and even with a worker killed
//! mid-campaign.

use p2pgrid_core::Algorithm;
use p2pgrid_experiments::rununit::{render_result, run_local};
use p2pgrid_experiments::{CampaignSpec, ExperimentScale};
use p2pgrid_server::{
    Client, JobId, LoopbackMaster, LoopbackTransport, MasterConfig, Step, Worker,
};

fn smoke_spec() -> CampaignSpec {
    CampaignSpec {
        name: "byte-identity".to_string(),
        scale: ExperimentScale::Smoke,
        seeds: vec![11, 12],
        algorithms: vec![Algorithm::Dsmf, Algorithm::MinMin],
        workload: None,
    }
}

fn test_config() -> MasterConfig {
    MasterConfig {
        heartbeat_timeout_ms: 1_000,
        retry_budget: 3,
        backoff_ms: 100,
    }
}

/// Round-robin the workers until the job completes, advancing the manual clock whenever a
/// whole round makes no progress (idle pulls or dead workers) so heartbeat expiry and retry
/// backoff can fire.  Returns the fetched artifact rendered exactly as `run_local` renders.
fn drive_to_completion(
    master: &LoopbackMaster,
    mut workers: Vec<Worker<LoopbackTransport>>,
    job: JobId,
) -> String {
    let mut client = Client::new(master.transport());
    for _ in 0..10_000 {
        let status = client.status(job).expect("status poll");
        assert_ne!(status.state, "failed", "job must not fail: {status:?}");
        if status.state == "complete" {
            let body = client.fetch(job).expect("fetch merged artifact");
            return render_result(&body);
        }
        let mut progressed = false;
        workers.retain_mut(|w| match w.step() {
            Ok(Step::Executed { .. }) => {
                progressed = true;
                true
            }
            Ok(_) => true,
            // A dead transport means this worker crashed; the master finds out via
            // heartbeat expiry as the clock advances below.
            Err(_) => false,
        });
        if !progressed {
            master.advance_ms(600);
        }
    }
    panic!("job {job} did not complete");
}

fn run_distributed(worker_count: usize, die_after: Option<usize>) -> String {
    let master = LoopbackMaster::new(test_config());
    let mut client = Client::new(master.transport());
    let spec = smoke_spec();
    let (job, units) = client.submit(&spec).expect("submit");
    assert_eq!(units, 4);
    let mut workers: Vec<Worker<LoopbackTransport>> = (0..worker_count)
        .map(|i| Worker::new(master.transport(), format!("w{i}")))
        .collect();
    if let Some(n) = die_after {
        // The *first* worker is rigged to die after n units, while holding an assignment.
        workers[0] = Worker::new(master.transport(), "w0-doomed").die_after(n);
    }
    let rendered = drive_to_completion(&master, workers, job);
    master.with_state(|s| s.assert_invariants());
    rendered
}

#[test]
fn one_worker_matches_local_run() {
    let local = run_local(&smoke_spec()).expect("local run");
    assert_eq!(run_distributed(1, None), local);
}

#[test]
fn worker_counts_two_and_four_are_byte_identical_to_local() {
    let local = run_local(&smoke_spec()).expect("local run");
    assert_eq!(run_distributed(2, None), local, "2 workers");
    assert_eq!(run_distributed(4, None), local, "4 workers");
}

#[test]
fn killed_worker_mid_campaign_still_yields_identical_bytes() {
    let local = run_local(&smoke_spec()).expect("local run");
    // The doomed worker executes one unit, then dies while holding its second assignment;
    // the survivor picks up the requeued unit after expiry.
    assert_eq!(run_distributed(2, Some(1)), local, "kill after 1 unit");
    // Die immediately on the very first assignment.
    assert_eq!(run_distributed(2, Some(0)), local, "kill on first pull");
}

#[test]
fn submitting_twice_yields_two_independent_identical_jobs() {
    let master = LoopbackMaster::new(test_config());
    let mut client = Client::new(master.transport());
    let spec = smoke_spec();
    let (job_a, _) = client.submit(&spec).expect("submit a");
    let (job_b, _) = client.submit(&spec).expect("submit b");
    assert_ne!(job_a, job_b);
    let workers = vec![
        Worker::new(master.transport(), "w0"),
        Worker::new(master.transport(), "w1"),
    ];
    // Driving to completion of the *second* job finishes the first too (jobs are served in
    // submission order), so poll A afterwards.
    let rendered_b = drive_to_completion(&master, workers, job_b);
    let body_a = Client::new(master.transport())
        .fetch(job_a)
        .expect("fetch a");
    assert_eq!(render_result(&body_a), rendered_b);
    assert_eq!(rendered_b, run_local(&spec).expect("local run"));
}

#[test]
fn seeds_around_2_pow_53_are_served_as_run_locally_or_rejected_by_both() {
    for seed in [(1u64 << 53) - 1, 1 << 53, (1 << 53) + 1] {
        let spec = CampaignSpec {
            name: "edge-seed".to_string(),
            scale: ExperimentScale::Smoke,
            seeds: vec![seed],
            algorithms: vec![Algorithm::Dsmf],
            workload: None,
        };
        let master = LoopbackMaster::new(test_config());
        let served = Client::new(master.transport()).submit(&spec);
        match (served, run_local(&spec)) {
            (Ok((job, _)), Ok(local)) => {
                let workers = vec![Worker::new(master.transport(), "w0")];
                assert_eq!(
                    drive_to_completion(&master, workers, job),
                    local,
                    "seed {seed}"
                );
            }
            (Err(_), Err(_)) => {}
            (served, local) => panic!("seed {seed}: served {served:?}, local {local:?}"),
        }
    }
}
